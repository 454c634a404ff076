package bypass

import (
	"amoebasim/internal/flip"
	"amoebasim/internal/panda"
)

// bfrag is one wire frame of a message: the NIC gather-reads the payload
// straight out of the application buffer (w.Payload is carried by
// reference), so fragmentation never copies.
type bfrag struct {
	w      *panda.Wire
	src    int // sender processor id
	dst    int // destination processor id, or -1 for multicast
	msgID  uint64
	frag   int
	nfrags int
	length int
	hdr    int // protocol header bytes (first fragment only)
	op     uint64
	pooled bool // from the simulator's free list (see Endpoint.frags)
}

// reassemble consumes f into r, returning true when it completes its
// message. A single-fragment message completes without a call.
func reassemble(r *flip.Reassembler, f *bfrag) bool {
	return f.nfrags <= 1 || r.AddFragment(flip.Address(f.src), f.msgID, f.frag, f.nfrags)
}
