package bypass

import "amoebasim/internal/flip"

type wireKind uint8

const (
	bREQ wireKind = iota + 1
	bREP
	bACK
	bgREQ    // member → sequencer ordering request (PB method)
	bgDATA   // sequencer → members: ordered data
	bgRETR   // member → sequencer: retransmission request
	bgSYNC   // sequencer → member: status probe
	bgSTATUS // member → sequencer: delivery watermark
	bRAW     // system-layer test message (Table 1 unicast/multicast)
)

// bwire is one logical Panda protocol message carried over the bypass
// transport: the same header fields as the user-space library, minus the
// FLIP encapsulation.
type bwire struct {
	kind    wireKind
	gid     int // group id (group protocol kinds only)
	from    int
	seq     uint64
	ackSeq  uint64
	tmpID   uint64
	lo, hi  uint64
	payload any
	size    int
}

// bfrag is one wire frame of a message: the NIC gather-reads the payload
// straight out of the application buffer (w.payload is carried by
// reference), so fragmentation never copies.
type bfrag struct {
	w      *bwire
	src    int // sender processor id
	dst    int // destination processor id, or -1 for multicast
	msgID  uint64
	frag   int
	nfrags int
	length int
	hdr    int // protocol header bytes (first fragment only)
	op     uint64
	pooled bool // from a sender's free list (see Endpoint.frags)
}

// reassemble consumes f into r, returning true when it completes its
// message. A single-fragment message completes without a call.
func reassemble(r *flip.Reassembler, f *bfrag) bool {
	return f.nfrags <= 1 || r.AddFragment(flip.Address(f.src), f.msgID, f.frag, f.nfrags)
}

// seqTraffic reports whether f carries sequencer-bound group traffic, and
// for which group.
func seqTraffic(f *bfrag) (gid int, ok bool) {
	switch f.w.kind {
	case bgREQ, bgRETR, bgSTATUS:
		return f.w.gid, true
	default:
		return 0, false
	}
}
