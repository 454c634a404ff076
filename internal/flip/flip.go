// Package flip implements FLIP (Fast Local Internet Protocol), Amoeba's
// network-layer protocol: location-transparent addressing with a broadcast
// locate mechanism, unreliable unicast and multicast, and fragmentation of
// large messages into Ethernet-sized packets at the sending kernel.
// Reassembly is left to the receiving client — in the kernel for Amoeba's
// own protocols, in user space (the Panda receive daemon) for the
// user-space implementation, exactly as the paper describes.
//
// One Stack instance lives inside each simulated kernel. Receive processing
// runs at interrupt level on the owning processor.
package flip

import (
	"fmt"
	"time"

	"amoebasim/internal/ether"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// Address is a location-transparent FLIP address. Point-to-point and group
// addresses share the space; group membership is explicit via JoinGroup.
type Address uint64

// Protocol identifies the FLIP client a packet belongs to.
type Protocol uint8

// Client protocols multiplexed over FLIP.
const (
	ProtoRPC    Protocol = iota + 1 // Amoeba kernel RPC
	ProtoGroup                      // Amoeba kernel group communication
	ProtoSystem                     // Panda system layer (user space)
)

// packet kinds (internal control vs. data).
type kind uint8

const (
	kindData kind = iota + 1
	kindLocate
	kindHere
)

// Packet is one FLIP packet: at most one Ethernet frame.
type Packet struct {
	Kind   kind
	Src    Address
	Dst    Address
	Proto  Protocol
	MsgID  uint64 // message id, stable across retransmissions
	Frag   int    // fragment index, 0-based
	NFrags int    // total fragments of the message
	Offset int    // payload offset of this fragment
	Length int    // payload bytes in this fragment
	Total  int    // total message payload bytes
	Hdr    int    // protocol header bytes (first fragment only)

	// Payload carries the whole message content by reference; receivers
	// use it only once reassembly completes.
	Payload any

	// Op is the causally traced operation the packet belongs to (0: none).
	Op uint64

	srcNIC int

	// Pool bookkeeping. Only unicast data packets are pooled: a multicast
	// packet is delivered by reference to every station on the broadcast
	// medium, so its lifetime has no single owner and it is left to the
	// garbage collector (Retain/ReleasePacket are no-ops on it).
	poolable bool
	refs     int32
}

// Retain adds a reference to a pooled packet, for receivers that queue
// the packet past the dispatch upcall (the raw-receive queue). Each
// Retain must be balanced by one Stack.ReleasePacket. No-op on unpooled
// packets.
func (pk *Packet) Retain() {
	if pk.poolable {
		pk.refs++
	}
}

// Message is a FLIP-level send request.
type Message struct {
	Src     Address
	Dst     Address
	Proto   Protocol
	MsgID   uint64
	Hdr     int // protocol header bytes on the wire (first fragment)
	Size    int // payload bytes
	Payload any
	// Multicast sends to the group address on the broadcast medium
	// instead of locating a single destination.
	Multicast bool
	// Op is the causally traced operation the message belongs to (0:
	// none); SendPhase overrides the phase the send-side processing is
	// attributed to (default PhaseProtoSend — the sequencer's broadcasts
	// are PhaseSeqService).
	Op        uint64
	SendPhase sim.PhaseID
}

// sendPhase is the phase send-side processing is attributed to.
func (msg Message) sendPhase() sim.PhaseID {
	if msg.SendPhase != sim.PhaseNone {
		return msg.SendPhase
	}
	return sim.PhaseProtoSend
}

// pendingTx is a packet whose send interrupt item is queued, with the
// message it belongs to.
type pendingTx struct {
	pk  *Packet
	msg Message
}

// packetPool is the free list of unicast data packets that the stacks on
// one simulator share (see Stack.pool), keyed there by packetPoolKey.
type packetPool struct {
	free []*Packet
}

type packetPoolKey struct{}

// maxPooledPackets bounds a packet free list, as ether's maxPooledHops
// bounds its hop records. Packets drift from partitions that send more
// than they receive to the others; past the bound a returned packet is
// left to the garbage collector.
const maxPooledPackets = 256

// Handler receives packets for a protocol. It runs in driver context at
// interrupt level, after the per-packet FLIP receive cost has been charged.
type Handler func(pkt *Packet)

const locateRetries = 5

// locateState tracks one in-progress locate: how often it has been
// retried (driving the exponential backoff) and the pending timeout event
// (cancelled when the address answers or fresh demand restarts the
// backoff).
type locateState struct {
	retries int
	timer   sim.Event
}

// Stack is the per-kernel FLIP instance.
type Stack struct {
	sim  *sim.Sim
	m    *model.CostModel
	p    *proc.Processor
	nic  *ether.NIC
	net  *ether.Network
	name string

	local map[Address]bool
	// groups, pending and locating are made on first use: most stacks of
	// a warmed pool never join a group or locate an address.
	groups map[Address]bool
	// routes holds what this stack learned itself: routes from HERE
	// replies, and unrouted tombstones where it invalidated a dir route.
	// It takes precedence over dir, the shared directory WarmRoutes
	// installed (nil when cold).
	routes   map[Address]int // address -> NIC id, or unrouted
	dir      routeDir
	pending  map[Address][]Message
	locating map[Address]*locateState
	handlers map[Protocol]Handler

	msgSeq uint64

	// pool is the packet free list of this stack's simulator, as ether's
	// segments share one pool of hop records per partition: a stack takes
	// from it when it sends and the consuming stack returns the packet to
	// its own simulator's list, so under partitioned execution each list
	// stays partition-local, and on one simulator a one-way stream
	// recycles its packets.
	pool *packetPool

	// rxq holds the received packets whose interrupt items are queued on
	// the processor, oldest first. The processor services its interrupt
	// items in FIFO order, so receiveFn, bound once, always finds its
	// packet at the head and a receive schedules no closure. txq and
	// transmitFn do the same for the packets SendFromInterrupt queued.
	rxq        []*Packet
	receiveFn  func()
	txq        []pendingTx
	transmitFn func()

	// Stats
	SentPackets int64
	RecvPackets int64
	SentBytes   int64
	// DroppedPending counts messages evicted from the bounded
	// pending-locate queue (each counts as a FLIP timeout: the message is
	// silently gone, exactly as if its locate had failed).
	DroppedPending int64

	mx *stackMetrics // nil when metrics are disabled
}

// stackMetrics bundles the per-stack metrics (labeled by processor).
type stackMetrics struct {
	packetsSent metrics.Counter `metric:"flip.packets_sent"`
	packetsRecv metrics.Counter `metric:"flip.packets_recv"`
	bytesSent   metrics.Counter `metric:"flip.bytes_sent"`
	messages    metrics.Counter `metric:"flip.messages_sent"`
	fragments   metrics.Counter `metric:"flip.extra_fragments"` // extra fragments beyond the first packet
	locates     metrics.Counter `metric:"flip.locates_sent"`
	locateFails metrics.Counter `metric:"flip.locate_failures"`
	routeDrops  metrics.Counter `metric:"flip.route_invalidations"` // route-cache invalidations
	queueDrops  metrics.Counter `metric:"flip.locate_queue_drops"`  // bounded pending-locate queue evictions
}

// NewStack creates the FLIP instance for processor p, attaching a NIC on
// the given Ethernet segment.
func NewStack(p *proc.Processor, net *ether.Network, segment int) (*Stack, error) {
	st := &Stack{
		sim:      p.Sim(),
		m:        p.Model(),
		p:        p,
		net:      net,
		name:     p.Name(),
		local:    make(map[Address]bool),
		routes:   make(map[Address]int),
		handlers: make(map[Protocol]Handler),
	}
	st.pool = st.sim.Shared(packetPoolKey{}, func() any { return new(packetPool) }).(*packetPool)
	st.receiveFn = st.receiveNext
	st.transmitFn = st.transmitNext
	nic, err := net.AddNIC(segment, st.onFrame)
	if err != nil {
		return nil, fmt.Errorf("flip: attach nic: %w", err)
	}
	st.nic = nic
	if reg := p.Sim().Metrics(); reg != nil {
		st.mx = new(stackMetrics)
		reg.Register(st.mx, metrics.L("proc", p.Name()))
	}
	return st, nil
}

// allocPacket takes a zeroed packet from the free list, or mints one.
func (st *Stack) allocPacket() *Packet {
	p := st.pool
	if n := len(p.free); n > 0 {
		pk := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pk
	}
	return &Packet{}
}

// ReleasePacket drops one reference to a pooled packet, recycling it
// into the free list of this stack's simulator when the last reference
// goes and the list holds fewer than maxPooledPackets. The final
// consumer of a packet calls it: the dispatch upcall after the handler
// returns, or — when the handler queued the packet with Retain — the
// thread that eventually dequeues it. No-op on unpooled packets, so
// broadcast deliveries (many receivers, one pointer) and fault-injected
// runs stay safe.
func (st *Stack) ReleasePacket(pk *Packet) {
	if pk == nil || !pk.poolable {
		return
	}
	pk.refs--
	if pk.refs > 0 || len(st.pool.free) >= maxPooledPackets {
		return
	}
	*pk = Packet{}
	st.pool.free = append(st.pool.free, pk)
}

// Network returns the network the stack's NIC is attached to.
func (st *Stack) Network() *ether.Network { return st.net }

// NICID returns the station address of the stack's NIC.
func (st *Stack) NICID() int { return st.nic.ID() }

// NIC exposes the stack's network interface (failure injection,
// instrumentation).
func (st *Stack) NIC() *ether.NIC { return st.nic }

// Processor returns the owning processor.
func (st *Stack) Processor() *proc.Processor { return st.p }

// Register announces a local point-to-point address.
func (st *Stack) Register(a Address) { st.local[a] = true }

// Unregister withdraws a local address.
func (st *Stack) Unregister(a Address) { delete(st.local, a) }

// JoinGroup subscribes this kernel to a multicast group address.
func (st *Stack) JoinGroup(a Address) {
	if st.groups == nil {
		st.groups = make(map[Address]bool)
	}
	st.groups[a] = true
}

// LeaveGroup unsubscribes from a group address.
func (st *Stack) LeaveGroup(a Address) { delete(st.groups, a) }

// Handle installs the receive handler for a protocol.
func (st *Stack) Handle(pr Protocol, h Handler) { st.handlers[pr] = h }

// InvalidateRoute drops the cached route for a, so the next unicast to it
// re-locates the address. Upper-layer protocols call it when they
// retransmit: an unanswered message is the only signal FLIP ever gets
// that a cached route may point at a NIC the address has left (the
// destination crashed and restarted elsewhere, or migrated). Without
// invalidation the stale entry sends every retransmission into the void
// forever. A route from the shared directory is masked by a tombstone in
// this stack's own map; the directory itself never changes.
func (st *Stack) InvalidateRoute(a Address) {
	if _, ok := st.route(a); !ok {
		return
	}
	if _, ok := st.dir.lookup(a, st.nic.ID()); ok {
		st.routes[a] = unrouted
	} else {
		delete(st.routes, a)
	}
	if st.mx != nil {
		st.mx.routeDrops.Inc()
	}
	if st.sim.Tracing() {
		st.sim.Trace(st.name, "flip.unroute", "addr=%x", uint64(a))
	}
}

// unrouted marks an address whose directory route this stack invalidated.
const unrouted = -2

// route returns the NIC a unicast to a goes to without a locate: the
// route this stack learned, else the directory's, unless invalidated.
func (st *Stack) route(a Address) (int, bool) {
	if nic, ok := st.routes[a]; ok {
		return nic, nic != unrouted
	}
	return st.dir.lookup(a, st.nic.ID())
}

// routeDir is the read-only address -> NIC directory WarmRoutes shares
// among the stacks it warms, in place of a copy of every route in every
// stack's map.
type routeDir map[Address]dirEntry

// dirEntry records the NICs of the last two stacks, in WarmRoutes order,
// that had registered the address: a stack is routed to the last one
// other than itself.
type dirEntry struct {
	last, prev int32 // NIC ids; prev is -1 when only one stack had it
}

// lookup returns the directory route for a as seen by the stack on NIC
// self.
func (d routeDir) lookup(a Address, self int) (int, bool) {
	e, ok := d[a]
	switch {
	case !ok:
		return 0, false
	case int(e.last) != self:
		return int(e.last), true
	case e.prev >= 0:
		return int(e.prev), true
	}
	return 0, false
}

// WarmRoutes gives every stack a route to each address every other stack
// has registered so far — the steady state of a long-running pool in
// which every route has been located once. A locate is a broadcast that
// interrupts every processor, so a measurement window much shorter than
// the pool's uptime would otherwise measure FLIP's one-time discovery
// storm instead of the protocols; addresses registered after the call
// still locate on first use.
//
// The routes live in one directory shared by the stacks, built in O(N)
// for N stacks; a stack consults it when its own map has no entry. An
// address registered on several stacks routes to the last of them in
// stacks order, and that stack to the one before it. The call overrides
// whatever the stacks had learned or invalidated for the addresses it
// routes. A stack warmed before has its old directory folded into its
// own map first, so a repeated call keeps every earlier route but costs
// what a per-stack copy would.
func WarmRoutes(stacks []*Stack) {
	dir := make(routeDir, 2*len(stacks))
	for _, dst := range stacks {
		id := int32(dst.nic.ID())
		for a := range dst.local {
			e, ok := dir[a]
			switch {
			case !ok:
				e = dirEntry{last: id, prev: -1}
			case e.last != id:
				e = dirEntry{last: id, prev: e.last}
			}
			dir[a] = e
		}
	}
	for _, st := range stacks {
		self := st.nic.ID()
		for a := range st.dir {
			if _, ok := st.routes[a]; !ok {
				if nic, ok := st.dir.lookup(a, self); ok {
					st.routes[a] = nic
				}
			}
		}
		for a := range st.routes {
			if _, ok := dir.lookup(a, self); ok {
				delete(st.routes, a)
			}
		}
		st.dir = dir
	}
}

// NextMsgID allocates a message id, stable across retransmissions when the
// caller reuses it.
func (st *Stack) NextMsgID() uint64 {
	st.msgSeq++
	return st.msgSeq
}

// SendFromThread transmits a message from thread context, charging the
// per-packet FLIP send cost and the user-to-kernel copy to the calling
// thread. Each fragment leaves after its processing time has elapsed.
func (st *Stack) SendFromThread(t *proc.Thread, msg Message) {
	if st.m.FragmentsFor(msg.Size) == 1 {
		pk := st.fragmentOne(msg)
		t.ChargeP(msg.sendPhase(), st.m.FLIPSend)
		t.CopyBytes(pk.Length)
		t.Flush()
		st.transmit(pk, msg)
		return
	}
	frags := st.fragment(msg)
	for _, fr := range frags {
		t.ChargeP(msg.sendPhase(), st.m.FLIPSend)
		t.CopyBytes(fr.Length)
		t.Flush()
		st.transmit(fr, msg)
	}
}

// SendFromInterrupt transmits a message from interrupt/kernel context,
// charging the send costs at interrupt level on the owning processor.
func (st *Stack) SendFromInterrupt(msg Message) {
	if st.m.FragmentsFor(msg.Size) == 1 {
		st.queueTransmit(st.fragmentOne(msg), msg)
		return
	}
	for _, fr := range st.fragment(msg) {
		st.queueTransmit(fr, msg)
	}
}

// queueTransmit queues one packet's send interrupt item; the packet goes
// out when the item has been serviced.
func (st *Stack) queueTransmit(pk *Packet, msg Message) {
	st.txq = append(st.txq, pendingTx{pk: pk, msg: msg})
	cost := st.m.FLIPSend + st.m.Copy(pk.Length)
	st.p.InterruptTagged(cost, msg.Op, msg.sendPhase(), st.transmitFn)
}

// transmitNext transmits the oldest queued packet once its send interrupt
// item has been serviced.
func (st *Stack) transmitNext() {
	tx := st.txq[0]
	n := copy(st.txq, st.txq[1:])
	st.txq[n] = pendingTx{}
	st.txq = st.txq[:n]
	st.transmit(tx.pk, tx.msg)
}

// newPacket builds fragment i of n, drawing unicast data packets from
// the free list (a multicast packet is shared by reference with every
// receiver, and a fault hook may deliver a packet twice, so neither has
// a pooled single-owner lifecycle).
func (st *Stack) newPacket(msg Message, i, n, off, length int) *Packet {
	var pk *Packet
	if !msg.Multicast && !st.net.FaultEverArmed() {
		pk = st.allocPacket()
		pk.poolable = true
		pk.refs = 1
	} else {
		pk = &Packet{}
	}
	pk.Kind = kindData
	pk.Src = msg.Src
	pk.Dst = msg.Dst
	pk.Proto = msg.Proto
	pk.MsgID = msg.MsgID
	pk.Frag = i
	pk.NFrags = n
	pk.Offset = off
	pk.Length = length
	pk.Total = msg.Size
	pk.Payload = msg.Payload
	pk.Op = msg.Op
	pk.srcNIC = st.nic.ID()
	if i == 0 {
		pk.Hdr = msg.Hdr
	}
	return pk
}

// fragmentOne builds the single packet of a message that fits one frame,
// skipping the general path's fragment-slice allocation — the hot case
// for RPC requests and acks.
func (st *Stack) fragmentOne(msg Message) *Packet {
	if st.mx != nil {
		st.mx.messages.Inc()
	}
	return st.newPacket(msg, 0, 1, 0, msg.Size)
}

// fragment splits a message into packets of at most one Ethernet frame.
func (st *Stack) fragment(msg Message) []*Packet {
	cap0 := st.m.FragmentPayload()
	n := st.m.FragmentsFor(msg.Size)
	if st.mx != nil {
		st.mx.messages.Inc()
		if n > 1 {
			st.mx.fragments.Add(int64(n - 1))
		}
	}
	frags := make([]*Packet, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		length := msg.Size - off
		if length > cap0 {
			length = cap0
		}
		frags = append(frags, st.newPacket(msg, i, n, off, length))
		off += length
	}
	return frags
}

// wireSize is the Ethernet payload size of a packet.
func (st *Stack) wireSize(pk *Packet) int {
	return st.m.FLIPHeaderBytes + pk.Hdr + pk.Length
}

// transmit routes one packet: multicast goes out as a hardware broadcast;
// unicast uses the route cache or triggers a locate.
func (st *Stack) transmit(pk *Packet, msg Message) {
	st.SentPackets++
	st.SentBytes += int64(pk.Length)
	if st.mx != nil {
		st.mx.packetsSent.Inc()
		st.mx.bytesSent.Add(int64(pk.Length))
	}
	if msg.Multicast {
		st.nic.Send(ether.Frame{Dst: ether.Broadcast, Size: st.wireSize(pk), Payload: pk, Op: pk.Op})
		if st.groups[msg.Dst] {
			// FLIP multicast also delivers to local group members; the
			// loopback copy skips the wire but pays receive processing.
			st.p.InterruptTagged(st.m.FLIPRecv, pk.Op, sim.PhaseProtoRecv, func() { st.dispatch(pk) })
		}
		return
	}
	if dst, ok := st.route(msg.Dst); ok {
		st.nic.Send(ether.Frame{Dst: dst, Size: st.wireSize(pk), Payload: pk, Op: pk.Op})
		return
	}
	if st.local[msg.Dst] {
		// Local delivery without touching the wire (loopback).
		st.sim.Schedule(0, func() { st.dispatch(pk) })
		return
	}
	st.enqueueForLocate(msg.Dst, msg, pk)
}

// MaxPendingLocate caps the messages queued per address while a locate is
// outstanding. A locate resolves (or fails) within a handful of backoff
// rounds, during which a correct upper protocol has at most a few
// messages in flight per destination; an unbounded queue only grows when
// something above FLIP retransmits faster than the locate round-trips,
// and then every queued copy would flush onto the wire at once.
const MaxPendingLocate = 16

// enqueueForLocate holds a whole message until the destination address is
// located; the fragments are regenerated on flush, so the already-built
// packet is recycled here. When the per-address queue is full the oldest
// message is evicted deterministically — FLIP is unreliable, so a dropped
// message is indistinguishable from a lost one and costs the upper
// protocol a retransmission, exactly like a locate timeout.
func (st *Stack) enqueueForLocate(a Address, msg Message, pk *Packet) {
	st.ReleasePacket(pk)
	// Only queue the message once (first fragment triggers it).
	q := st.pending[a]
	for _, m := range q {
		if m.MsgID == msg.MsgID {
			// An upper layer retransmitted a message that is still waiting
			// for this locate: fresh demand. Restart the locate backoff and
			// probe again now, instead of sitting out the current wait —
			// otherwise a slow locate starves the retransmission budget of
			// the protocol above.
			if ls := st.locating[a]; ls != nil {
				st.sim.Cancel(ls.timer)
				ls.retries = 0
				st.sendLocate(a)
			}
			return
		}
	}
	if len(q) >= MaxPendingLocate {
		st.DroppedPending++
		if st.mx != nil {
			st.mx.queueDrops.Inc()
		}
		if st.sim.Tracing() {
			st.sim.Trace(st.name, "flip.queue_drop", "addr=%x msgid=%d", uint64(a), q[0].MsgID)
		}
		copy(q, q[1:])
		q[len(q)-1] = Message{}
		q = q[:len(q)-1]
	}
	if st.pending == nil {
		st.pending = make(map[Address][]Message)
		st.locating = make(map[Address]*locateState)
	}
	st.pending[a] = append(q, msg)
	if st.locating[a] == nil {
		st.locating[a] = &locateState{}
		st.sendLocate(a)
	}
}

func (st *Stack) sendLocate(a Address) {
	if st.sim.Tracing() {
		st.sim.Trace(st.p.Name(), "flip.locate", "addr=%x", uint64(a))
	}
	if st.mx != nil {
		st.mx.locates.Inc()
	}
	pk := &Packet{Kind: kindLocate, Dst: a, srcNIC: st.nic.ID()}
	st.nic.Send(ether.Frame{Dst: ether.Broadcast, Size: st.m.FLIPHeaderBytes, Payload: pk})
	ls := st.locating[a]
	ls.timer = st.sim.Schedule(st.m.RetransBackoff(ls.retries), func() { st.locateTimeout(a) })
}

func (st *Stack) locateTimeout(a Address) {
	ls := st.locating[a]
	if ls == nil {
		return // already resolved
	}
	if ls.retries+1 >= locateRetries {
		// Give up: FLIP is unreliable; drop the queued messages.
		delete(st.locating, a)
		delete(st.pending, a)
		if st.mx != nil {
			st.mx.locateFails.Inc()
		}
		return
	}
	ls.retries++
	st.sendLocate(a)
}

// onFrame is the NIC receive upcall: charge interrupt + FLIP receive cost,
// then process the packet.
func (st *Stack) onFrame(fr ether.Frame) {
	pk, ok := fr.Payload.(*Packet)
	if !ok {
		return
	}
	cost := st.m.IntrEntry + st.m.FLIPRecv
	if fr.Dst == ether.Broadcast {
		cost += st.m.MulticastExtra
	}
	st.rxq = append(st.rxq, pk)
	st.p.InterruptTagged(cost, pk.Op, sim.PhaseProtoRecv, st.receiveFn)
}

// receiveNext processes the oldest received packet once its interrupt
// item has been serviced.
func (st *Stack) receiveNext() {
	pk := st.rxq[0]
	n := copy(st.rxq, st.rxq[1:])
	st.rxq[n] = nil
	st.rxq = st.rxq[:n]
	st.receive(pk)
}

func (st *Stack) receive(pk *Packet) {
	switch pk.Kind {
	case kindLocate:
		if st.local[pk.Dst] {
			resp := &Packet{Kind: kindHere, Dst: pk.Dst, srcNIC: st.nic.ID()}
			st.nic.Send(ether.Frame{Dst: pk.srcNIC, Size: st.m.FLIPHeaderBytes, Payload: resp})
		}
	case kindHere:
		if old, ok := st.route(pk.Dst); ok && old != pk.srcNIC {
			// The address answered from a different NIC than the cache
			// says: the old entry is stale (the address moved). Count it
			// as an invalidation; the new route replaces it below.
			if st.mx != nil {
				st.mx.routeDrops.Inc()
			}
			if st.sim.Tracing() {
				st.sim.Trace(st.name, "flip.reroute", "addr=%x nic %d -> %d", uint64(pk.Dst), old, pk.srcNIC)
			}
		}
		st.routes[pk.Dst] = pk.srcNIC
		if ls := st.locating[pk.Dst]; ls != nil {
			st.sim.Cancel(ls.timer)
			delete(st.locating, pk.Dst)
		}
		msgs := st.pending[pk.Dst]
		delete(st.pending, pk.Dst)
		for _, m := range msgs {
			st.SendFromInterrupt(m)
		}
	case kindData:
		st.dispatch(pk)
	}
}

func (st *Stack) dispatch(pk *Packet) {
	if pk.Dst != 0 {
		wantLocal := st.local[pk.Dst] || st.groups[pk.Dst]
		if !wantLocal {
			// Not for us (hardware broadcast filter, or a stale unicast
			// route): this stack is the packet's last consumer.
			st.ReleasePacket(pk)
			return
		}
	}
	st.RecvPackets++
	if st.mx != nil {
		st.mx.packetsRecv.Inc()
	}
	if h := st.handlers[pk.Proto]; h != nil {
		h(pk)
	}
	// The upcall has returned; unless the handler retained the packet to
	// queue it past the upcall, recycle it into this stack's free list.
	st.ReleasePacket(pk)
}

// Reassembler rebuilds messages from FLIP fragments. Both the kernel
// protocols (in kernel space) and the Panda receive daemon (in user space)
// use one. Stale partial messages are evicted after the given timeout, so
// fragment loss only costs the upper protocol a retransmission; a global
// occupancy cap bounds the buffer pool even when senders give up and
// their partials would otherwise sit forever (one-sided loss).
type Reassembler struct {
	sim      *sim.Sim
	timeout  time.Duration
	limit    int
	seq      uint64 // creation order, for deterministic eviction ties
	partial  map[reasmKey]*reasmState
	free     []*reasmState    // recycled states (bitset storage kept)
	timeouts *metrics.Counter // stale partial-message evictions
}

// DefaultMaxPartial is the default cap on buffered partial messages per
// reassembler, sized far above anything a healthy pool produces (each
// sender has at most a handful of messages in flight) but small enough
// that abandoned partials cannot accumulate into a leak.
const DefaultMaxPartial = 64

// SetTimeoutCounter installs a counter incremented whenever a stale
// partial message is evicted (a reassembly timeout). Nil disables it.
func (r *Reassembler) SetTimeoutCounter(c *metrics.Counter) { r.timeouts = c }

type reasmKey struct {
	src   Address
	msgID uint64
}

type reasmState struct {
	have     []uint64 // fragment-arrival bitset
	count    int
	total    int
	deadline sim.Time
	seq      uint64 // creation order (eviction tie-break)
}

// mark records fragment i, reporting whether it is new (not a duplicate).
func (stt *reasmState) mark(i int) bool {
	w, b := i>>6, uint(i&63)
	if stt.have[w]&(1<<b) != 0 {
		return false
	}
	stt.have[w] |= 1 << b
	return true
}

// allocState takes a recycled partial-message state from the free list
// (reusing its bitset storage) or mints one sized for total fragments.
func (r *Reassembler) allocState(total int) *reasmState {
	words := (total + 63) / 64
	var stt *reasmState
	if n := len(r.free); n > 0 {
		stt = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		if cap(stt.have) >= words {
			stt.have = stt.have[:words]
			for i := range stt.have {
				stt.have[i] = 0
			}
		} else {
			stt.have = make([]uint64, words)
		}
		stt.count = 0
	} else {
		stt = &reasmState{have: make([]uint64, words)}
	}
	stt.total = total
	return stt
}

// freeState recycles a state removed from the partial map.
func (r *Reassembler) freeState(stt *reasmState) {
	r.free = append(r.free, stt)
}

// NewReassembler creates a reassembler with the given staleness timeout
// and the default occupancy cap.
func NewReassembler(s *sim.Sim, timeout time.Duration) *Reassembler {
	return &Reassembler{
		sim:     s,
		timeout: timeout,
		limit:   DefaultMaxPartial,
		partial: make(map[reasmKey]*reasmState),
	}
}

// SetLimit overrides the occupancy cap (values < 1 are clamped to 1).
func (r *Reassembler) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	r.limit = n
}

// Add consumes a fragment. It returns true exactly once per message, when
// the final missing fragment arrives. Duplicate fragments are ignored.
// A single-fragment message completes here, without a call.
func (r *Reassembler) Add(pk *Packet) bool {
	return pk.NFrags <= 1 || r.AddFragment(pk.Src, pk.MsgID, pk.Frag, pk.NFrags)
}

// AddFragment is Add for a fragment described by its fields: fragment
// frag of the nfrags that make up message msgID from src. Transports
// that carry their own descriptors instead of FLIP packets use it.
func (r *Reassembler) AddFragment(src Address, msgID uint64, frag, nfrags int) bool {
	if nfrags <= 1 {
		return true
	}
	key := reasmKey{src: src, msgID: msgID}
	stt := r.partial[key]
	now := r.sim.Now()
	if stt != nil && now > stt.deadline {
		delete(r.partial, key)
		r.freeState(stt)
		stt = nil
		r.timeouts.Inc()
	}
	if stt == nil {
		if len(r.partial) >= r.limit {
			r.reclaim(now)
		}
		r.seq++
		stt = r.allocState(nfrags)
		stt.seq = r.seq
		r.partial[key] = stt
	}
	stt.deadline = now.Add(r.timeout)
	if !stt.mark(frag) {
		return false
	}
	stt.count++
	if stt.count == stt.total {
		delete(r.partial, key)
		r.freeState(stt)
		return true
	}
	return false
}

// reclaim makes room for a new partial when the cap is hit: every expired
// partial is evicted (senders that gave up never send the fragment that
// would have triggered the per-key eviction in Add), and if none were
// stale yet the oldest partial by (deadline, creation order) goes — a
// deterministic choice regardless of map iteration order. Every eviction
// counts as a reassembly timeout.
func (r *Reassembler) reclaim(now sim.Time) {
	for key, stt := range r.partial {
		if now > stt.deadline {
			delete(r.partial, key)
			r.freeState(stt)
			r.timeouts.Inc()
		}
	}
	if len(r.partial) < r.limit {
		return
	}
	var victim reasmKey
	var vs *reasmState
	for key, stt := range r.partial {
		if vs == nil || stt.deadline < vs.deadline ||
			(stt.deadline == vs.deadline && stt.seq < vs.seq) {
			victim, vs = key, stt
		}
	}
	if vs != nil {
		delete(r.partial, victim)
		r.freeState(vs)
		r.timeouts.Inc()
	}
}

// Pending reports how many partial messages are buffered.
func (r *Reassembler) Pending() int { return len(r.partial) }
