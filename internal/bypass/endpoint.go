// Package bypass is the third Panda implementation column: the RPC and
// totally-ordered group protocols of the user-space library running over a
// user-mapped NIC queue pair instead of the kernel's raw FLIP interface.
// Sends post descriptors pointing straight at application buffers and ring
// a doorbell — no syscall crossing, no kernel copy, no fragmentation-layer
// copy (the NIC gather-reads the buffer per fragment). Receives are
// consumed from a completion queue by polling, by a NIC interrupt, or by a
// hybrid of the two (see Dispatch).
//
// Compared to the user-space column, the per-packet path drops the
// syscall, the raw-interface translation overhead, the kernel FLIP layer
// and every byte copy; what remains is the protocol state machine itself,
// a per-packet descriptor cost, and the doorbell write. Routes are static
// (queue pairs are pre-established to every peer), so there is no locate
// traffic either.
package bypass

import (
	"strconv"

	"amoebasim/internal/ether"
	"amoebasim/internal/flip"
	"amoebasim/internal/model"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// bypassDepth models the thin user-level library: unlike Panda-over-FLIP's
// deeply nested stack (pandaDepth 6, trapping on every syscall), the
// bypass fast path is two frames deep — shallow enough that the SPARC's
// six register windows absorb it without overflow or underflow traps,
// which is why the crossing phase of a bypass operation is exactly zero.
const bypassDepth = 2

// systemHeaderBytes is the system-layer test-message header (Table 1).
const systemHeaderBytes = 16

// Config configures one bypass endpoint.
type Config struct {
	// NICBase is the NIC id of processor 0's bypass queue pair; processor
	// i's QP answers at NICBase + i (static routing, no locate).
	NICBase int
	// Groups lists the communication groups this endpoint participates in
	// (as member, sequencer, or both).
	Groups []panda.GroupSpec
	// Dispatch selects the completion-queue dispatch mode (zero: Poll).
	Dispatch Dispatch
	// Dedicated marks an endpoint that runs only sequencer threads (a
	// dedicated sequencer machine): no application threads compete for the
	// processor, so pickups never pay the shared-machine dispatch cost,
	// and non-sequencer traffic is dropped at the NIC filter.
	Dedicated bool
}

// Endpoint is one processor's bypass transport instance. It implements
// panda.Transport.
type Endpoint struct {
	id  int
	p   *proc.Processor
	m   *model.CostModel
	sim *sim.Sim
	nic *ether.NIC
	net *ether.Network
	cfg Config

	reasm   *flip.Reassembler
	rxq     []rxEntry
	waiters []*waiter
	free    []*waiter // waiters whose receive has returned
	discard func(*bfrag) bool
	msgSeq  uint64

	// frags is the free list of unicast descriptors: the consumer of a
	// descriptor returns it here once reassembly has read it (freeFrag).
	frags []*bfrag

	consumer *proc.Thread
	helper   *helper

	rpc        bypassRPC
	grps       []*group  // indexed by gid; nil entries for groups not held
	grpSends   []*bgsend // group send records whose send has returned
	rawHandler panda.RawHandler
}

var _ panda.Transport = (*Endpoint)(nil)

// rxEntry is one completion-queue entry plus its arrival instant, so the
// time it waits for the consumer can be causally attributed.
type rxEntry struct {
	f  *bfrag
	at sim.Time
}

// waiter is a thread parked on the completion queue.
type waiter struct {
	t      *proc.Thread
	match  func(*bfrag) bool
	ph     sim.PhaseID // service phase (PhaseSeqService for sequencer threads)
	at     sim.Time    // park instant, for spin accounting
	f      *bfrag
	polled bool // woken on the poll path (charge the poll probe on resume)
}

// New creates and starts a bypass endpoint on processor p, attaching its
// queue-pair NIC to the given Ethernet segment.
func New(p *proc.Processor, net *ether.Network, segment int, cfg Config) (*Endpoint, error) {
	e := &Endpoint{
		id:  p.ID(),
		p:   p,
		m:   p.Model(),
		sim: p.Sim(),
		cfg: cfg,
	}
	if e.cfg.Dispatch == 0 {
		e.cfg.Dispatch = Poll
	}
	nic, err := net.AddNIC(segment, e.onFrame)
	if err != nil {
		return nil, err
	}
	e.nic = nic
	e.net = net
	e.reasm = flip.NewReassembler(e.sim, e.m.RetransTimeout)
	e.rpc.init(e)
	for _, gs := range cfg.Groups {
		g := &group{}
		g.init(e, gs)
		for gs.GID >= len(e.grps) {
			e.grps = append(e.grps, nil)
		}
		e.grps[gs.GID] = g
	}
	e.helper = newHelper(p)
	e.consumer = p.NewThread("qp-consumer", proc.PrioDaemon, e.consumerLoop)
	var owned []*group
	for _, g := range e.grps {
		if g != nil && g.spec.Sequencer == e.id {
			owned = append(owned, g)
		}
	}
	if len(owned) > 0 {
		if cfg.Dedicated {
			// Dedicated sequencer machine: the NIC filter drops member
			// traffic so only the sequencer threads ever run, keeping their
			// context loaded (the warm-dispatch / direct-resume regime).
			e.discard = func(f *bfrag) bool { return !e.ownsSeqTraffic(f) }
		}
		for _, g := range owned {
			g := g
			g.initSequencer()
			name := "qp-sequencer"
			if g.gid > 0 {
				name = "qp-sequencer-g" + strconv.Itoa(g.gid)
			}
			seq := p.NewThread(name, proc.PrioDaemon, g.sequencerLoop)
			// Everything the sequencer thread does is sequencer service
			// from the client's point of view.
			seq.SetPhaseOverride(sim.PhaseSeqService)
		}
	}
	return e, nil
}

// Mode reports Bypass.
func (e *Endpoint) Mode() panda.Mode { return panda.Bypass }

// ID reports the processor id.
func (e *Endpoint) ID() int { return e.id }

// Dispatch reports the endpoint's completion-queue dispatch mode.
func (e *Endpoint) Dispatch() Dispatch { return e.cfg.Dispatch }

// HandleRaw registers the system-layer message upcall (Table 1).
func (e *Endpoint) HandleRaw(h panda.RawHandler) { e.rawHandler = h }

// HandleRPC registers the RPC request upcall.
func (e *Endpoint) HandleRPC(h panda.RPCHandler) { e.rpc.handler = h }

// HandleGroup registers the ordered group delivery upcall.
func (e *Endpoint) HandleGroup(h panda.GroupHandler) {
	for _, g := range e.grps {
		if g != nil {
			g.handler = h
		}
	}
}

func (e *Endpoint) groupByGID(gid int) *group {
	if gid < 0 || gid >= len(e.grps) {
		return nil
	}
	return e.grps[gid]
}

func (e *Endpoint) ownsSeq() bool {
	for _, g := range e.grps {
		if g != nil && g.spec.Sequencer == e.id {
			return true
		}
	}
	return false
}

// ownsSeqTraffic reports whether f is sequencer traffic for a group this
// endpoint sequences.
func (e *Endpoint) ownsSeqTraffic(f *bfrag) bool {
	gid, ok := seqTraffic(f)
	if !ok {
		return false
	}
	g := e.groupByGID(gid)
	return g != nil && g.spec.Sequencer == e.id
}

func (e *Endpoint) nextMsgID() uint64 {
	e.msgSeq++
	return e.msgSeq
}

// maxPooledFrags bounds an endpoint's descriptor free list, as flip's
// maxPooledPackets bounds its packet lists.
const maxPooledFrags = 256

// freeFrag recycles a pooled descriptor. Its consumer calls it once
// reassembly has read it: a unicast frame reaches one endpoint once, so
// nothing else holds the descriptor. A multicast or loopback descriptor
// is shared by reference and never pooled, and no descriptor is once a
// fault hook, which may deliver a frame twice, was ever armed.
func (e *Endpoint) freeFrag(f *bfrag) {
	if !f.pooled || len(e.frags) >= maxPooledFrags || e.net.FaultEverArmed() {
		return
	}
	*f = bfrag{}
	e.frags = append(e.frags, f)
}

// ---- Send path ----

// post transmits a message: per fragment, build a descriptor pointing at
// the application buffer (no copy — the NIC gather-reads it), ring the
// doorbell, and hand the frame to the wire. No syscall, no kernel layer.
func (e *Endpoint) post(t *proc.Thread, dst int, hdr int, w *bwire, msgID uint64, multicast bool) {
	cap0 := e.m.MTU - e.m.BypassHeaderBytes
	n := 1
	if w.size > 0 {
		n = (w.size + cap0 - 1) / cap0
	}
	pooled := !multicast && dst != e.id && !e.net.FaultEverArmed()
	off := 0
	for i := 0; i < n; i++ {
		length := w.size - off
		if length > cap0 {
			length = cap0
		}
		var f *bfrag
		if k := len(e.frags); pooled && k > 0 {
			f, e.frags = e.frags[k-1], e.frags[:k-1]
		} else {
			f = new(bfrag)
		}
		*f = bfrag{
			w: w, src: e.id, dst: dst, msgID: msgID,
			frag: i, nfrags: n, length: length, op: t.Op(), pooled: pooled,
		}
		if i == 0 {
			f.hdr = hdr
		}
		t.ChargeP(sim.PhaseProtoSend, e.m.BypassTxPacket)
		t.ChargeP(sim.PhaseDoorbell, e.m.DoorbellWrite)
		t.Flush()
		size := e.m.BypassHeaderBytes + f.hdr + f.length
		switch {
		case multicast:
			f.dst = -1
			e.nic.Send(ether.Frame{Dst: ether.Broadcast, Size: size, Payload: f, Op: f.op})
			// The QP loops a multicast descriptor back to the local
			// completion queue (the wire excludes the sending station).
			f := f
			e.sim.Schedule(0, func() { e.deliver(f) })
		case dst == e.id:
			// Loopback queue pair: straight to the local completion queue
			// without touching the wire.
			f := f
			e.sim.Schedule(0, func() { e.deliver(f) })
		default:
			e.nic.Send(ether.Frame{Dst: e.cfg.NICBase + dst, Size: size, Payload: f, Op: f.op})
		}
		off += length
	}
}

// SystemSend is the Panda system-layer primitive of Table 1: a message
// straight onto the queue pair (unicast to a processor, or multicast to
// every endpoint).
func (e *Endpoint) SystemSend(t *proc.Thread, dest int, payload any, size int, multicast bool) {
	w := &bwire{kind: bRAW, from: e.id, payload: payload, size: size}
	t.Call(bypassDepth)
	e.post(t, dest, systemHeaderBytes, w, e.nextMsgID(), multicast)
	t.Return(bypassDepth)
}

// ---- Receive path ----

// onFrame is the NIC receive upcall: the device DMA-writes the fragment
// into a posted receive buffer and appends a completion-queue entry. No
// CPU cost accrues until a consumer picks the entry up.
func (e *Endpoint) onFrame(fr ether.Frame) {
	f, ok := fr.Payload.(*bfrag)
	if !ok {
		return // foreign (FLIP) traffic sharing the wire
	}
	e.deliver(f)
}

// deliver routes one completion-queue entry: straight to a matching
// parked consumer (waking it per the dispatch mode), or onto the queue.
// Runs in driver context.
func (e *Endpoint) deliver(f *bfrag) {
	if e.discard != nil && e.discard(f) {
		e.freeFrag(f)
		return
	}
	if f.dst < 0 {
		// Multicast: group data for a group this endpoint does not hold is
		// filtered by the QP's steering table.
		if g := f.w.gid; f.w.kind != bRAW && e.groupByGID(g) == nil {
			return
		}
	}
	for i, w := range e.waiters {
		if w.match != nil && !w.match(f) {
			continue
		}
		last := len(e.waiters) - 1
		copy(e.waiters[i:], e.waiters[i+1:])
		e.waiters[last] = nil
		e.waiters = e.waiters[:last]
		w.f = f
		e.wake(w, f)
		return
	}
	e.rxq = append(e.rxq, rxEntry{f: f, at: e.sim.Now()})
}

// wake resumes a parked consumer according to the dispatch mode.
//
// Poll: the consumer was spinning on the completion queue — the idle gap
// (capped at PollSpinBudget) is real CPU burned on this processor, and the
// pickup itself needs no interrupt: a direct resume (free when the
// context is still loaded, one context switch when an application thread
// ran in between).
//
// Interrupt: the NIC raises an interrupt; the consumer is dispatched out
// of the handler with the paper's interrupt-dispatch cost (110 µs cold,
// 60 µs warm).
//
// Hybrid: poll semantics while the idle gap is within PollSpinBudget;
// past it the consumer has parked for real with the interrupt armed —
// it pays the full spin budget it burned before parking plus the
// interrupt path. The choice is a pure function of event times, so runs
// are deterministic.
func (e *Endpoint) wake(w *waiter, f *bfrag) {
	now := e.sim.Now()
	gap := now.Sub(w.at)
	poll := e.cfg.Dispatch == Poll || (e.cfg.Dispatch == Hybrid && gap <= e.m.PollSpinBudget)
	if poll {
		spin := gap
		if spin > e.m.PollSpinBudget {
			spin = e.m.PollSpinBudget
		}
		e.p.AddSpin(spin)
		w.polled = true
		w.t.SetOp(f.op)
		w.t.UnblockDirect()
		return
	}
	if e.cfg.Dispatch == Hybrid {
		e.p.AddSpin(e.m.PollSpinBudget) // spun out the budget before parking
	}
	w.t.SetOp(f.op)
	e.p.InterruptTagged(e.m.IntrEntry, f.op, w.ph, func() { w.t.Unblock() })
}

// receive blocks t until a completion-queue entry satisfying match (nil:
// any) is available, then consumes it. ph is the service phase queue
// waits are attributed against (PhaseSeqService for sequencer threads).
func (e *Endpoint) receive(t *proc.Thread, match func(*bfrag) bool, ph sim.PhaseID) *bfrag {
	var f *bfrag
	for i, q := range e.rxq {
		if match == nil || match(q.f) {
			f = q.f
			e.sim.CausalSpan(f.op, waitPhaseFor(ph), q.at, e.sim.Now())
			last := len(e.rxq) - 1
			copy(e.rxq[i:], e.rxq[i+1:])
			e.rxq[last] = rxEntry{}
			e.rxq = e.rxq[:last]
			break
		}
	}
	if f == nil {
		var w *waiter
		if n := len(e.free); n > 0 {
			w = e.free[n-1]
			e.free = e.free[:n-1]
		} else {
			w = &waiter{}
		}
		w.t, w.match, w.ph, w.at = t, match, ph, e.sim.Now()
		e.waiters = append(e.waiters, w)
		t.Block()
		// Only deliver wakes a waiter, after taking it off the list (on the
		// interrupt path its handler unblocks t, so it has run): once Block
		// returns nothing else holds w.
		f = w.f
		polled := w.polled
		*w = waiter{}
		e.free = append(e.free, w)
		if polled {
			t.ChargeP(sim.PhasePollSpin, e.m.PollCheck)
		}
	} else {
		// Backlog pickup: the consumer stayed runnable between entries. On
		// a shared machine each new message pays the time-sharing
		// arbitration cost of running the QP consumer next to application
		// threads — the price the kernel-space column avoids by processing
		// at interrupt level; a dedicated machine pays nothing. Later
		// fragments of the same message ride the burst for free: the
		// consumer already holds the processor while it streams them.
		if !e.cfg.Dedicated && f.frag == 0 {
			t.ChargeP(sim.PhaseSched, e.m.BypassSharedDispatch)
		}
		if e.cfg.Dispatch != Interrupt {
			t.ChargeP(sim.PhasePollSpin, e.m.PollCheck)
		}
	}
	t.SetOp(f.op)
	t.ChargeP(sim.PhaseProtoRecv, e.m.BypassRxPacket)
	return f
}

// waitPhaseFor maps a service phase to the phase its queue wait belongs
// to: waiting for the sequencer is sequencer queueing, everything else is
// receive queueing.
func waitPhaseFor(ph sim.PhaseID) sim.PhaseID {
	if ph == sim.PhaseSeqService {
		return sim.PhaseSeqQueue
	}
	return sim.PhaseRecvQueue
}

// consumerLoop is the endpoint's completion-queue consumer: it picks up
// fragments, reassembles them, and upcalls the protocol handlers to
// completion — the bypass analogue of the Panda receive daemon, minus the
// fetch syscall and the kernel-to-user copy.
func (e *Endpoint) consumerLoop(t *proc.Thread) {
	var filter func(*bfrag) bool
	if e.ownsSeq() {
		// Sequencer traffic for owned groups is consumed directly by the
		// sequencer threads.
		filter = func(f *bfrag) bool { return !e.ownsSeqTraffic(f) }
	}
	for {
		f := e.receive(t, filter, sim.PhaseProtoRecv)
		t.Call(bypassDepth)
		w, done := f.w, reassemble(e.reasm, f)
		e.freeFrag(f)
		if done {
			e.dispatchMsg(t, w)
		}
		t.Return(bypassDepth)
		// Drop the per-packet operation before blocking for the next one.
		t.SetOp(0)
	}
}

func (e *Endpoint) dispatchMsg(t *proc.Thread, w *bwire) {
	switch w.kind {
	case bREQ:
		e.rpc.handleREQ(t, w)
	case bREP:
		e.rpc.handleREP(t, w)
	case bACK:
		e.rpc.handleACK(t, w)
	case bgDATA, bgSYNC:
		if g := e.groupByGID(w.gid); g != nil {
			g.memberHandle(t, w)
		}
	case bRAW:
		if e.rawHandler != nil {
			e.rawHandler(t, w.from, w.payload, w.size)
		}
	}
}

// helper is a protocol service thread executing deferred actions
// (retransmissions, explicit acks, sync probes) scheduled by timers,
// which fire in driver context and cannot charge thread costs themselves.
type helper struct {
	t   *proc.Thread
	sem proc.Semaphore
	q   []func(t *proc.Thread)
}

func newHelper(p *proc.Processor) *helper {
	h := &helper{}
	h.t = p.NewThread("qp-timer", proc.PrioDaemon, h.loop)
	return h
}

func (h *helper) loop(t *proc.Thread) {
	for {
		h.sem.Down(t)
		fn := h.q[0]
		n := copy(h.q, h.q[1:])
		h.q[n] = nil
		h.q = h.q[:n]
		fn(t)
	}
}

// post enqueues an action from driver context (a timer callback).
func (h *helper) post(fn func(t *proc.Thread)) {
	h.q = append(h.q, fn)
	h.sem.UpFromDriver()
}
