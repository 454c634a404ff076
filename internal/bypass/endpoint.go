// Package bypass is the third Panda implementation column: the RPC and
// totally-ordered group protocols of the user-space library running over a
// user-mapped NIC queue pair instead of the kernel's raw FLIP interface.
// Sends post descriptors pointing straight at application buffers and ring
// a doorbell — no syscall crossing, no kernel copy, no fragmentation-layer
// copy (the NIC gather-reads the buffer per fragment). Receives are
// consumed from a completion queue by polling, by a NIC interrupt, or by a
// hybrid of the two (see Dispatch).
//
// The endpoint embeds panda's user-level library, the same code user
// space runs: the RPC and group cores, the receive thread (here the
// completion-queue consumer) with its dispatch, and one sequencer thread
// per group the endpoint sequences. The endpoint supplies only the
// library's port (qpLink): descriptor posting and its free list, the
// completion queue with its poll/interrupt/hybrid wake, multicast
// steering and loopback. Messages are panda.Wire values, carried by
// reference. Groups use the PB method only: because fragmentation
// gather-reads the application buffer, the BB method's reason to exist —
// avoiding a second copy of large messages through the sequencer —
// disappears, so large messages take the same path as small ones.
//
// Compared to the user-space column, the per-packet path drops the
// syscall, the raw-interface translation overhead, the kernel FLIP layer
// and every byte copy; what remains is the protocol state machine itself,
// a per-packet descriptor cost, and the doorbell write. Routes are static
// (queue pairs are pre-established to every peer), so there is no locate
// traffic either. A bypass processor boots no kernel: its queue pair is
// its only NIC, and processor i's is NIC i.
package bypass

import (
	"amoebasim/internal/ether"
	"amoebasim/internal/flip"
	"amoebasim/internal/model"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// qpLink is the endpoint seen as the port of its library: the queue
// pair, with no syscall, no kernel FLIP layer and no copies.
type qpLink Endpoint

func (l *qpLink) SendWire(t *proc.Thread, dest int, w *panda.Wire, msgID uint64) {
	(*Endpoint)(l).post(t, dest, l.m.RPCHeaderUser, w, msgID, false)
}

// SendGroupWire posts w to processor dest, or to every endpoint when dest
// is -1.
func (l *qpLink) SendGroupWire(t *proc.Thread, dest int, w *panda.Wire, msgID uint64) {
	(*Endpoint)(l).post(t, dest, l.m.GroupHeaderUser, w, msgID, dest < 0)
}

func (l *qpLink) NextMsgID() uint64 { return (*Endpoint)(l).nextMsgID() }

// BeforeRetransmit does nothing: queue pairs are pre-established, so a
// retransmission needs no re-locate.
func (l *qpLink) BeforeRetransmit(int) {}

// WakeCaller needs no system call: the consumer hands the processor
// straight to the client, or to the sender whose group message came back
// (a direct resume), which is the crossing the user-space column cannot
// avoid.
func (l *qpLink) WakeCaller(t, caller *proc.Thread) {
	t.Flush()
	caller.UnblockDirect()
}

// SendSystem posts w to processor dest, or to every endpoint when dest
// is -1.
func (l *qpLink) SendSystem(t *proc.Thread, dest int, w *panda.Wire, msgID uint64, hdr int) {
	(*Endpoint)(l).post(t, dest, hdr, w, msgID, dest < 0)
}

// Discard installs drop as the QP's receive filter, which runs before
// any completion-queue entry is made. The endpoint is then a dedicated
// sequencer machine, whose pickups pay no shared-machine dispatch.
func (l *qpLink) Discard(drop func(*panda.Wire) bool) { l.discard = drop }

// Config configures one bypass endpoint.
type Config struct {
	// Groups lists the communication groups this endpoint participates in
	// (as member, sequencer, or both).
	Groups []panda.GroupSpec
	// Dispatch selects the completion-queue dispatch mode (zero: Poll).
	Dispatch Dispatch
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

	rxq     []rxEntry
	waiters []*waiter
	free    []*waiter // waiters whose receive has returned
	// discard is the receive filter of a dedicated sequencer machine, nil
	// on every other endpoint.
	discard func(*panda.Wire) bool
	msgSeq  uint64

	// frags is the free list of unicast descriptors that the endpoints on
	// one simulator share: the consumer of a descriptor returns it there
	// once reassembly has read it (freeFrag).
	frags *fragPool

	panda.Library // over the queue pair (qpLink)
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
	match  func(*panda.Wire) bool
	ph     sim.PhaseID // service phase (PhaseSeqService for sequencer threads)
	at     sim.Time    // park instant, for spin accounting
	f      *bfrag
	polled bool // woken on the poll path (charge the poll probe on resume)
}

// New creates and starts a bypass endpoint on processor p, attaching its
// queue-pair NIC to the given Ethernet segment. Endpoints are made in
// processor order on a network with no other NIC, so that processor i's
// queue pair is NIC i, the id its peers address.
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
	e.frags = e.sim.Shared(fragPoolKey{}, func() any { return new(fragPool) }).(*fragPool)
	e.Start(p, net, (*qpLink)(e), panda.Bypass, cfg.Groups)
	return e, nil
}

// Dispatch reports the endpoint's completion-queue dispatch mode.
func (e *Endpoint) Dispatch() Dispatch { return e.cfg.Dispatch }

func (e *Endpoint) nextMsgID() uint64 {
	e.msgSeq++
	return e.msgSeq
}

// fragPool is the free list of unicast descriptors that the endpoints on
// one simulator share (see Endpoint.frags), keyed there by fragPoolKey.
type fragPool struct{ free []*bfrag }

type fragPoolKey struct{}

// maxPooledFrags bounds a descriptor free list, as flip's
// maxPooledPackets bounds its packet lists.
const maxPooledFrags = 256

// freeFrag recycles a pooled descriptor. Its consumer calls it once
// reassembly has read it: a unicast frame reaches one endpoint once, so
// nothing else holds the descriptor. A multicast or loopback descriptor
// is shared by reference and never pooled, and no descriptor is once a
// fault hook, which may deliver a frame twice, was ever armed.
func (e *Endpoint) freeFrag(f *bfrag) {
	if !f.pooled || len(e.frags.free) >= maxPooledFrags || e.net.FaultEverArmed() {
		return
	}
	*f = bfrag{}
	e.frags.free = append(e.frags.free, f)
}

// ---- Send path ----

// post transmits a message: per fragment, build a descriptor pointing at
// the application buffer (no copy — the NIC gather-reads it), ring the
// doorbell, and hand the frame to the wire. No syscall, no kernel layer.
func (e *Endpoint) post(t *proc.Thread, dst int, hdr int, w *panda.Wire, msgID uint64, multicast bool) {
	cap0 := e.m.MTU - e.m.BypassHeaderBytes
	n := 1
	if w.Size > 0 {
		n = (w.Size + cap0 - 1) / cap0
	}
	pooled := !multicast && dst != e.id && !e.net.FaultEverArmed()
	off := 0
	for i := 0; i < n; i++ {
		length := w.Size - off
		if length > cap0 {
			length = cap0
		}
		var f *bfrag
		if k := len(e.frags.free); pooled && k > 0 {
			f, e.frags.free = e.frags.free[k-1], e.frags.free[:k-1]
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
			e.nic.Send(ether.Frame{Dst: dst, Size: size, Payload: f, Op: f.op})
		}
		off += length
	}
}

// ---- Receive path ----

// onFrame is the NIC receive upcall: the device DMA-writes the fragment
// into a posted receive buffer and appends a completion-queue entry. No
// CPU cost accrues until a consumer picks the entry up.
func (e *Endpoint) onFrame(fr ether.Frame) {
	f, ok := fr.Payload.(*bfrag)
	if !ok {
		return // not a queue-pair descriptor
	}
	e.deliver(f)
}

// deliver routes one completion-queue entry: straight to a matching
// parked consumer (waking it per the dispatch mode), or onto the queue.
// Runs in driver context.
func (e *Endpoint) deliver(f *bfrag) {
	if e.discard != nil && e.discard(f.w) {
		e.freeFrag(f)
		return
	}
	if f.dst < 0 {
		// Multicast: group data for a group this endpoint does not hold is
		// filtered by the QP's steering table.
		if f.w.Kind != panda.WireRAW && !e.Holds(f.w.GID) {
			return
		}
	}
	for i, w := range e.waiters {
		if w.match != nil && !w.match(f.w) {
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

// Receiver binds a consumer of the completion queue. The function it
// returns blocks t until an entry whose wire satisfies match (nil: any)
// is available, consumes it, and reassembles it in user space. seq marks
// a sequencer thread: its service is sequencer service, which an
// interrupt wake-up is tagged with, and its queue wait is sequencer
// queueing.
func (l *qpLink) Receiver(match func(*panda.Wire) bool, seq bool, r *flip.Reassembler) func(t *proc.Thread) (any, bool) {
	e := (*Endpoint)(l)
	ph, wait := sim.PhaseProtoRecv, sim.PhaseRecvQueue
	if seq {
		ph, wait = sim.PhaseSeqService, sim.PhaseSeqQueue
	}
	return func(t *proc.Thread) (any, bool) {
		var f *bfrag
		for i, q := range e.rxq {
			if match == nil || match(q.f.w) {
				f = q.f
				e.sim.CausalSpan(f.op, wait, q.at, e.sim.Now())
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
			if e.discard == nil && f.frag == 0 {
				t.ChargeP(sim.PhaseSched, e.m.BypassSharedDispatch)
			}
			if e.cfg.Dispatch != Interrupt {
				t.ChargeP(sim.PhasePollSpin, e.m.PollCheck)
			}
		}
		t.SetOp(f.op)
		t.ChargeP(sim.PhaseProtoRecv, e.m.BypassRxPacket)
		w, done := f.w, reassemble(r, f)
		e.freeFrag(f)
		return w, done
	}
}
