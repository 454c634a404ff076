package akernel

import (
	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// rawModule is the Amoeba kernel extension that exposes the low-level FLIP
// interface to user space. The Panda user-space implementation is built
// entirely on these syscalls. The paper notes this extension "has not yet
// been optimized" (user-to-kernel address translation); RawPathOverhead in
// the cost model captures that residual per-packet cost.
type rawModule struct {
	k       *Kernel
	queue   []rawEntry
	waiters []*rawWaiter
	free    []*rawWaiter // waiters whose receive has returned
	discard func(*flip.Packet) bool
}

// rawEntry is one queued packet plus its enqueue instant, so the time it
// waits for the user-space daemon can be causally attributed.
type rawEntry struct {
	pk *flip.Packet
	at sim.Time
}

type rawWaiter struct {
	t     *proc.Thread
	match func(*flip.Packet) bool
	pk    *flip.Packet
}

func newRawModule(k *Kernel) *rawModule {
	return &rawModule{k: k}
}

// RawRegister announces this kernel's user-space FLIP endpoint.
func (k *Kernel) RawRegister() { k.flip.Register(RawAddress(k.id)) }

// RawJoinGroup subscribes the user-space endpoint to a FLIP group address.
func (k *Kernel) RawJoinGroup(a flip.Address) { k.flip.JoinGroup(a) }

// RawDiscard installs a kernel-level drop filter: incoming user-space
// packets matching it are discarded in the interrupt handler without
// waking any thread. A dedicated sequencer machine uses it to ignore
// member traffic it subscribed to only as a side effect of joining the
// group address.
func (k *Kernel) RawDiscard(match func(*flip.Packet) bool) { k.raw.discard = match }

// RawNextMsgID allocates a FLIP message id (local bookkeeping, no
// crossing).
func (k *Kernel) RawNextMsgID() uint64 { return k.flip.NextMsgID() }

// RawInvalidateRoute drops the kernel's cached FLIP route for dst so the
// next RawSend re-locates it. User-space protocols call it when they
// retransmit (local bookkeeping, no crossing).
func (k *Kernel) RawInvalidateRoute(dst flip.Address) { k.flip.InvalidateRoute(dst) }

// RawSend transmits a message through FLIP from user space: one syscall,
// a user-to-kernel copy, and the per-packet FLIP send processing, all
// charged to the calling thread. Reuse msgID across retransmissions. The
// message is attributed to the thread's current causal operation.
func (k *Kernel) RawSend(t *proc.Thread, dst flip.Address, msgID uint64, hdr, size int, payload any, multicast bool) {
	k.enterKernel(t)
	t.ChargeP(sim.PhaseCrossing, k.m.RawPathOverhead)
	k.flip.SendFromThread(t, flip.Message{
		Src: RawAddress(k.id), Dst: dst, Proto: flip.ProtoSystem,
		MsgID: msgID, Hdr: hdr, Size: size, Payload: payload,
		Multicast: multicast, Op: t.Op(),
	})
	k.leaveKernel(t)
}

// RawReceiver binds the raw receive of one user-space thread. The
// function it returns blocks the calling thread until a FLIP packet
// satisfying match (nil matches everything) arrives for the user-space
// endpoint, copies it to user space, adds it to r, recycles the packet,
// and returns its payload and whether it completed its message. FLIP
// fragments large messages, so a user-space thread receives packets, not
// messages: reassembly happens in user space. The match lets a protocol
// thread, such as the Panda sequencer, block directly on its own traffic,
// so that an arriving packet dispatches it straight out of the interrupt
// handler. The time a packet waited in the raw queue is attributed to
// phase wait, which the caller picks for its own traffic. The receive is
// the returned function itself, with no frame of its own below it: a
// receive thread's stack holds one frame between its loop and Block.
func (k *Kernel) RawReceiver(match func(*flip.Packet) bool, wait sim.PhaseID, r *flip.Reassembler) func(t *proc.Thread) (payload any, done bool) {
	raw := k.raw
	return func(t *proc.Thread) (any, bool) {
		k.enterKernel(t)
		var pk *flip.Packet
		for i, q := range raw.queue {
			if match == nil || match(q.pk) {
				pk = q.pk
				// The packet sat in the raw queue from enqueue to this pickup.
				k.sim.CausalSpan(pk.Op, wait, q.at, k.sim.Now())
				last := len(raw.queue) - 1
				copy(raw.queue[i:], raw.queue[i+1:])
				raw.queue[last] = rawEntry{} // clear the vacated slot so the packet can be GC'd
				raw.queue = raw.queue[:last]
				if k.mx != nil {
					k.mx.rawQueueDepth.Set(int64(len(raw.queue)))
				}
				break
			}
		}
		if pk == nil {
			var w *rawWaiter
			if n := len(raw.free); n > 0 {
				w = raw.free[n-1]
				raw.free = raw.free[:n-1]
			} else {
				w = &rawWaiter{}
			}
			w.t, w.match = t, match
			raw.waiters = append(raw.waiters, w)
			t.Block()
			// Only onPacket wakes a raw waiter, after taking it off the list:
			// once Block returns nothing else holds w.
			pk = w.pk
			*w = rawWaiter{}
			raw.free = append(raw.free, w)
		}
		t.SetOp(pk.Op)
		t.ChargeP(sim.PhaseCrossing, k.m.RawPathOverhead)
		t.CopyBytes(pk.Length)
		k.leaveKernel(t)
		done := r.Add(pk)
		payload := pk.Payload
		k.flip.ReleasePacket(pk)
		return payload, done
	}
}

// onPacket queues an incoming FLIP packet for user space and wakes the
// receive daemon. The dispatch of the daemon thread out of interrupt
// context is the cost the paper's user-space analysis centers on.
func (r *rawModule) onPacket(pk *flip.Packet) {
	if r.discard != nil && r.discard(pk) {
		return
	}
	// The packet outlives this upcall — it sits in the raw queue or rides
	// a waiter handoff until a daemon thread picks it up.
	pk.Retain()
	for i, w := range r.waiters {
		if w.match != nil && !w.match(pk) {
			continue
		}
		last := len(r.waiters) - 1
		copy(r.waiters[i:], r.waiters[i+1:])
		r.waiters[last] = nil // clear the vacated slot (it pins thread + packet)
		r.waiters = r.waiters[:last]
		w.pk = pk
		w.t.SetOp(pk.Op)
		w.t.Unblock()
		return
	}
	r.queue = append(r.queue, rawEntry{pk: pk, at: r.k.sim.Now()})
	if r.k.mx != nil {
		r.k.mx.rawQueueDepth.Set(int64(len(r.queue)))
	}
}
