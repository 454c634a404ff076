package akernel

import (
	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// rawWaiter is a user-space thread parked in a raw receive. Each bound
// receive owns one.
type rawWaiter struct {
	t     *proc.Thread
	match func(*flip.Packet) bool
	pk    *flip.Packet // the packet onRawPacket handed over
}

// Accepts reports whether the receive takes pk.
func (w *rawWaiter) Accepts(pk *flip.Packet) bool { return w.match == nil || w.match(pk) }

// RawRegister announces this kernel's user-space FLIP endpoint.
func (k *Kernel) RawRegister() { k.flip.Register(RawAddress(k.id)) }

// RawJoinGroup subscribes the user-space endpoint to a FLIP group address.
func (k *Kernel) RawJoinGroup(a flip.Address) { k.flip.JoinGroup(a) }

// RawDiscard installs a kernel-level drop filter: incoming user-space
// packets matching it are discarded in the interrupt handler without
// waking any thread. A dedicated sequencer machine uses it to ignore
// member traffic it subscribed to only as a side effect of joining the
// group address.
func (k *Kernel) RawDiscard(match func(*flip.Packet) bool) { k.rawDiscard = match }

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
	w := &rawWaiter{match: match}
	return func(t *proc.Thread) (any, bool) {
		k.enterKernel(t)
		pk, at, ok := k.rawq.Take(w)
		if ok {
			// The packet sat in the raw queue from enqueue to this pickup.
			k.sim.CausalSpan(pk.Op, wait, at, k.sim.Now())
			if k.mx != nil {
				k.mx.rawQueueDepth.Set(int64(k.rawq.Len()))
			}
		} else {
			w.t = t
			k.rawq.Wait(w)
			t.Block()
			// Only onRawPacket wakes a raw waiter, after taking it off the
			// queue: once Block returns nothing else holds w.
			pk, w.pk = w.pk, nil
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

// onRawPacket queues an incoming FLIP packet for user space, or hands it
// to a parked receive and wakes its thread. The dispatch of the daemon
// thread out of interrupt context is the cost the paper's user-space
// analysis centers on.
func (k *Kernel) onRawPacket(pk *flip.Packet) {
	if k.rawDiscard != nil && k.rawDiscard(pk) {
		return
	}
	// The packet outlives this upcall — it sits in the raw queue or rides
	// a waiter handoff until a daemon thread picks it up.
	pk.Retain()
	if w, ok := k.rawq.Put(pk, k.sim.Now()); ok {
		w.pk = pk
		w.t.SetOp(pk.Op)
		w.t.Unblock()
		return
	}
	if k.mx != nil {
		k.mx.rawQueueDepth.Set(int64(k.rawq.Len()))
	}
}
