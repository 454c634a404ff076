package panda

import (
	"errors"

	"amoebasim/internal/akernel"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrRPCFailed is returned by Call when retransmissions are exhausted.
var ErrRPCFailed = errors.New("panda: rpc failed after retries")

const rpcMaxRetries = 16

// userRPC is the Panda 2-way stop-and-wait RPC protocol. The reply acts as
// the implicit acknowledgement of the request; the client acknowledges the
// reply by piggybacking on its next request to the same server, falling
// back to an explicit acknowledgement after a timeout. Unlike the Amoeba
// kernel protocol, the reply may be sent asynchronously by any thread
// (pan_rpc_reply), which is what lets the Orca runtime use continuations.
type userRPC struct {
	u       *User
	handler RPCHandler
	chans   map[int]*uchan
	srv     map[int]*srvChan
}

// uchan is the client side of one (this process → server) channel:
// stop-and-wait, so callers serialize on it.
type uchan struct {
	dest       int
	mu         proc.Mutex
	cond       *proc.Cond
	busy       bool
	seq        uint64
	inflight   *ucall
	pendingAck uint64
	ackTimer   sim.Event
}

type ucall struct {
	t       *proc.Thread
	seq     uint64
	msgID   uint64
	op      uint64
	wire    *uwire
	timer   sim.Event
	armedAt sim.Time
	retries int
	reply   any
	repSize int
	err     error
	done    bool
}

// srvChan is the server side of one (client → this process) channel:
// duplicate filter plus the cached reply for retransmission.
type srvChan struct {
	lastSeq     uint64
	inFlight    uint64
	cached      *uwire
	cachedMsgID uint64
}

func (r *userRPC) init(u *User) {
	r.u = u
	r.chans = make(map[int]*uchan)
	r.srv = make(map[int]*srvChan)
}

func (r *userRPC) chanTo(dest int) *uchan {
	c := r.chans[dest]
	if c == nil {
		c = &uchan{dest: dest}
		c.cond = proc.NewCond(&c.mu)
		r.chans[dest] = c
	}
	return c
}

func (r *userRPC) srvFor(client int) *srvChan {
	s := r.srv[client]
	if s == nil {
		s = &srvChan{}
		r.srv[client] = s
	}
	return s
}

// Call implements Transport.Call for the user-space implementation.
func (u *User) Call(t *proc.Thread, dest int, req any, size int) (any, int, error) {
	r := &u.rpc
	c := r.chanTo(dest)

	// Stop-and-wait: one outstanding call per channel.
	c.mu.Lock(t)
	for c.busy {
		c.cond.Wait(t)
	}
	c.busy = true
	c.mu.Unlock(t)

	c.seq++
	ack := c.pendingAck
	c.pendingAck = 0
	if c.ackTimer.Pending() {
		u.sim.Cancel(c.ackTimer)
		c.ackTimer = sim.Event{}
	}
	op := t.Op()
	topLevel := op == 0
	if topLevel {
		op = u.sim.CausalBegin("rpc")
		t.SetOp(op)
	}
	w := &uwire{kind: uREQ, from: u.id, seq: c.seq, ackSeq: ack, payload: req, size: size}
	cs := &ucall{t: t, seq: c.seq, op: op, wire: w, msgID: u.k.RawNextMsgID()}
	c.inflight = cs

	if u.mx != nil {
		u.mx.rpcCalls.Inc()
		if ack > 0 {
			u.mx.acksPiggybacked.Inc()
		}
	}
	start := u.sim.Now()
	span := op
	if u.sim.Tracing() {
		if span != 0 {
			u.sim.SpanBeginWith(span, u.p.Name(), "prpc.req", "seq=%d dest=%d size=%d ack=%d", c.seq, dest, size, ack)
		} else {
			span = u.sim.SpanBegin(u.p.Name(), "prpc.req", "seq=%d dest=%d size=%d ack=%d", c.seq, dest, size, ack)
		}
	}
	t.Call(pandaDepth)
	t.ChargeP(sim.PhaseProtoSend, u.m.ProtoRPC)
	t.ChargeP(sim.PhaseFrag, u.m.FragLayer)
	u.k.RawSend(t, akernel.RawAddress(dest), cs.msgID, u.m.RPCHeaderUser, size, w, false)
	t.Return(pandaDepth)
	cs.timer = u.sim.Schedule(u.m.RetransTimeout, func() { r.clientTimeout(c, cs) })
	cs.armedAt = u.sim.Now()
	t.Block()

	// Woken by the receive daemon with the reply filled in.
	c.inflight = nil
	if u.mx != nil {
		u.mx.rpcLatency.Observe(u.sim.Now().Sub(start))
		if cs.err != nil {
			u.mx.rpcFailures.Inc()
		}
	}
	if u.sim.Tracing() {
		if cs.err != nil {
			u.sim.SpanEnd(span, u.p.Name(), "prpc.fail", "seq=%d err=%v", cs.seq, cs.err)
		} else {
			u.sim.SpanEnd(span, u.p.Name(), "prpc.done", "seq=%d size=%d", cs.seq, cs.repSize)
		}
	}
	if topLevel {
		u.sim.CausalEnd(op, cs.err != nil)
		t.SetOp(0)
	}
	if cs.err == nil {
		if u.cfg.NoPiggyback {
			// Ablation: acknowledge every reply explicitly, right away.
			r.sendExplicitAck(t, c.dest, cs.seq)
		} else {
			// Acknowledge the reply lazily: piggyback on the next request
			// to this server, or send an explicit ack after AckDelay.
			r.armLazyAck(c, cs.seq)
		}
	} else if ack > 0 {
		// The request carrying the piggybacked ack never provably reached
		// the server (the call failed); without redelivery the server
		// would retain its cached reply for the acked call indefinitely.
		// Restore the pending ack so the next request piggybacks it again,
		// or the ack timer sends it explicitly once the server is back.
		r.armLazyAck(c, ack)
	}

	c.mu.Lock(t)
	c.busy = false
	c.cond.Signal(t)
	c.mu.Unlock(t)
	return cs.reply, cs.repSize, cs.err
}

// armLazyAck records seq as the channel's pending reply acknowledgement
// and arms the explicit-ack fallback timer.
func (r *userRPC) armLazyAck(c *uchan, seq uint64) {
	u := r.u
	c.pendingAck = seq
	c.ackTimer = u.sim.Schedule(u.m.AckDelay, func() {
		c.ackTimer = sim.Event{}
		if c.pendingAck != seq {
			return
		}
		c.pendingAck = 0
		u.helper.post(func(ht *proc.Thread) { r.sendExplicitAck(ht, c.dest, seq) })
	})
}

func (r *userRPC) clientTimeout(c *uchan, cs *ucall) {
	if cs.done {
		return
	}
	// The armed window elapsed without a reply: retransmission idle.
	r.u.sim.CausalSpan(cs.op, sim.PhaseRetrans, cs.armedAt, r.u.sim.Now())
	cs.retries++
	if cs.retries > rpcMaxRetries {
		cs.err = ErrRPCFailed
		cs.done = true
		cs.t.Unblock()
		return
	}
	u := r.u
	if u.mx != nil {
		u.mx.rpcRetrans.Inc()
	}
	// Unanswered request: the kernel's cached route to the server may be
	// stale, so force a re-locate before retransmitting.
	u.k.RawInvalidateRoute(akernel.RawAddress(c.dest))
	u.helper.post(func(ht *proc.Thread) {
		if cs.done {
			return
		}
		ht.SetOp(cs.op)
		ht.Call(pandaDepth)
		ht.ChargeP(sim.PhaseProtoSend, u.m.ProtoRPC)
		ht.ChargeP(sim.PhaseFrag, u.m.FragLayer)
		u.k.RawSend(ht, akernel.RawAddress(c.dest), cs.msgID, u.m.RPCHeaderUser, cs.wire.size, cs.wire, false)
		ht.Return(pandaDepth)
		ht.SetOp(0)
	})
	cs.timer = u.sim.Schedule(u.m.RetransBackoff(cs.retries), func() { r.clientTimeout(c, cs) })
	cs.armedAt = u.sim.Now()
}

func (r *userRPC) sendExplicitAck(t *proc.Thread, dest int, seq uint64) {
	u := r.u
	if u.sim.Tracing() {
		u.sim.Trace(u.p.Name(), "prpc.ack", "explicit ack seq=%d dest=%d", seq, dest)
	}
	if u.mx != nil {
		u.mx.acksExplicit.Inc()
	}
	w := &uwire{kind: uACK, from: u.id, ackSeq: seq}
	t.Call(pandaDepth)
	t.Charge(u.m.ProtoRPC)
	u.k.RawSend(t, akernel.RawAddress(dest), u.k.RawNextMsgID(), u.m.RPCHeaderUser, 0, w, false)
	t.Return(pandaDepth)
}

// handleREQ runs in the receive daemon: duplicate-filter the request, then
// upcall the registered handler (implicit message receipt: no dedicated
// server thread is scheduled).
func (r *userRPC) handleREQ(t *proc.Thread, w *uwire) {
	u := r.u
	s := r.srvFor(w.from)
	if w.ackSeq > 0 && s.cached != nil && s.cached.seq == w.ackSeq {
		s.cached = nil // piggybacked ack of the previous reply
	}
	switch {
	case w.seq <= s.lastSeq:
		if s.cached != nil && s.cached.seq == w.seq {
			r.resendCached(t, w.from, s)
		}
		return
	case w.seq == s.inFlight:
		return // duplicate of a request still being served
	}
	s.inFlight = w.seq
	t.ChargeP(sim.PhaseProtoRecv, u.m.ProtoRPC)
	if u.sim.Tracing() {
		u.sim.Trace(u.p.Name(), "prpc.upcall", "seq=%d from=%d size=%d", w.seq, w.from, w.size)
	}
	if u.mx != nil {
		u.mx.rpcUpcalls.Inc()
	}
	if r.handler == nil {
		return
	}
	if u.sim.Tracing() {
		u.sim.SpanBeginWith(t.Op(), u.p.Name(), "prpc.serve", "seq=%d from=%d", w.seq, w.from)
	}
	ctx := &RPCContext{From: w.from, impl: &usrCtx{seq: w.seq, from: w.from, op: t.Op()}}
	r.handler(t, ctx, w.payload, w.size)
}

type usrCtx struct {
	seq  uint64
	from int
	op   uint64
}

// Reply implements Transport.Reply: the asynchronous pan_rpc_reply. Any
// thread may send it — in particular the thread that made a guarded
// operation's condition true, saving the context switch the kernel-space
// implementation cannot avoid.
func (u *User) Reply(t *proc.Thread, ctx *RPCContext, payload any, size int) {
	c, ok := ctx.impl.(*usrCtx)
	if !ok {
		panic("panda: Reply with foreign RPCContext")
	}
	r := &u.rpc
	s := r.srvFor(c.from)
	w := &uwire{kind: uREP, from: u.id, seq: c.seq, payload: payload, size: size}
	s.lastSeq = c.seq
	s.inFlight = 0
	s.cached = w
	s.cachedMsgID = u.k.RawNextMsgID()
	// The reply may be sent by a thread other than the one that served the
	// request (a continuation); attribute the send to the call's operation.
	prevOp := t.Op()
	t.SetOp(c.op)
	t.Call(pandaDepth)
	t.ChargeP(sim.PhaseProtoSend, u.m.ProtoRPC)
	t.ChargeP(sim.PhaseFrag, u.m.FragLayer)
	u.k.RawSend(t, akernel.RawAddress(c.from), s.cachedMsgID, u.m.RPCHeaderUser, size, w, false)
	t.Return(pandaDepth)
	if c.op != 0 && u.sim.Tracing() {
		u.sim.SpanEnd(c.op, u.p.Name(), "prpc.serve", "seq=%d", c.seq)
	}
	t.SetOp(prevOp)
}

func (r *userRPC) resendCached(t *proc.Thread, client int, s *srvChan) {
	u := r.u
	t.ChargeP(sim.PhaseProtoSend, u.m.ProtoRPC)
	t.ChargeP(sim.PhaseFrag, u.m.FragLayer)
	u.k.RawSend(t, akernel.RawAddress(client), s.cachedMsgID, u.m.RPCHeaderUser, s.cached.size, s.cached, false)
}

// handleREP runs in the receive daemon: match the outstanding call and
// wake the client thread. Waking requires a system call (threads are
// kernel-level), issued deep in the Panda stack — the source of the extra
// crossings and underflow traps the paper measures.
func (r *userRPC) handleREP(t *proc.Thread, w *uwire) {
	c := r.chans[w.from]
	if c == nil || c.inflight == nil {
		return
	}
	cs := c.inflight
	if cs.done || cs.seq != w.seq {
		return
	}
	cs.done = true
	r.u.sim.Cancel(cs.timer)
	cs.reply = w.payload
	cs.repSize = w.size
	t.ChargeP(sim.PhaseProtoRecv, r.u.m.ProtoRPC)
	if r.u.sim.Tracing() {
		r.u.sim.Trace(r.u.p.Name(), "prpc.rep", "seq=%d size=%d (daemon signals client)", w.seq, w.size)
	}
	t.Syscall()
	t.Flush()
	cs.t.Unblock()
}

func (r *userRPC) handleACK(t *proc.Thread, w *uwire) {
	s := r.srv[w.from]
	if s != nil && s.cached != nil && s.cached.seq == w.ackSeq {
		s.cached = nil
	}
}
