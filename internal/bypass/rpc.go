package bypass

import (
	"errors"

	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrRPCFailed is returned by Call when retransmissions are exhausted.
var ErrRPCFailed = errors.New("bypass: rpc failed after retries")

const rpcMaxRetries = 16

// bypassRPC is the Panda 2-way stop-and-wait RPC protocol running over
// the queue pair: same state machine as the user-space library (the reply
// implicitly acknowledges the request; the client acknowledges the reply
// by piggybacking on its next request, with a lazy explicit-ack
// fallback), but the packet path underneath has no syscall, no kernel
// FLIP layer, and no copies. Routes are static, so a timeout retransmits
// without any re-locate step.
type bypassRPC struct {
	e       *Endpoint
	handler panda.RPCHandler
	chans   map[int]*bchan
	srv     map[int]*bsrvChan
}

// bchan is the client side of one (this process → server) channel:
// stop-and-wait, so callers serialize on it.
type bchan struct {
	dest       int
	mu         proc.Mutex
	cond       *proc.Cond
	busy       bool
	seq        uint64
	inflight   *bcall
	pendingAck uint64
	ackTimer   sim.Event
}

type bcall struct {
	t       *proc.Thread
	seq     uint64
	msgID   uint64
	op      uint64
	wire    *bwire
	timer   sim.Event
	armedAt sim.Time
	retries int
	reply   any
	repSize int
	err     error
	done    bool
}

// bsrvChan is the server side of one (client → this process) channel:
// duplicate filter plus the cached reply for retransmission.
type bsrvChan struct {
	lastSeq     uint64
	inFlight    uint64
	cached      *bwire
	cachedMsgID uint64
}

func (r *bypassRPC) init(e *Endpoint) {
	r.e = e
	r.chans = make(map[int]*bchan)
	r.srv = make(map[int]*bsrvChan)
}

func (r *bypassRPC) chanTo(dest int) *bchan {
	c := r.chans[dest]
	if c == nil {
		c = &bchan{dest: dest}
		c.cond = proc.NewCond(&c.mu)
		r.chans[dest] = c
	}
	return c
}

func (r *bypassRPC) srvFor(client int) *bsrvChan {
	s := r.srv[client]
	if s == nil {
		s = &bsrvChan{}
		r.srv[client] = s
	}
	return s
}

// Call implements panda.Transport.Call for the bypass implementation.
func (e *Endpoint) Call(t *proc.Thread, dest int, req any, size int) (any, int, error) {
	r := &e.rpc
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
		e.sim.Cancel(c.ackTimer)
		c.ackTimer = sim.Event{}
	}
	op := t.Op()
	topLevel := op == 0
	if topLevel {
		op = e.sim.CausalBegin("rpc")
		t.SetOp(op)
	}
	w := &bwire{kind: bREQ, from: e.id, seq: c.seq, ackSeq: ack, payload: req, size: size}
	cs := &bcall{t: t, seq: c.seq, op: op, wire: w, msgID: e.nextMsgID()}
	c.inflight = cs

	span := op
	if e.sim.Tracing() {
		if span != 0 {
			e.sim.SpanBeginWith(span, e.p.Name(), "brpc.req", "seq=%d dest=%d size=%d ack=%d", c.seq, dest, size, ack)
		} else {
			span = e.sim.SpanBegin(e.p.Name(), "brpc.req", "seq=%d dest=%d size=%d ack=%d", c.seq, dest, size, ack)
		}
	}
	t.Call(bypassDepth)
	t.ChargeP(sim.PhaseProtoSend, e.m.ProtoRPC)
	e.post(t, dest, e.m.RPCHeaderUser, w, cs.msgID, false)
	t.Return(bypassDepth)
	cs.timer = e.sim.Schedule(e.m.RetransTimeout, func() { r.clientTimeout(c, cs) })
	cs.armedAt = e.sim.Now()
	t.Block()

	// Woken by the queue-pair consumer with the reply filled in.
	c.inflight = nil
	if e.sim.Tracing() {
		if cs.err != nil {
			e.sim.SpanEnd(span, e.p.Name(), "brpc.fail", "seq=%d err=%v", cs.seq, cs.err)
		} else {
			e.sim.SpanEnd(span, e.p.Name(), "brpc.done", "seq=%d size=%d", cs.seq, cs.repSize)
		}
	}
	if topLevel {
		e.sim.CausalEnd(op, cs.err != nil)
		t.SetOp(0)
	}
	if cs.err == nil {
		// Acknowledge the reply lazily: piggyback on the next request to
		// this server, or send an explicit ack after AckDelay.
		r.armLazyAck(c, cs.seq)
	} else if ack > 0 {
		// The request carrying the piggybacked ack never provably reached
		// the server; restore it so it is re-sent (see user_rpc.go).
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
func (r *bypassRPC) armLazyAck(c *bchan, seq uint64) {
	e := r.e
	c.pendingAck = seq
	c.ackTimer = e.sim.Schedule(e.m.AckDelay, func() {
		c.ackTimer = sim.Event{}
		if c.pendingAck != seq {
			return
		}
		c.pendingAck = 0
		e.helper.post(func(ht *proc.Thread) { r.sendExplicitAck(ht, c.dest, seq) })
	})
}

func (r *bypassRPC) clientTimeout(c *bchan, cs *bcall) {
	if cs.done {
		return
	}
	e := r.e
	// The armed window elapsed without a reply: retransmission idle.
	e.sim.CausalSpan(cs.op, sim.PhaseRetrans, cs.armedAt, e.sim.Now())
	cs.retries++
	if cs.retries > rpcMaxRetries {
		cs.err = ErrRPCFailed
		cs.done = true
		cs.t.Unblock()
		return
	}
	// Queue pairs are pre-established: retransmit directly, no re-locate.
	e.helper.post(func(ht *proc.Thread) {
		if cs.done {
			return
		}
		ht.SetOp(cs.op)
		ht.Call(bypassDepth)
		ht.ChargeP(sim.PhaseProtoSend, e.m.ProtoRPC)
		e.post(ht, c.dest, e.m.RPCHeaderUser, cs.wire, cs.msgID, false)
		ht.Return(bypassDepth)
		ht.SetOp(0)
	})
	cs.timer = e.sim.Schedule(e.m.RetransBackoff(cs.retries), func() { r.clientTimeout(c, cs) })
	cs.armedAt = e.sim.Now()
}

func (r *bypassRPC) sendExplicitAck(t *proc.Thread, dest int, seq uint64) {
	e := r.e
	if e.sim.Tracing() {
		e.sim.Trace(e.p.Name(), "brpc.ack", "explicit ack seq=%d dest=%d", seq, dest)
	}
	w := &bwire{kind: bACK, from: e.id, ackSeq: seq}
	t.Call(bypassDepth)
	t.Charge(e.m.ProtoRPC)
	e.post(t, dest, e.m.RPCHeaderUser, w, e.nextMsgID(), false)
	t.Return(bypassDepth)
}

// handleREQ runs in the queue-pair consumer: duplicate-filter the
// request, then upcall the registered handler (implicit receipt).
func (r *bypassRPC) handleREQ(t *proc.Thread, w *bwire) {
	e := r.e
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
	t.ChargeP(sim.PhaseProtoRecv, e.m.ProtoRPC)
	if e.sim.Tracing() {
		e.sim.Trace(e.p.Name(), "brpc.upcall", "seq=%d from=%d size=%d", w.seq, w.from, w.size)
	}
	if r.handler == nil {
		return
	}
	if e.sim.Tracing() {
		e.sim.SpanBeginWith(t.Op(), e.p.Name(), "brpc.serve", "seq=%d from=%d", w.seq, w.from)
	}
	ctx := panda.NewRPCContext(w.from, &bypCtx{seq: w.seq, from: w.from, op: t.Op()})
	r.handler(t, ctx, w.payload, w.size)
}

type bypCtx struct {
	seq  uint64
	from int
	op   uint64
}

// Reply implements panda.Transport.Reply: the asynchronous reply, sent
// from whichever thread completes the request.
func (e *Endpoint) Reply(t *proc.Thread, ctx *panda.RPCContext, payload any, size int) {
	c, ok := ctx.Impl().(*bypCtx)
	if !ok {
		panic("bypass: Reply with foreign RPCContext")
	}
	r := &e.rpc
	s := r.srvFor(c.from)
	w := &bwire{kind: bREP, from: e.id, seq: c.seq, payload: payload, size: size}
	s.lastSeq = c.seq
	s.inFlight = 0
	s.cached = w
	s.cachedMsgID = e.nextMsgID()
	// The reply may be sent by a thread other than the one that served the
	// request (a continuation); attribute the send to the call's operation.
	prevOp := t.Op()
	t.SetOp(c.op)
	t.Call(bypassDepth)
	t.ChargeP(sim.PhaseProtoSend, e.m.ProtoRPC)
	e.post(t, c.from, e.m.RPCHeaderUser, w, s.cachedMsgID, false)
	t.Return(bypassDepth)
	if c.op != 0 && e.sim.Tracing() {
		e.sim.SpanEnd(c.op, e.p.Name(), "brpc.serve", "seq=%d", c.seq)
	}
	t.SetOp(prevOp)
}

func (r *bypassRPC) resendCached(t *proc.Thread, client int, s *bsrvChan) {
	e := r.e
	t.ChargeP(sim.PhaseProtoSend, e.m.ProtoRPC)
	e.post(t, client, e.m.RPCHeaderUser, s.cached, s.cachedMsgID, false)
}

// handleREP runs in the queue-pair consumer: match the outstanding call
// and wake the client thread. No system call is needed — the consumer
// hands the processor straight to the client (a direct resume), which is
// the crossing the user-space column cannot avoid.
func (r *bypassRPC) handleREP(t *proc.Thread, w *bwire) {
	c := r.chans[w.from]
	if c == nil || c.inflight == nil {
		return
	}
	cs := c.inflight
	if cs.done || cs.seq != w.seq {
		return
	}
	cs.done = true
	r.e.sim.Cancel(cs.timer)
	cs.reply = w.payload
	cs.repSize = w.size
	t.ChargeP(sim.PhaseProtoRecv, r.e.m.ProtoRPC)
	if r.e.sim.Tracing() {
		r.e.sim.Trace(r.e.p.Name(), "brpc.rep", "seq=%d size=%d (consumer resumes client)", w.seq, w.size)
	}
	t.Flush()
	cs.t.UnblockDirect()
}

func (r *bypassRPC) handleACK(t *proc.Thread, w *bwire) {
	s := r.srv[w.from]
	if s != nil && s.cached != nil && s.cached.seq == w.ackSeq {
		s.cached = nil
	}
}
