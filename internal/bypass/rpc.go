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
// stop-and-wait, so callers serialize on it, and one call record, two
// bound timer callbacks and one request wire serve all its calls (see
// panda's uchan).
type bchan struct {
	dest       int
	mu         proc.Mutex
	cond       *proc.Cond
	busy       bool
	seq        uint64
	call       bcall
	inflight   *bcall // &call while a call waits for its reply
	pendingAck uint64
	ackSeq     uint64 // the reply the armed ack timer acknowledges
	ackTimer   sim.Event
	reqWire    *bwire // the last request's wire, once provably consumed

	timeoutFn func() // clientTimeout, bound to the channel
	ackFn     func() // ackTimeout, bound to the channel
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
// duplicate filter plus the cached reply for retransmission, and the
// context and reply wire its requests reuse (see panda's srvChan).
type bsrvChan struct {
	lastSeq     uint64
	inFlight    uint64
	cached      *bwire
	cachedMsgID uint64
	resent      bool // the cached reply went out more than once

	ctx     *panda.RPCContext // lent out while ctxBusy
	bctx    bypCtx
	ctxBusy bool
	repWire *bwire // an acknowledged reply's wire, once provably consumed
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
		c.timeoutFn = func() { r.clientTimeout(c) }
		c.ackFn = func() { r.ackTimeout(c) }
		r.chans[dest] = c
	}
	return c
}

func (r *bypassRPC) srvFor(client int) *bsrvChan {
	s := r.srv[client]
	if s == nil {
		s = &bsrvChan{}
		s.ctx = panda.NewRPCContext(client, &s.bctx)
		r.srv[client] = s
	}
	return s
}

// reusable reports whether a wire that exactly one message carried, and
// whose receiver has consumed that message, may carry the next one: not
// once a fault hook, which may deliver a frame twice, was ever armed.
func (r *bypassRPC) reusable() bool { return !r.e.net.FaultEverArmed() }

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
	w := c.reqWire
	if w == nil {
		w = new(bwire)
	}
	c.reqWire = nil
	*w = bwire{kind: bREQ, from: e.id, seq: c.seq, ackSeq: ack, payload: req, size: size}
	cs := &c.call
	*cs = bcall{t: t, seq: c.seq, op: op, wire: w, msgID: e.nextMsgID()}
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
	cs.timer = e.sim.Schedule(e.m.RetransTimeout, c.timeoutFn)
	cs.armedAt = e.sim.Now()
	t.Block()

	// Woken by the queue-pair consumer with the reply filled in.
	c.inflight = nil
	if cs.err == nil && cs.retries == 0 && r.reusable() {
		// The one copy of the request was served: the server has read it.
		c.reqWire = w
	}
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

	reply, repSize, err := cs.reply, cs.repSize, cs.err
	cs.reply = nil
	c.mu.Lock(t)
	c.busy = false
	c.cond.Signal(t)
	c.mu.Unlock(t)
	return reply, repSize, err
}

// armLazyAck records seq as the channel's pending reply acknowledgement
// and arms the explicit-ack fallback timer. A call cancels the timer
// before its own call to armLazyAck, so at most one is pending.
func (r *bypassRPC) armLazyAck(c *bchan, seq uint64) {
	c.pendingAck = seq
	c.ackSeq = seq
	c.ackTimer = r.e.sim.Schedule(r.e.m.AckDelay, c.ackFn)
}

// ackTimeout sends the explicit acknowledgement of a reply no request
// piggybacked within AckDelay.
func (r *bypassRPC) ackTimeout(c *bchan) {
	c.ackTimer = sim.Event{}
	seq := c.ackSeq
	if c.pendingAck != seq {
		return
	}
	c.pendingAck = 0
	r.e.helper.post(func(ht *proc.Thread) { r.sendExplicitAck(ht, c.dest, seq) })
}

func (r *bypassRPC) clientTimeout(c *bchan) {
	cs := &c.call
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
	seq := cs.seq
	e.helper.post(func(ht *proc.Thread) {
		// The record is the channel's: a later call may have taken it.
		if cs.done || cs.seq != seq {
			return
		}
		ht.SetOp(cs.op)
		ht.Call(bypassDepth)
		ht.ChargeP(sim.PhaseProtoSend, e.m.ProtoRPC)
		e.post(ht, c.dest, e.m.RPCHeaderUser, cs.wire, cs.msgID, false)
		ht.Return(bypassDepth)
		ht.SetOp(0)
	})
	cs.timer = e.sim.Schedule(e.m.RetransBackoff(cs.retries), c.timeoutFn)
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
		r.acked(s) // piggybacked ack of the previous reply
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
	ctx := s.ctx
	if s.ctxBusy {
		// The previous request is still in service, after its client gave
		// up on it: its handler still holds the channel's context.
		ctx = panda.NewRPCContext(w.from, &bypCtx{})
	} else {
		s.ctxBusy = true
	}
	*ctx.Impl().(*bypCtx) = bypCtx{seq: w.seq, from: w.from, op: t.Op()}
	r.handler(t, ctx, w.payload, w.size)
}

// acked drops the channel's cached reply, which its client has
// acknowledged, keeping its wire for the next reply when the reply went
// out only once.
func (r *bypassRPC) acked(s *bsrvChan) {
	if !s.resent && r.reusable() {
		s.repWire = s.cached
	}
	s.cached = nil
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
	w := s.repWire
	if w == nil {
		w = new(bwire)
	}
	s.repWire = nil
	*w = bwire{kind: bREP, from: e.id, seq: c.seq, payload: payload, size: size}
	s.lastSeq = c.seq
	s.inFlight = 0
	s.cached = w
	s.resent = false
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
	if c == &s.bctx {
		s.ctxBusy = false // done with c
	}
}

func (r *bypassRPC) resendCached(t *proc.Thread, client int, s *bsrvChan) {
	e := r.e
	s.resent = true
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
		r.acked(s)
	}
}
