package panda

import (
	"errors"

	"amoebasim/internal/ether"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrRPCFailed is returned by Call when retransmissions are exhausted.
var ErrRPCFailed = errors.New("panda: rpc failed after retries")

const rpcMaxRetries = 16

// RPC is the Panda 2-way stop-and-wait RPC protocol, one state machine
// for every placement that runs it over its own packet path (Link).
// The reply acts as the implicit acknowledgement of the request; the
// client acknowledges the reply by piggybacking on its next request to
// the same server, falling back to an explicit acknowledgement after a
// timeout. Unlike the Amoeba kernel protocol, the reply may be sent
// asynchronously by any thread (pan_rpc_reply), which is what lets the
// Orca runtime use continuations. A placement embeds it, so Call, Reply
// and HandleRPC are the placement's own, and its receive thread passes
// each received RPC wire straight to OnRequest, OnReply or OnAck: the
// reply path runs close to a 2 KiB coroutine stack, and one more frame
// there doubles the stacks of a 1000-processor run's receive daemons.
type RPC struct {
	link   Link
	pl     *Placement
	p      *proc.Processor
	sim    *sim.Sim
	m      *model.CostModel
	net    *ether.Network
	helper *Helper
	id     int

	noPiggyback bool        // acknowledge every reply at once (ablation)
	mx          *rpcMetrics // nil when no metrics are registered

	handler RPCHandler
	chans   map[int]*rpcChan
	srv     map[int]*srvChan
}

// rpcMetrics is the RPC core's metrics. User space and bypass register
// them, as part of Metrics.
type rpcMetrics struct {
	calls           metrics.Counter   `metric:"panda.rpc_calls"`
	retrans         metrics.Counter   `metric:"panda.rpc_retransmissions"`
	upcalls         metrics.Counter   `metric:"panda.rpc_upcalls"`
	failures        metrics.Counter   `metric:"panda.rpc_failures"`
	acksPiggybacked metrics.Counter   `metric:"panda.acks_piggybacked"`
	acksExplicit    metrics.Counter   `metric:"panda.acks_explicit"`
	latency         metrics.Histogram `metric:"panda.rpc_latency_us"`
}

// InitRPC readies r, the RPC core a placement embeds, on processor p:
// link carries its wires over net, helper runs the sends its timers
// defer, and pl fixes its call depth and trace names.
func InitRPC(r *RPC, p *proc.Processor, net *ether.Network, link Link, helper *Helper, pl *Placement) {
	*r = RPC{
		link: link, pl: pl, p: p, sim: p.Sim(), m: p.Model(), net: net, helper: helper, id: p.ID(),
		chans: make(map[int]*rpcChan),
		srv:   make(map[int]*srvChan),
	}
}

// rpcChan is the client side of one (this process → server) channel:
// stop-and-wait, so callers serialize on it, and one call record, two
// bound timer callbacks, two bound helper actions and one request wire
// serve all its calls.
type rpcChan struct {
	dest       int
	mu         proc.Mutex
	cond       *proc.Cond
	busy       bool
	seq        uint64
	call       rpcCall
	inflight   *rpcCall // &call while a call waits for its reply
	pendingAck uint64
	ackSeq     uint64 // the reply the armed ack timer acknowledges
	ackTimer   sim.Event
	// reqWire is the last request's wire, kept once the request was
	// provably consumed (see reusable), else nil.
	reqWire *Wire

	timeoutFn func()                     // clientTimeout, bound to the channel
	ackFn     func()                     // ackTimeout, bound to the channel
	resendFn  func(*proc.Thread, uint64) // resend, bound to the channel
	sendAckFn func(*proc.Thread, uint64) // sendExplicitAck to dest, bound to the channel
}

type rpcCall struct {
	t       *proc.Thread
	seq     uint64
	msgID   uint64
	op      uint64
	wire    *Wire
	timer   sim.Event
	armedAt sim.Time
	retries int
	reply   any
	repSize int
	err     error
	done    bool
}

// srvChan is the server side of one (client → this process) channel:
// duplicate filter plus the cached reply for retransmission, and the
// context and reply wire its requests reuse.
type srvChan struct {
	lastSeq     uint64 // the newest request answered
	inFlight    uint64
	cached      *Wire // the reply to lastSeq, until acknowledged
	cachedMsgID uint64
	resent      bool // the cached reply went out more than once

	// ctx is the context of the request being served, lent out while
	// ctxBusy; a request that finds it lent gets a fresh one.
	ctx     RPCContext
	rctx    rpcCtx
	ctxBusy bool
	// repWire is an acknowledged reply's wire, kept once the reply was
	// provably consumed (see reusable), else nil.
	repWire *Wire
}

type rpcCtx struct {
	seq  uint64
	from int
	op   uint64
}

func (r *RPC) chanTo(dest int) *rpcChan {
	c := r.chans[dest]
	if c == nil {
		c = &rpcChan{dest: dest}
		c.cond = proc.NewCond(&c.mu)
		c.timeoutFn = func() { r.clientTimeout(c) }
		c.ackFn = func() { r.ackTimeout(c) }
		c.resendFn = func(ht *proc.Thread, seq uint64) { r.resend(ht, c, seq) }
		c.sendAckFn = func(ht *proc.Thread, seq uint64) { r.sendExplicitAck(ht, dest, seq) }
		r.chans[dest] = c
	}
	return c
}

func (r *RPC) srvFor(client int) *srvChan {
	s := r.srv[client]
	if s == nil {
		s = &srvChan{}
		s.ctx.impl = &s.rctx
		r.srv[client] = s
	}
	return s
}

// reusable reports whether a wire that exactly one message carried, and
// whose receiver has consumed that message, may carry the next one. A
// fault hook, once armed, may have delivered the message twice, so no
// wire is reused on such a network: the second delivery would read the
// next message.
func (r *RPC) reusable() bool { return !r.net.FaultEverArmed() }

// HandleRPC registers the RPC request upcall.
func (r *RPC) HandleRPC(h RPCHandler) { r.handler = h }

// Call implements Transport.Call.
func (r *RPC) Call(t *proc.Thread, dest int, req any, size int) (any, int, error) {
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
		r.sim.Cancel(c.ackTimer)
		c.ackTimer = sim.Event{}
	}
	op := t.Op()
	topLevel := op == 0
	if topLevel {
		op = r.sim.CausalBegin("rpc")
		t.SetOp(op)
	}
	w := c.reqWire
	if w == nil {
		w = new(Wire)
	}
	c.reqWire = nil
	*w = Wire{Kind: WireREQ, From: r.id, Seq: c.seq, AckSeq: ack, Payload: req, Size: size}
	cs := &c.call
	*cs = rpcCall{t: t, seq: c.seq, op: op, wire: w, msgID: r.link.NextMsgID()}
	c.inflight = cs

	if r.mx != nil {
		r.mx.calls.Inc()
		if ack > 0 {
			r.mx.acksPiggybacked.Inc()
		}
	}
	start := r.sim.Now()
	span := op
	if r.sim.Tracing() {
		if span != 0 {
			r.sim.SpanBeginWith(span, r.p.Name(), r.pl.req, "seq=%d dest=%d size=%d ack=%d", c.seq, dest, size, ack)
		} else {
			span = r.sim.SpanBegin(r.p.Name(), r.pl.req, "seq=%d dest=%d size=%d ack=%d", c.seq, dest, size, ack)
		}
	}
	t.Call(r.pl.depth)
	t.ChargeP(sim.PhaseProtoSend, r.m.ProtoRPC)
	r.link.SendWire(t, dest, w, cs.msgID)
	t.Return(r.pl.depth)
	cs.timer = r.sim.Schedule(r.m.RetransTimeout, c.timeoutFn)
	cs.armedAt = r.sim.Now()
	t.Block()

	// Woken by the receive thread with the reply filled in.
	c.inflight = nil
	if cs.err == nil && cs.retries == 0 && r.reusable() {
		// The one copy of the request was served: the server has read it.
		c.reqWire = w
	}
	if r.mx != nil {
		r.mx.latency.Observe(r.sim.Now().Sub(start))
		if cs.err != nil {
			r.mx.failures.Inc()
		}
	}
	if r.sim.Tracing() {
		if cs.err != nil {
			r.sim.SpanEnd(span, r.p.Name(), r.pl.fail, "seq=%d err=%v", cs.seq, cs.err)
		} else {
			r.sim.SpanEnd(span, r.p.Name(), r.pl.done, "seq=%d size=%d", cs.seq, cs.repSize)
		}
	}
	if topLevel {
		r.sim.CausalEnd(op, cs.err != nil)
		t.SetOp(0)
	}
	if cs.err == nil {
		if r.noPiggyback {
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
func (r *RPC) armLazyAck(c *rpcChan, seq uint64) {
	c.pendingAck = seq
	c.ackSeq = seq
	c.ackTimer = r.sim.Schedule(r.m.AckDelay, c.ackFn)
}

// ackTimeout sends the explicit acknowledgement of a reply no request
// piggybacked within AckDelay.
func (r *RPC) ackTimeout(c *rpcChan) {
	c.ackTimer = sim.Event{}
	seq := c.ackSeq
	if c.pendingAck != seq {
		return
	}
	c.pendingAck = 0
	r.helper.Post(c.sendAckFn, seq)
}

func (r *RPC) clientTimeout(c *rpcChan) {
	cs := &c.call
	if cs.done {
		return
	}
	// The armed window elapsed without a reply: retransmission idle.
	r.sim.CausalSpan(cs.op, sim.PhaseRetrans, cs.armedAt, r.sim.Now())
	cs.retries++
	if cs.retries > rpcMaxRetries {
		cs.err = ErrRPCFailed
		cs.done = true
		cs.t.Unblock()
		return
	}
	if r.mx != nil {
		r.mx.retrans.Inc()
	}
	r.link.BeforeRetransmit(c.dest)
	r.helper.Post(c.resendFn, cs.seq)
	cs.timer = r.sim.Schedule(r.m.RetransBackoff(cs.retries), c.timeoutFn)
	cs.armedAt = r.sim.Now()
}

// resend retransmits the channel's request seq from the helper thread
// ht. The record is the channel's: a later call may have taken it.
func (r *RPC) resend(ht *proc.Thread, c *rpcChan, seq uint64) {
	cs := &c.call
	if cs.done || cs.seq != seq {
		return
	}
	ht.SetOp(cs.op)
	ht.Call(r.pl.depth)
	ht.ChargeP(sim.PhaseProtoSend, r.m.ProtoRPC)
	r.link.SendWire(ht, c.dest, cs.wire, cs.msgID)
	ht.Return(r.pl.depth)
	ht.SetOp(0)
}

func (r *RPC) sendExplicitAck(t *proc.Thread, dest int, seq uint64) {
	if r.sim.Tracing() {
		r.sim.Trace(r.p.Name(), r.pl.ack, "explicit ack seq=%d dest=%d", seq, dest)
	}
	if r.mx != nil {
		r.mx.acksExplicit.Inc()
	}
	w := &Wire{Kind: WireACK, From: r.id, AckSeq: seq}
	t.Call(r.pl.depth)
	t.Charge(r.m.ProtoRPC)
	r.link.SendWire(t, dest, w, r.link.NextMsgID())
	t.Return(r.pl.depth)
}

// OnRequest runs in the placement's receive thread t for a received
// request: duplicate-filter it, then upcall the registered handler
// (implicit message receipt: no dedicated server thread is scheduled).
func (r *RPC) OnRequest(t *proc.Thread, w *Wire) {
	s := r.srvFor(w.From)
	if w.AckSeq > 0 && s.cached != nil && s.cached.Seq == w.AckSeq {
		r.acked(s) // piggybacked ack of the previous reply
	}
	switch {
	case w.Seq <= s.lastSeq:
		if s.cached != nil && s.cached.Seq == w.Seq {
			r.resendCached(t, w.From, s)
		}
		return
	case w.Seq == s.inFlight:
		return // duplicate of a request still being served
	}
	s.inFlight = w.Seq
	t.ChargeP(sim.PhaseProtoRecv, r.m.ProtoRPC)
	if r.sim.Tracing() {
		r.sim.Trace(r.p.Name(), r.pl.upcall, "seq=%d from=%d size=%d", w.Seq, w.From, w.Size)
	}
	if r.mx != nil {
		r.mx.upcalls.Inc()
	}
	if r.handler == nil {
		return
	}
	if r.sim.Tracing() {
		r.sim.SpanBeginWith(t.Op(), r.p.Name(), r.pl.serve, "seq=%d from=%d", w.Seq, w.From)
	}
	ctx := &s.ctx
	if s.ctxBusy {
		// The previous request is still in service, after its client gave
		// up on it: its handler still holds the channel's context.
		ctx = &RPCContext{impl: &rpcCtx{}}
	} else {
		s.ctxBusy = true
	}
	ctx.From = w.From
	*ctx.impl.(*rpcCtx) = rpcCtx{seq: w.Seq, from: w.From, op: t.Op()}
	r.handler(t, ctx, w.Payload, w.Size)
}

// acked drops the channel's cached reply, which its client has
// acknowledged, keeping its wire for the next reply when the reply went
// out only once.
func (r *RPC) acked(s *srvChan) {
	if !s.resent && r.reusable() {
		s.repWire = s.cached
	}
	s.cached = nil
}

// Reply implements Transport.Reply: the asynchronous pan_rpc_reply. Any
// thread may send it — in particular the thread that made a guarded
// operation's condition true, saving the context switch the kernel-space
// implementation cannot avoid.
func (r *RPC) Reply(t *proc.Thread, ctx *RPCContext, payload any, size int) {
	c, ok := ctx.impl.(*rpcCtx)
	if !ok {
		panic("panda: Reply with foreign RPCContext")
	}
	s := r.srvFor(c.from)
	w := s.repWire
	if w == nil {
		w = new(Wire)
	}
	s.repWire = nil
	*w = Wire{Kind: WireREP, From: r.id, Seq: c.seq, Payload: payload, Size: size}
	msgID := r.link.NextMsgID()
	// A handler may answer after its client gave up and the channel's
	// next request was answered. That late reply still goes out, but the
	// newer request stays answered: its retransmission must find its own
	// reply, not run the handler again.
	if c.seq > s.lastSeq {
		s.lastSeq = c.seq
		s.cached = w
		s.resent = false
		s.cachedMsgID = msgID
	}
	if s.inFlight == c.seq {
		s.inFlight = 0
	}
	// The reply may be sent by a thread other than the one that served the
	// request (a continuation); attribute the send to the call's operation.
	prevOp := t.Op()
	t.SetOp(c.op)
	t.Call(r.pl.depth)
	t.ChargeP(sim.PhaseProtoSend, r.m.ProtoRPC)
	r.link.SendWire(t, c.from, w, msgID)
	t.Return(r.pl.depth)
	if c.op != 0 && r.sim.Tracing() {
		r.sim.SpanEnd(c.op, r.p.Name(), r.pl.serve, "seq=%d", c.seq)
	}
	t.SetOp(prevOp)
	if c == &s.rctx {
		s.ctxBusy = false // done with c
	}
}

func (r *RPC) resendCached(t *proc.Thread, client int, s *srvChan) {
	s.resent = true
	t.ChargeP(sim.PhaseProtoSend, r.m.ProtoRPC)
	r.link.SendWire(t, client, s.cached, s.cachedMsgID)
}

// OnReply runs in the placement's receive thread t for a received
// reply: match the outstanding call and wake the client thread, the way
// the placement's link hands it over.
func (r *RPC) OnReply(t *proc.Thread, w *Wire) {
	c := r.chans[w.From]
	if c == nil || c.inflight == nil {
		return
	}
	cs := c.inflight
	if cs.done || cs.seq != w.Seq {
		return
	}
	cs.done = true
	r.sim.Cancel(cs.timer)
	cs.reply = w.Payload
	cs.repSize = w.Size
	t.ChargeP(sim.PhaseProtoRecv, r.m.ProtoRPC)
	if r.sim.Tracing() {
		r.sim.Trace(r.p.Name(), r.pl.rep, r.pl.repFmt, w.Seq, w.Size)
	}
	r.link.WakeCaller(t, cs.t)
}

// OnAck runs in the placement's receive thread for a received explicit
// acknowledgement of a reply.
func (r *RPC) OnAck(w *Wire) {
	s := r.srv[w.From]
	if s != nil && s.cached != nil && s.cached.Seq == w.AckSeq {
		r.acked(s)
	}
}
