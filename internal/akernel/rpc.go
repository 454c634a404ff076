package akernel

import (
	"errors"
	"fmt"

	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrRPCFailed is returned by Trans when retransmissions are exhausted.
var ErrRPCFailed = errors.New("akernel: rpc failed after retries")

const rpcMaxRetries = 16

// Request is an accepted RPC request held by a server thread between
// GetRequest and PutReply.
type Request struct {
	Payload any
	Size    int
	Port    Port

	ch      chanKey
	seq     uint64
	op      uint64       // causally traced operation of the client (0: none)
	thread  *proc.Thread // the thread that accepted it (Amoeba's binding)
	kern    *Kernel
	retAddr flip.Address
	done    bool
}

// ClientKernel reports the kernel id of the client that issued the
// request.
func (r *Request) ClientKernel() int { return r.ch.kernel }

type chanKey struct {
	kernel int
	thread int
}

type rpcKind uint8

const (
	rpcREQ rpcKind = iota + 1
	rpcREP
	rpcACK
)

// rpcWire is the kernel RPC protocol message carried in FLIP packets.
type rpcWire struct {
	kind    rpcKind
	ch      chanKey
	seq     uint64
	op      uint64 // causally traced operation (0: none)
	port    Port
	payload any
	size    int
	retAddr flip.Address // client kernel's reply endpoint

	queuedAt sim.Time // server-side: when the request entered the port queue
}

// callState tracks one outstanding client call.
type callState struct {
	t       *proc.Thread
	seq     uint64
	msg     flip.Message
	timer   sim.Event
	armedAt sim.Time // when the retransmission timer was armed
	retries int
	reply   any
	repSize int
	err     error
	done    bool
}

// serverChan is the per-client-channel duplicate filter and reply cache.
type serverChan struct {
	lastSeq   uint64 // highest seq completed
	inFlight  uint64 // seq currently being served (0 = none)
	cachedRep *flip.Message
}

type rpcModule struct {
	k     *Kernel
	reasm *flip.Reassembler

	// Client side.
	calls   map[chanKey]*callState
	seqs    map[int]uint64 // per-thread seq counters
	replyTo flip.Address

	// Server side.
	ports    map[Port]*portState
	channels map[chanKey]*serverChan
}

type portState struct {
	queue   []*rpcWire
	waiters []*serverWaiter
	free    []*serverWaiter // waiters whose GetRequest has returned
}

type serverWaiter struct {
	t   *proc.Thread
	req *Request // filled in by the interrupt handler before unblocking
}

func newRPCModule(k *Kernel) *rpcModule {
	r := &rpcModule{
		k:        k,
		reasm:    flip.NewReassembler(k.sim, k.m.RetransTimeout),
		calls:    make(map[chanKey]*callState),
		seqs:     make(map[int]uint64),
		ports:    make(map[Port]*portState),
		channels: make(map[chanKey]*serverChan),
		replyTo:  rawBase | 0x2000_0000 | flip.Address(k.id),
	}
	if k.mx != nil {
		r.reasm.SetTimeoutCounter(k.mx.reasmTimeouts)
	}
	k.flip.Register(r.replyTo)
	return r
}

// Trans performs one Amoeba RPC: send the request to the port, block until
// the reply arrives. The kernel's 3-way protocol retransmits the request,
// delivers the reply directly to the blocked client thread from interrupt
// context (no context switch), and acknowledges the reply explicitly.
func (k *Kernel) Trans(t *proc.Thread, port Port, req any, reqSize int) (any, int, error) {
	r := k.rpc
	op := t.Op()
	topLevel := op == 0
	if topLevel {
		op = k.sim.CausalBegin("rpc")
		t.SetOp(op)
	}
	k.enterKernel(t)
	// The user-to-kernel data copy is charged per fragment by the FLIP
	// send path below.

	r.seqs[t.ID()]++
	ch := chanKey{kernel: k.id, thread: t.ID()}
	cs := &callState{t: t, seq: r.seqs[t.ID()]}
	wire := &rpcWire{
		kind: rpcREQ, ch: ch, seq: cs.seq, op: op, port: port,
		payload: req, size: reqSize, retAddr: r.replyTo,
	}
	cs.msg = flip.Message{
		Src: r.replyTo, Dst: PortAddress(port), Proto: flip.ProtoRPC,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.RPCHeaderKernel,
		Size: reqSize, Payload: wire, Op: op,
	}
	r.calls[ch] = cs
	t.ChargeP(sim.PhaseProtoSend, k.m.ProtoRPC)
	if k.mx != nil {
		k.mx.rpcCalls.Inc()
	}
	start := k.sim.Now()
	span := op
	if k.sim.Tracing() {
		if span != 0 {
			k.sim.SpanBeginWith(span, k.p.Name(), "rpc.req", "trans seq=%d port=%d size=%d", cs.seq, port, reqSize)
		} else {
			span = k.sim.SpanBegin(k.p.Name(), "rpc.req", "trans seq=%d port=%d size=%d", cs.seq, port, reqSize)
		}
	}
	k.flip.SendFromThread(t, cs.msg)
	cs.timer = k.sim.Schedule(k.m.RetransTimeout, func() { r.clientTimeout(ch) })
	cs.armedAt = k.sim.Now()
	t.Block()

	// Woken by the interrupt handler with the reply in place (the data
	// was copied to the posted buffer as fragments arrived).
	delete(r.calls, ch)
	if k.mx != nil {
		k.mx.rpcLatency.Observe(k.sim.Now().Sub(start))
	}
	if cs.err != nil {
		if k.sim.Tracing() {
			k.sim.SpanEnd(span, k.p.Name(), "rpc.fail", "seq=%d err=%v", cs.seq, cs.err)
		}
		if k.mx != nil {
			k.mx.rpcFailures.Inc()
		}
		k.leaveKernel(t)
		if topLevel {
			k.sim.CausalEnd(op, true)
			t.SetOp(0)
		}
		return nil, 0, cs.err
	}
	if k.sim.Tracing() {
		k.sim.SpanEnd(span, k.p.Name(), "rpc.done", "seq=%d size=%d", cs.seq, cs.repSize)
	}
	k.leaveKernel(t)
	if topLevel {
		k.sim.CausalEnd(op, false)
		t.SetOp(0)
	}
	return cs.reply, cs.repSize, nil
}

func (r *rpcModule) clientTimeout(ch chanKey) {
	cs := r.calls[ch]
	if cs == nil || cs.done {
		return
	}
	// The whole armed window was spent waiting for a reply that never
	// came: retransmission/backoff idle time (send-side processing that
	// overlaps the front of it wins by phase priority).
	r.k.sim.CausalSpan(cs.msg.Op, sim.PhaseRetrans, cs.armedAt, r.k.sim.Now())
	cs.retries++
	if cs.retries > rpcMaxRetries {
		cs.err = ErrRPCFailed
		cs.done = true
		cs.t.Unblock()
		return
	}
	r.k.sim.Trace(r.k.p.Name(), "rpc.retr", "seq=%d retry=%d", cs.seq, cs.retries)
	if r.k.mx != nil {
		r.k.mx.rpcRetrans.Inc()
	}
	// The request went unanswered: any cached route to the server may be
	// stale (server restarted on another board), so force a re-locate
	// before retransmitting.
	r.k.flip.InvalidateRoute(cs.msg.Dst)
	r.k.flip.SendFromInterrupt(cs.msg)
	cs.timer = r.k.sim.Schedule(r.k.m.RetransBackoff(cs.retries), func() { r.clientTimeout(ch) })
	cs.armedAt = r.k.sim.Now()
}

// GetRequest blocks the calling thread until a request arrives on port.
// The same thread must later call PutReply for that request.
func (k *Kernel) GetRequest(t *proc.Thread, port Port) *Request {
	r := k.rpc
	k.enterKernel(t)
	ps := r.port(port)
	if len(ps.queue) > 0 {
		w := ps.queue[0]
		n := copy(ps.queue, ps.queue[1:])
		ps.queue[n] = nil // clear the vacated slot so the wire msg can be GC'd
		ps.queue = ps.queue[:n]
		k.sim.CausalSpan(w.op, sim.PhaseRecvQueue, w.queuedAt, k.sim.Now())
		t.SetOp(w.op)
		req := r.acceptRequest(w, t)
		k.leaveKernel(t)
		return req
	}
	var sw *serverWaiter
	if n := len(ps.free); n > 0 {
		sw = ps.free[n-1]
		ps.free = ps.free[:n-1]
	} else {
		sw = &serverWaiter{}
	}
	sw.t = t
	ps.waiters = append(ps.waiters, sw)
	t.Block()
	// Only handleREQ wakes a server waiter, after taking it off the list:
	// once Block returns nothing else holds sw.
	req := sw.req
	*sw = serverWaiter{}
	ps.free = append(ps.free, sw)
	k.leaveKernel(t)
	return req
}

// PutReply sends the reply for req and completes the server side of the
// call. Amoeba requires that the calling thread is the one that accepted
// the request with GetRequest; violating that is a programming error.
func (k *Kernel) PutReply(t *proc.Thread, req *Request, reply any, size int) {
	if req.thread != t {
		panic(fmt.Sprintf(
			"akernel: PutReply by thread %q, but GetRequest was issued by %q "+
				"(Amoeba requires matching get_request/put_reply threads)",
			t.Name(), req.thread.Name()))
	}
	if req.done {
		panic("akernel: duplicate PutReply")
	}
	req.done = true
	r := k.rpc
	k.enterKernel(t)
	wire := &rpcWire{kind: rpcREP, ch: req.ch, seq: req.seq, op: req.op, port: req.Port, payload: reply, size: size}
	msg := flip.Message{
		Src: PortAddress(req.Port), Dst: req.retAddr, Proto: flip.ProtoRPC,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.RPCHeaderKernel, Size: size, Payload: wire, Op: req.op,
	}
	sc := r.channel(req.ch)
	sc.lastSeq = req.seq
	sc.inFlight = 0
	sc.cachedRep = &msg
	t.ChargeP(sim.PhaseProtoSend, k.m.ProtoRPC)
	k.flip.SendFromThread(t, msg)
	if k.sim.Tracing() {
		k.sim.SpanEnd(req.op, k.p.Name(), "rpc.served", "seq=%d size=%d", req.seq, size)
	}
	k.leaveKernel(t)
	if t.Op() == req.op {
		t.SetOp(0)
	}
}

func (r *rpcModule) port(p Port) *portState {
	ps := r.ports[p]
	if ps == nil {
		ps = &portState{}
		r.ports[p] = ps
		r.k.flip.Register(PortAddress(p))
	}
	return ps
}

func (r *rpcModule) channel(ch chanKey) *serverChan {
	sc := r.channels[ch]
	if sc == nil {
		sc = &serverChan{}
		r.channels[ch] = sc
	}
	return sc
}

// onPacket handles an incoming FLIP packet at interrupt level: copy the
// fragment into the posted buffer (overlapping with the wire time of the
// next fragment), reassemble in the kernel, then run the protocol action.
func (r *rpcModule) onPacket(pk *flip.Packet) {
	if pk.Length > 0 {
		r.k.p.InterruptTagged(r.k.m.Copy(pk.Length), pk.Op, sim.PhaseFrag, nil)
	}
	if !r.reasm.Add(pk) {
		return
	}
	w, ok := pk.Payload.(*rpcWire)
	if !ok {
		return
	}
	k := r.k
	k.p.InterruptTagged(k.m.ProtoRPC, w.op, sim.PhaseProtoRecv, func() {
		switch w.kind {
		case rpcREQ:
			r.handleREQ(w)
		case rpcREP:
			r.handleREP(w)
		case rpcACK:
			r.handleACK(w)
		}
	})
}

func (r *rpcModule) handleREQ(w *rpcWire) {
	k := r.k
	sc := r.channel(w.ch)
	switch {
	case w.seq <= sc.lastSeq:
		// Duplicate of a completed call: resend the cached reply.
		if sc.cachedRep != nil && w.seq == sc.lastSeq {
			k.flip.SendFromInterrupt(*sc.cachedRep)
		}
		return
	case w.seq == sc.inFlight:
		return // duplicate of an in-progress call
	}
	if k.sim.Tracing() {
		k.sim.Trace(k.p.Name(), "rpc.serve", "seq=%d from=%d size=%d", w.seq, w.ch.kernel, w.size)
		k.sim.SpanBeginWith(w.op, k.p.Name(), "rpc.serve", "seq=%d from=%d size=%d", w.seq, w.ch.kernel, w.size)
	}
	if k.mx != nil {
		k.mx.rpcServes.Inc()
	}
	sc.inFlight = w.seq
	sc.cachedRep = nil
	ps := r.port(w.port)
	if len(ps.waiters) > 0 {
		sw := ps.waiters[0]
		n := copy(ps.waiters, ps.waiters[1:])
		ps.waiters[n] = nil // clear the vacated slot (it pins thread + request)
		ps.waiters = ps.waiters[:n]
		sw.req = r.bindRequest(w, sw.t)
		// One context switch at the server: dispatch the server thread.
		sw.t.SetOp(w.op)
		sw.t.Unblock()
		return
	}
	w.queuedAt = k.sim.Now()
	ps.queue = append(ps.queue, w)
}

func (r *rpcModule) acceptRequest(w *rpcWire, t *proc.Thread) *Request {
	return r.bindRequest(w, t)
}

func (r *rpcModule) bindRequest(w *rpcWire, t *proc.Thread) *Request {
	return &Request{
		Payload: w.payload, Size: w.size, Port: w.port,
		ch: w.ch, seq: w.seq, op: w.op, thread: t, kern: r.k, retAddr: w.retAddr,
	}
}

func (r *rpcModule) handleREP(w *rpcWire) {
	k := r.k
	cs := r.calls[w.ch]
	if cs == nil || cs.done || w.seq != cs.seq {
		// Late duplicate: still acknowledge so the server can clean up.
		r.sendACK(w)
		return
	}
	cs.done = true
	k.sim.Cancel(cs.timer)
	if k.sim.Tracing() {
		k.sim.Trace(k.p.Name(), "rpc.rep", "seq=%d size=%d (direct delivery)", w.seq, w.size)
	}
	cs.reply = w.payload
	cs.repSize = w.size
	// Amoeba delivers the reply directly to the blocked client thread:
	// no context switch when its context is still loaded.
	cs.t.UnblockDirect()
	r.sendACK(w)
}

// sendACK is the third leg of Amoeba's 3-way protocol: an explicit
// acknowledgement of the reply, always sent (unlike Panda's piggybacking).
func (r *rpcModule) sendACK(w *rpcWire) {
	k := r.k
	if k.mx != nil {
		k.mx.acksExplicit.Inc()
	}
	ack := &rpcWire{kind: rpcACK, ch: w.ch, seq: w.seq, op: w.op, port: w.port}
	k.flip.SendFromInterrupt(flip.Message{
		Src: r.replyTo, Dst: PortAddress(w.port), Proto: flip.ProtoRPC,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.RPCHeaderKernel, Size: 0, Payload: ack, Op: w.op,
	})
}

func (r *rpcModule) handleACK(w *rpcWire) {
	sc := r.channels[w.ch]
	if sc != nil && sc.lastSeq == w.seq {
		sc.cachedRep = nil
	}
}
