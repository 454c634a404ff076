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
// GetRequest and PutReply. The server thread owns it: GetRequest fills
// the thread's record in, so a thread serving requests one after another
// reuses one record.
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

// callState tracks one outstanding client call. Channels are per client
// thread, so the records are pooled on the module, not on a channel; each
// keeps its timeout callback, bound once.
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

	fire func() // clientTimeout, bound to the record
	// reqWire is the last request's wire, kept once the request was
	// provably consumed (see reusable), else nil.
	reqWire *rpcWire
}

// serverChan is the per-client-channel duplicate filter and reply cache.
type serverChan struct {
	lastSeq   uint64 // highest seq completed
	inFlight  uint64 // seq currently being served (0 = none)
	cached    bool   // cachedRep holds the reply to lastSeq
	cachedRep flip.Message
	resent    bool // the cached reply went out more than once
	// repWire is an acknowledged reply's wire, kept once the reply was
	// provably consumed (see reusable), else nil.
	repWire *rpcWire
}

type rpcModule struct {
	k     *Kernel
	reasm *flip.Reassembler

	// inbox holds the wires whose protocol interrupt items are queued on
	// the processor, oldest first. The processor services its interrupt
	// items in FIFO order, so handleFn, bound once, always finds its wire
	// at the head and a received packet schedules no closure.
	inbox    []*rpcWire
	handleFn func()

	// Client side.
	calls     map[chanKey]*callState
	freeCalls []*callState   // records whose Trans has returned
	seqs      map[int]uint64 // per-thread seq counters
	replyTo   flip.Address

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
	req *Request // the thread's record, filled in by the interrupt handler
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
	r.handleFn = r.handleNext
	if k.mx != nil {
		r.reasm.SetTimeoutCounter(&k.mx.reasmTimeouts)
	}
	k.flip.Register(r.replyTo)
	return r
}

// reusable reports whether a wire that exactly one message carried, and
// whose receiver has consumed that message, may carry the next one. A
// fault hook, once armed, may have delivered the message twice, so no
// wire is reused on such a network: the second delivery would read the
// next message.
func (r *rpcModule) reusable() bool { return !r.k.flip.Network().FaultEverArmed() }

// newCall takes a call record from the pool, or mints one.
func (r *rpcModule) newCall() *callState {
	if n := len(r.freeCalls); n > 0 {
		cs := r.freeCalls[n-1]
		r.freeCalls = r.freeCalls[:n-1]
		return cs
	}
	cs := &callState{}
	cs.fire = func() { r.clientTimeout(cs) }
	return cs
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
	cs := r.newCall()
	cs.t, cs.seq = t, r.seqs[t.ID()]
	wire := cs.reqWire
	if wire == nil {
		wire = &rpcWire{}
	}
	*wire = rpcWire{
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
	cs.timer = k.sim.Schedule(k.m.RetransTimeout, cs.fire)
	cs.armedAt = k.sim.Now()
	t.Block()

	// Woken by the interrupt handler with the reply in place (the data
	// was copied to the posted buffer as fragments arrived). Only the
	// handler that set done held the record, and the timer is off: the
	// record goes back to the pool.
	delete(r.calls, ch)
	seq, reply, repSize, err := cs.seq, cs.reply, cs.repSize, cs.err
	if err != nil || cs.retries > 0 || !r.reusable() {
		wire = nil
	} // else the one copy of the request was served: the server has read it
	*cs = callState{fire: cs.fire, reqWire: wire}
	r.freeCalls = append(r.freeCalls, cs)
	if k.mx != nil {
		k.mx.rpcLatency.Observe(k.sim.Now().Sub(start))
	}
	if err != nil {
		if k.sim.Tracing() {
			k.sim.SpanEnd(span, k.p.Name(), "rpc.fail", "seq=%d err=%v", seq, err)
		}
		if k.mx != nil {
			k.mx.rpcFailures.Inc()
		}
		k.leaveKernel(t)
		if topLevel {
			k.sim.CausalEnd(op, true)
			t.SetOp(0)
		}
		return nil, 0, err
	}
	if k.sim.Tracing() {
		k.sim.SpanEnd(span, k.p.Name(), "rpc.done", "seq=%d size=%d", seq, repSize)
	}
	k.leaveKernel(t)
	if topLevel {
		k.sim.CausalEnd(op, false)
		t.SetOp(0)
	}
	return reply, repSize, nil
}

// clientTimeout runs when a call's retransmission timer expires. The
// timer is cancelled when the reply arrives and not re-armed when the
// call gives up, so it never fires for a record back in the pool.
func (r *rpcModule) clientTimeout(cs *callState) {
	if cs.done {
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
	if r.k.sim.Tracing() {
		r.k.sim.Trace(r.k.p.Name(), "rpc.retr", "seq=%d retry=%d", cs.seq, cs.retries)
	}
	if r.k.mx != nil {
		r.k.mx.rpcRetrans.Inc()
	}
	// The request went unanswered: any cached route to the server may be
	// stale (server restarted on another board), so force a re-locate
	// before retransmitting.
	r.k.flip.InvalidateRoute(cs.msg.Dst)
	r.k.flip.SendFromInterrupt(cs.msg)
	cs.timer = r.k.sim.Schedule(r.k.m.RetransBackoff(cs.retries), cs.fire)
	cs.armedAt = r.k.sim.Now()
}

// GetRequest blocks the calling thread until a request arrives on port
// and fills req in with it. The same thread must later call PutReply for
// that request before it passes req to GetRequest again.
func (k *Kernel) GetRequest(t *proc.Thread, port Port, req *Request) {
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
		r.bindRequest(w, t, req)
		k.leaveKernel(t)
		return
	}
	var sw *serverWaiter
	if n := len(ps.free); n > 0 {
		sw = ps.free[n-1]
		ps.free = ps.free[:n-1]
	} else {
		sw = &serverWaiter{}
	}
	sw.t, sw.req = t, req
	ps.waiters = append(ps.waiters, sw)
	t.Block()
	// Only handleREQ wakes a server waiter, after taking it off the list:
	// once Block returns nothing else holds sw.
	*sw = serverWaiter{}
	ps.free = append(ps.free, sw)
	k.leaveKernel(t)
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
	sc := r.channel(req.ch)
	wire := sc.repWire
	sc.repWire = nil
	if wire == nil {
		wire = &rpcWire{}
	}
	*wire = rpcWire{kind: rpcREP, ch: req.ch, seq: req.seq, op: req.op, port: req.Port, payload: reply, size: size}
	rep := flip.Message{
		Src: PortAddress(req.Port), Dst: req.retAddr, Proto: flip.ProtoRPC,
		MsgID: k.flip.NextMsgID(), Hdr: k.m.RPCHeaderKernel, Size: size, Payload: wire, Op: req.op,
	}
	// A server may answer after its client gave up and the channel's next
	// request was answered. That late reply still goes out, but the newer
	// request stays answered: its retransmission must find its own reply,
	// not be served again.
	if req.seq > sc.lastSeq {
		sc.lastSeq = req.seq
		sc.cached = true
		sc.cachedRep = rep
		sc.resent = false
	}
	if sc.inFlight == req.seq {
		sc.inFlight = 0
	}
	t.ChargeP(sim.PhaseProtoSend, k.m.ProtoRPC)
	k.flip.SendFromThread(t, rep)
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
	r.inbox = append(r.inbox, w)
	r.k.p.InterruptTagged(r.k.m.ProtoRPC, w.op, sim.PhaseProtoRecv, r.handleFn)
}

// handleNext runs the protocol action of the oldest received wire once
// its protocol interrupt item has been serviced.
func (r *rpcModule) handleNext() {
	w := r.inbox[0]
	n := copy(r.inbox, r.inbox[1:])
	r.inbox[n] = nil
	r.inbox = r.inbox[:n]
	switch w.kind {
	case rpcREQ:
		r.handleREQ(w)
	case rpcREP:
		r.handleREP(w)
	case rpcACK:
		r.handleACK(w)
	}
}

func (r *rpcModule) handleREQ(w *rpcWire) {
	k := r.k
	sc := r.channel(w.ch)
	switch {
	case w.seq <= sc.lastSeq:
		// Duplicate of a completed call: resend the cached reply.
		if sc.cached && w.seq == sc.lastSeq {
			sc.resent = true
			k.flip.SendFromInterrupt(sc.cachedRep)
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
	sc.cached, sc.cachedRep = false, flip.Message{}
	ps := r.port(w.port)
	if len(ps.waiters) > 0 {
		sw := ps.waiters[0]
		n := copy(ps.waiters, ps.waiters[1:])
		ps.waiters[n] = nil // clear the vacated slot (it pins thread + request)
		ps.waiters = ps.waiters[:n]
		r.bindRequest(w, sw.t, sw.req)
		// One context switch at the server: dispatch the server thread.
		sw.t.SetOp(w.op)
		sw.t.Unblock()
		return
	}
	w.queuedAt = k.sim.Now()
	ps.queue = append(ps.queue, w)
}

// bindRequest fills server thread t's record req in with request w.
func (r *rpcModule) bindRequest(w *rpcWire, t *proc.Thread, req *Request) {
	*req = Request{
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

// handleACK drops the reply the client acknowledged, keeping its wire
// for the channel's next reply when the reply went out only once.
func (r *rpcModule) handleACK(w *rpcWire) {
	sc := r.channels[w.ch]
	if sc == nil || sc.lastSeq != w.seq {
		return
	}
	if sc.cached && !sc.resent && r.reusable() {
		sc.repWire = sc.cachedRep.Payload.(*rpcWire)
	}
	sc.cached, sc.cachedRep = false, flip.Message{}
}
