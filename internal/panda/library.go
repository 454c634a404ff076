package panda

import (
	"strconv"

	"amoebasim/internal/ether"
	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// pandaDepth models Panda's call nesting: "procedure calls in Panda are
// more deeply nested than in Amoeba", causing extra register-window
// overflow and underflow traps, especially around syscalls issued deep in
// the stack.
const pandaDepth = 6

// bypassDepth models the thin user-level library over a queue pair: two
// frames, shallow enough that the SPARC's six register windows absorb it
// without overflow or underflow traps, which is why the crossing phase of
// a bypass operation is exactly zero.
const bypassDepth = 2

// systemHeaderBytes is the system-layer test-message header (Table 1).
const systemHeaderBytes = 16

// userPlacement names user space's trace events prpc.* and pgrp.* and its
// threads pan-*; user space sends large group messages by the BB method.
// qpPlacement names bypass's brpc.*, bgrp.* and qp-*; bypass has no BB
// method, because its NIC gather-reads the application buffer, so BB
// would save no copy.
var (
	userPlacement = newPlacement(pandaDepth, "prpc", "daemon signals client", "pgrp", true, "pan", "daemon")
	qpPlacement   = newPlacement(bypassDepth, "brpc", "consumer resumes client", "bgrp", false, "qp", "consumer")
)

// RawHandler receives Panda system-layer messages (used by the Table 1
// unicast/multicast microbenchmarks). It runs in the receive thread and
// must run to completion.
type RawHandler func(t *proc.Thread, from int, payload any, size int)

// Port is a user-level placement's packet path beneath the Library: the
// sends of the protocol cores (Link) and of the system layer, one
// blocking receive-and-reassemble for each receiving thread, and the drop
// filter of a dedicated sequencer machine. User space's port is the
// kernel's raw FLIP interface, reached by system call; bypass's is a
// user-mapped NIC queue pair and its completion queue.
type Port interface {
	Link
	// SendSystem transmits w, a system-layer message, to processor dest,
	// or to every instance when dest is -1, as message msgID with a
	// header of hdr bytes, charging t for the path.
	SendSystem(t *proc.Thread, dest int, w *Wire, msgID uint64, hdr int)
	// Receiver binds the receive of one thread. The function it returns
	// blocks that thread until the port holds a packet that match accepts
	// (nil accepts all), takes it, adds it to r, and returns its payload
	// (a *Wire) and whether it completed its message. match is handed the
	// packet's wire, or nil for a packet that carries none. seq marks a
	// sequencer thread, whose queue wait is sequencer queueing; every
	// other wait is receive queueing. The returned function must itself
	// block, with no frame of its own between it and Block: the library's
	// threads run on small coroutine stacks, and one more frame on their
	// receive path grew the stacks of rpc-1000's 1,000 receive threads by
	// about 0.9 MiB in all.
	Receiver(match func(*Wire) bool, seq bool, r *flip.Reassembler) func(t *proc.Thread) (payload any, done bool)
	// Discard makes the port drop every arriving packet whose wire drop
	// accepts, before any thread runs. Only a dedicated sequencer
	// machine, which sequences groups and is a member of none, installs
	// one.
	Discard(drop func(*Wire) bool)
}

// Library is the user-level Panda library that user space and bypass
// both embed: the RPC and group cores, and Panda's system layer (§3.2),
// whose receive thread fetches packets from the placement's port,
// reassembles them and upcalls the cores, plus one sequencer thread per
// group the machine sequences. The placement supplies only its Port.
// Kernel space runs the group core at interrupt level instead, with no
// receive thread.
type Library struct {
	RPC     // the stop-and-wait RPC, over the port
	*Groups // the group protocol, over the port; nil without groups

	mode  Mode
	port  Port
	reasm *flip.Reassembler // the receive thread's
	// notSeq is the receive thread's filter on a machine that sequences a
	// group: the traffic of the groups it sequences goes to their
	// sequencer threads. It is nil on every other machine.
	notSeq     func(*Wire) bool
	iface      *Helper // interface-layer daemon (user-space ablation), nil normally
	rawHandler RawHandler
	timeouts   *metrics.Counter // reassembly timeouts; nil when metrics are disabled
}

// libMetrics is the panda.* series of one library instance, labeled by
// its processor: its RPC core's, its reassembly timeouts, and the
// counters that every group it holds shares.
type libMetrics struct {
	rpc           rpcMetrics
	reasmTimeouts metrics.Counter `metric:"panda.reasm_timeouts"`
	grp           groupMetrics
}

// Start readies l, the library a placement embeds, on processor p: port
// carries its packets over net, mode (UserSpace or Bypass) fixes its call
// depth and its trace and thread names, and specs lists the groups it
// holds, as member, sequencer or both. It starts the library's threads.
func (l *Library) Start(p *proc.Processor, net *ether.Network, port Port, mode Mode, specs []GroupSpec) {
	l.start(p, net, port, mode, specs, false)
}

// start is Start; iface adds the interface-layer daemon of the user-space
// ablation. The threads are made in one order: the timer helper, the
// interface daemon, the receive thread, then the sequencers.
func (l *Library) start(p *proc.Processor, net *ether.Network, port Port, mode Mode, specs []GroupSpec, iface bool) {
	pl := qpPlacement
	if mode == UserSpace {
		pl = userPlacement
	}
	l.mode, l.port = mode, port
	l.reasm = flip.NewReassembler(p.Sim(), p.Model().RetransTimeout)
	helper := newHelper(p, pl.timerThread)
	l.Groups = newGroups(p, specs, port, helper, pl)
	l.RPC = RPC{
		link: port, pl: pl, p: p, sim: p.Sim(), m: p.Model(), net: net, helper: helper, id: p.ID(),
		chans: make(map[int]*rpcChan), srv: make(map[int]*srvChan),
	}
	l.registerMetrics(p)
	l.reasm.SetTimeoutCounter(l.timeouts)
	if iface {
		l.iface = newHelper(p, "pan-iface")
	}
	owned, member := l.roles()
	if len(owned) > 0 {
		l.notSeq = func(w *Wire) bool { return !l.ownsSeqTraffic(w) }
	}
	p.NewThread(pl.recvThread, proc.PrioDaemon, l.recvLoop)
	if len(owned) == 0 {
		return
	}
	if !member {
		// Dedicated sequencer machine: drop member traffic (ordered data,
		// accepts, syncs) in the port, so only the sequencer threads ever
		// run and keep their context loaded (warm dispatch, the paper's
		// 60 µs instead of 110 µs).
		port.Discard(l.notSeq)
	}
	for _, gid := range owned {
		name := pl.seqThread
		if gid > 0 {
			name += "-g" + strconv.Itoa(gid)
		}
		seq := p.NewThread(name, proc.PrioDaemon, l.sequencerLoop(gid))
		// Everything a sequencer thread does — protocol work, crossings,
		// dispatch — is sequencer service from the client's point of view.
		seq.SetPhaseOverride(sim.PhaseSeqService)
	}
}

// registerMetrics registers the panda.* series of the instance on
// processor p and hands the cores their metrics; each group it sequences
// also gets a panda.seq_history gauge. It does nothing when the simulator
// keeps no metrics.
func (l *Library) registerMetrics(p *proc.Processor) {
	reg := p.Sim().Metrics()
	if reg == nil {
		return
	}
	mx := new(libMetrics)
	reg.Register(mx, metrics.L("proc", p.Name()))
	l.timeouts = &mx.reasmTimeouts
	l.RPC.mx = &mx.rpc
	if l.Groups == nil {
		return
	}
	for _, g := range l.grps {
		if g == nil {
			continue
		}
		g.mx = &mx.grp
		if g.seq != nil {
			ls := []metrics.Label{metrics.L("proc", p.Name())}
			if gid := g.spec.GID; gid > 0 {
				ls = append(ls, metrics.L("gid", strconv.Itoa(gid)))
			}
			g.seq.gauge = reg.Gauge("panda.seq_history", ls...)
		}
	}
}

// Mode reports the placement: UserSpace or Bypass.
func (l *Library) Mode() Mode { return l.mode }

// ID reports the processor id.
func (l *Library) ID() int { return l.RPC.id }

// HandleRaw registers the system-layer message upcall.
func (l *Library) HandleRaw(h RawHandler) { l.rawHandler = h }

// SystemSend is the Panda system-layer primitive of Table 1: a message
// straight onto the port (unicast to a processor, or multicast to every
// instance).
func (l *Library) SystemSend(t *proc.Thread, dest int, payload any, size int, multicast bool) {
	w := &Wire{Kind: WireRAW, From: l.RPC.id, Payload: payload, Size: size}
	if multicast {
		dest = -1
	}
	t.Call(l.RPC.pl.depth)
	l.port.SendSystem(t, dest, w, l.port.NextMsgID(), systemHeaderBytes)
	t.Return(l.RPC.pl.depth)
}

// recvLoop is Panda's system-layer receive thread: it fetches packets
// from the port, reassembles them into messages, and upcalls the protocol
// handlers, which run to completion without intermediate thread switches.
func (l *Library) recvLoop(t *proc.Thread) {
	recv := l.port.Receiver(l.notSeq, false, l.reasm)
	depth := l.RPC.pl.depth
	for {
		p, done := recv(t)
		t.Call(depth)
		if w, ok := p.(*Wire); done && ok {
			if l.iface != nil {
				// Ablation: relay the upcall through the interface-layer
				// daemon (one extra thread switch each way, as in
				// pre-continuation Panda).
				t.Syscall()
				t.Flush()
				l.iface.PostFromThread(t, func(it *proc.Thread, _ uint64) {
					it.Call(depth)
					l.dispatch(it, w)
					it.Return(depth)
				}, 0)
			} else {
				l.dispatch(t, w)
			}
		}
		t.Return(depth)
		// Drop the per-packet operation before blocking for the next one so
		// the fetch isn't misattributed to a finished operation.
		t.SetOp(0)
	}
}

// dispatch hands a received message to its protocol handler. It is the
// only frame between the receive loop and the handlers.
func (l *Library) dispatch(t *proc.Thread, w *Wire) {
	switch w.Kind {
	case WireREQ:
		l.onRequest(t, w)
	case WireREP:
		l.onReply(t, w)
	case WireACK:
		l.onAck(w)
	case WireGrpDATA, WireGrpACCEPT, WireGrpSYNC, WireGrpBB:
		l.onMember(t, w)
	case WireRAW:
		if l.rawHandler != nil {
			l.rawHandler(t, w.From, w.Payload, w.Size)
		}
	}
}

// toSequencer reports whether group messages of kind k go to the
// sequencer.
func toSequencer(k WireKind) bool {
	switch k {
	case WireGrpREQ, WireGrpBB, WireGrpRETR, WireGrpSTATUS:
		return true
	default:
		return false
	}
}

// seqTraffic reports whether w, nil for a packet without a wire, is
// sequencer-bound group protocol traffic (of group w.GID).
func seqTraffic(w *Wire) bool { return w != nil && toSequencer(w.Kind) }

// ownsSeqTraffic reports whether w is sequencer traffic for a group this
// instance sequences. A co-located shard must not steal other groups'
// sequencer traffic from the receive thread.
func (l *Library) ownsSeqTraffic(w *Wire) bool { return seqTraffic(w) && l.Sequences(w.GID) }

// sequencerLoop is the body of group gid's sequencer thread. It blocks
// directly on the group's sequencer traffic, so an arriving request
// dispatches this thread straight from the port: out of the interrupt
// handler in user space (the 110 µs thread switch of §4.3, or 60 µs warm
// on a dedicated sequencer machine), by the completion queue's dispatch
// mode under bypass.
func (l *Library) sequencerLoop(gid int) func(t *proc.Thread) {
	return func(t *proc.Thread) {
		reasm := flip.NewReassembler(l.RPC.sim, l.RPC.m.RetransTimeout)
		reasm.SetTimeoutCounter(l.timeouts)
		recv := l.port.Receiver(func(w *Wire) bool { return seqTraffic(w) && w.GID == gid }, true, reasm)
		depth := l.RPC.pl.depth
		for {
			p, done := recv(t)
			t.Call(depth)
			if w, ok := p.(*Wire); done && ok {
				l.onSequencer(t, w)
			}
			t.Return(depth)
			// Drop the per-packet operation before blocking for the next one.
			t.SetOp(0)
		}
	}
}

// Helper is a protocol service thread that executes deferred actions
// (retransmissions, explicit acks, sync probes) scheduled by timers, which
// fire in driver context and therefore cannot charge a thread or issue
// syscalls themselves. Each action comes with the number it was posted
// for, a sequence or message number, so a protocol can bind its actions
// once and still tell a stale one.
type Helper struct {
	sem proc.Semaphore
	q   []helperAction
}

type helperAction struct {
	fn  func(t *proc.Thread, arg uint64)
	arg uint64
}

// newHelper starts a helper thread with the given name on p.
func newHelper(p *proc.Processor, name string) *Helper {
	h := &Helper{}
	p.NewThread(name, proc.PrioDaemon, h.loop)
	return h
}

func (h *Helper) loop(t *proc.Thread) {
	for {
		h.sem.Down(t)
		a := h.q[0]
		n := copy(h.q, h.q[1:])
		h.q[n] = helperAction{} // clear the vacated slot so the closure can be GC'd
		h.q = h.q[:n]
		a.fn(t, a.arg)
	}
}

// Post enqueues fn(helper thread, arg) from driver context (a timer
// callback). A nil Helper runs fn at once with no thread: kernel space's
// timers act at interrupt level.
func (h *Helper) Post(fn func(t *proc.Thread, arg uint64), arg uint64) {
	if h == nil {
		fn(nil, arg)
		return
	}
	h.q = append(h.q, helperAction{fn: fn, arg: arg})
	h.sem.UpFromDriver()
}

// PostFromThread enqueues fn(helper thread, arg) from thread context.
func (h *Helper) PostFromThread(t *proc.Thread, fn func(t *proc.Thread, arg uint64), arg uint64) {
	h.q = append(h.q, helperAction{fn: fn, arg: arg})
	h.sem.Up(t)
}
