package panda

import (
	"strconv"

	"amoebasim/internal/akernel"
	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// pandaGroupAddr is the FLIP group address of Panda group 0; group g
// multicasts on pandaGroupAddr + g (see groupAddr).
const pandaGroupAddr flip.Address = 0xE000_0000_0000_0001

// groupAddr is the FLIP multicast address of Panda group gid.
func groupAddr(gid int) flip.Address { return pandaGroupAddr + flip.Address(gid) }

// pandaDepth models Panda's call nesting: "procedure calls in Panda are
// more deeply nested than in Amoeba", causing extra register-window
// overflow and underflow traps, especially around syscalls issued deep in
// the stack.
const pandaDepth = 6

// userPlacement names user space's trace events prpc.* and pgrp.*; user
// space sends large group messages by the BB method.
var userPlacement = NewPlacement(pandaDepth, "prpc", "daemon signals client", "pgrp", true)

// userLink is the user-space instance seen as the packet path of the RPC
// and group cores: the kernel's raw FLIP interface, reached by system
// call.
type userLink User

func (l *userLink) SendWire(t *proc.Thread, dest int, w *Wire, msgID uint64) {
	if w.Kind != WireACK {
		t.ChargeP(sim.PhaseFrag, l.m.FragLayer)
	}
	l.k.RawSend(t, akernel.RawAddress(dest), msgID, l.m.RPCHeaderUser, w.Size, w, false)
}

// SendGroupWire charges the fragmentation layer for a member's request,
// then sends w by raw FLIP, to the group's FLIP multicast address when
// dest is -1.
func (l *userLink) SendGroupWire(t *proc.Thread, dest int, w *Wire, msgID uint64) {
	if w.Kind == WireGrpREQ || w.Kind == WireGrpBB {
		t.ChargeP(sim.PhaseFrag, l.m.FragLayer)
	}
	if dest < 0 {
		l.k.RawSend(t, groupAddr(w.GID), msgID, l.m.GroupHeaderUser, w.Size, w, true)
		return
	}
	l.k.RawSend(t, akernel.RawAddress(dest), msgID, l.m.GroupHeaderUser, w.Size, w, false)
}

func (l *userLink) NextMsgID() uint64 { return l.k.RawNextMsgID() }

// BeforeRetransmit drops the kernel's cached route to the server, which
// may be stale, so the retransmission re-locates it.
func (l *userLink) BeforeRetransmit(dest int) { l.k.RawInvalidateRoute(akernel.RawAddress(dest)) }

// WakeCaller signals the client thread, or the sender whose group
// message came back. Threads are kernel-level, so the wake-up is a system
// call issued deep in the Panda stack: the source of the extra crossings
// and underflow traps the paper measures.
func (l *userLink) WakeCaller(t, caller *proc.Thread) {
	t.Syscall()
	t.Flush()
	caller.Unblock()
}

// RawHandler receives Panda system-layer messages (used by the Table 1
// unicast/multicast microbenchmarks). It runs in the receive daemon and
// must run to completion.
type RawHandler func(t *proc.Thread, from int, payload any, size int)

// UserConfig configures a user-space Panda instance.
type UserConfig struct {
	// Groups lists the communication groups this instance participates in
	// (as member, sequencer, or both). A group's sequencer may be a member
	// (the default setup) or a dedicated machine outside its members (the
	// paper's "User-space-dedicated" run).
	Groups []GroupSpec
	// NoPiggyback disables piggybacking reply acknowledgements on the
	// next request (ablation: every reply gets an immediate explicit
	// acknowledgement message).
	NoPiggyback bool
	// InterfaceDaemon reproduces the pre-continuation Panda the paper
	// mentions in §3.2: protocol upcalls are relayed to a separate
	// interface-layer daemon thread (so handlers may block) instead of
	// running to completion in the system-layer receive daemon. The
	// paper measured that removing this thread "dropped the latency of
	// RPC and group messages with 300 µs".
	InterfaceDaemon bool
}

// User is the user-space Panda implementation: Panda's own RPC and
// totally-ordered group protocols running as a library on the kernel's
// raw FLIP interface.
type User struct {
	id  int
	k   *akernel.Kernel
	p   *proc.Processor
	m   *model.CostModel
	sim *sim.Sim

	RPC     // the stop-and-wait RPC, over the raw FLIP interface (userLink)
	*Groups // the group protocol, over the same interface; nil without groups

	reasm      *flip.Reassembler
	daemon     *proc.Thread
	helper     *Helper
	iface      *Helper // interface-layer daemon (ablation), nil normally
	rawHandler RawHandler

	mx *Metrics // nil when metrics are disabled
}

// Metrics is the panda.* series of one user-space or bypass instance,
// labeled by its processor: its RPC core's, its reassembly timeouts, and
// the counters that every group it holds shares.
type Metrics struct {
	rpc           rpcMetrics
	reasmTimeouts metrics.Counter `metric:"panda.reasm_timeouts"`
	grp           groupMetrics
}

// RegisterMetrics registers the panda.* series of the instance on
// processor p, whose RPC core is r and group table gs (nil without
// groups), and hands the cores their metrics; each group the instance
// sequences also gets a panda.seq_history gauge. It returns nil when the
// simulator keeps no metrics.
func RegisterMetrics(p *proc.Processor, r *RPC, gs *Groups) *Metrics {
	reg := p.Sim().Metrics()
	if reg == nil {
		return nil
	}
	mx := new(Metrics)
	reg.Register(mx, metrics.L("proc", p.Name()))
	r.mx = &mx.rpc
	if gs == nil {
		return mx
	}
	for _, g := range gs.grps {
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
	return mx
}

// ReasmTimeouts returns the counter of the partial messages that the
// instance's reassemblers give up on (for
// flip.Reassembler.SetTimeoutCounter), or nil when mx is nil.
func (mx *Metrics) ReasmTimeouts() *metrics.Counter {
	if mx == nil {
		return nil
	}
	return &mx.reasmTimeouts
}

var _ Transport = (*User)(nil)
var _ NonblockingSender = (*User)(nil)

// NewUser creates and starts a user-space Panda instance on kernel k.
func NewUser(k *akernel.Kernel, cfg UserConfig) *User {
	p := k.Processor()
	u := &User{
		id:  p.ID(),
		k:   k,
		p:   p,
		m:   p.Model(),
		sim: p.Sim(),
	}
	u.reasm = flip.NewReassembler(u.sim, u.m.RetransTimeout)
	k.RawRegister()
	for _, gs := range cfg.Groups {
		k.RawJoinGroup(groupAddr(gs.GID))
	}
	u.helper = NewHelper(p, "pan-timer")
	u.Groups = NewGroups(p, cfg.Groups, (*userLink)(u), u.helper, userPlacement)
	InitRPC(&u.RPC, p, k.FLIP().Network(), (*userLink)(u), u.helper, userPlacement)
	u.RPC.noPiggyback = cfg.NoPiggyback
	u.mx = RegisterMetrics(p, &u.RPC, u.Groups)
	u.reasm.SetTimeoutCounter(u.mx.ReasmTimeouts())
	if cfg.InterfaceDaemon {
		u.iface = NewHelper(p, "pan-iface")
	}
	u.daemon = p.NewThread("pan-daemon", proc.PrioDaemon, u.daemonLoop)
	owned := u.Sequenced()
	if len(owned) == 0 {
		return u
	}
	// Time a packet spends queued for a sequencer thread is sequencer
	// queueing, not ordinary receive-daemon queueing.
	k.RawWaitPhase(func(pk *flip.Packet) sim.PhaseID {
		if u.ownsSeqTraffic(pk) {
			return sim.PhaseSeqQueue
		}
		return sim.PhaseRecvQueue
	})
	if !u.anyMember() {
		// Dedicated sequencer machine: drop member traffic (ordered
		// data, accepts, syncs) in the kernel so only the sequencer
		// threads ever run — keeping their context loaded (warm
		// dispatch, the paper's 60 µs instead of 110 µs).
		k.RawDiscard(func(pk *flip.Packet) bool { return !u.ownsSeqTraffic(pk) })
	}
	for _, gid := range owned {
		name := "pan-sequencer"
		if gid > 0 {
			name = "pan-sequencer-g" + strconv.Itoa(gid)
		}
		seq := p.NewThread(name, proc.PrioDaemon, u.sequencerLoop(gid))
		// Everything a sequencer thread does — protocol work, crossings,
		// dispatch — is sequencer service from the client's point of view.
		seq.SetPhaseOverride(sim.PhaseSeqService)
	}
	return u
}

// Mode reports UserSpace.
func (u *User) Mode() Mode { return UserSpace }

// ID reports the processor id.
func (u *User) ID() int { return u.id }

// HandleRaw registers the system-layer message upcall.
func (u *User) HandleRaw(h RawHandler) { u.rawHandler = h }

// GroupSendNB is the §6 extension: a totally-ordered broadcast on the
// default group that does not wait for the sequencer round trip.
func (u *User) GroupSendNB(t *proc.Thread, payload any, size int) error {
	return u.send(t, 0, payload, size, false)
}

// SystemSend is the Panda system-layer primitive of Table 1: a message
// straight onto FLIP via a system call (unicast to a processor, or
// multicast to the whole Panda group).
func (u *User) SystemSend(t *proc.Thread, dest int, payload any, size int, multicast bool) {
	w := &Wire{Kind: WireRAW, From: u.id, Payload: payload, Size: size}
	t.Call(pandaDepth)
	t.ChargeP(sim.PhaseFrag, u.m.FragLayer)
	dst := akernel.RawAddress(dest)
	if multicast {
		dst = pandaGroupAddr
	}
	u.k.RawSend(t, dst, u.k.RawNextMsgID(), systemHeaderBytes, size, w, multicast)
	t.Return(pandaDepth)
}

// systemHeaderBytes is the system-layer test-message header.
const systemHeaderBytes = 16

// daemonLoop is the Panda system-layer receive daemon: it fetches FLIP
// packets from the kernel, reassembles them into messages in user space,
// and upcalls into the interface-layer protocol handlers. Upcalls run to
// completion without intermediate thread switches.
func (u *User) daemonLoop(t *proc.Thread) {
	var filter func(*flip.Packet) bool
	if u.SequencesAny() {
		// Sequencer traffic for owned groups is consumed directly by the
		// sequencer threads.
		filter = func(pk *flip.Packet) bool { return !u.ownsSeqTraffic(pk) }
	}
	for {
		pk := u.k.RawReceiveMatch(t, filter)
		t.Call(pandaDepth)
		done := u.reasm.Add(pk)
		w, isW := pk.Payload.(*Wire)
		// The wire struct is extracted; recycle the packet shell.
		u.k.RawRelease(pk)
		if done {
			if isW {
				if u.iface != nil {
					// Ablation: relay the upcall through the
					// interface-layer daemon (one extra thread switch
					// each way, as in pre-continuation Panda).
					w := w
					t.Syscall()
					t.Flush()
					u.iface.PostFromThread(t, func(it *proc.Thread, _ uint64) {
						it.Call(pandaDepth)
						u.dispatch(it, w)
						it.Return(pandaDepth)
					}, 0)
				} else {
					u.dispatch(t, w)
				}
			}
		}
		t.Return(pandaDepth)
		// Drop the per-packet operation before blocking for the next one so
		// the fetch syscall isn't misattributed to a finished operation.
		t.SetOp(0)
	}
}

func (u *User) dispatch(t *proc.Thread, w *Wire) {
	switch w.Kind {
	case WireREQ:
		u.OnRequest(t, w)
	case WireREP:
		u.OnReply(t, w)
	case WireACK:
		u.OnAck(w)
	case WireGrpDATA, WireGrpACCEPT, WireGrpSYNC, WireGrpBB:
		u.OnMember(t, w)
	case WireRAW:
		if u.rawHandler != nil {
			u.rawHandler(t, w.From, w.Payload, w.Size)
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

// seqTraffic reports whether pk carries sequencer-bound group protocol
// traffic, and for which group.
func seqTraffic(pk *flip.Packet) (gid int, ok bool) {
	w, isW := pk.Payload.(*Wire)
	if !isW || !toSequencer(w.Kind) {
		return 0, false
	}
	return w.GID, true
}

// ownsSeqTraffic reports whether pk is sequencer traffic for a group this
// instance sequences. A co-located shard must not steal other groups'
// sequencer traffic from the receive daemon.
func (u *User) ownsSeqTraffic(pk *flip.Packet) bool {
	gid, ok := seqTraffic(pk)
	return ok && u.Sequences(gid)
}

// sequencerLoop is the body of group gid's sequencer thread. It blocks
// directly on the group's sequencer traffic so an arriving request
// dispatches this thread straight out of the interrupt handler (the
// 110 µs thread switch of §4.3, or 60 µs warm on a dedicated sequencer
// machine). It issues two system calls per message: one to fetch it and
// one to multicast it with its sequence number.
func (u *User) sequencerLoop(gid int) func(t *proc.Thread) {
	return func(t *proc.Thread) {
		reasm := flip.NewReassembler(u.sim, u.m.RetransTimeout)
		reasm.SetTimeoutCounter(u.mx.ReasmTimeouts())
		match := func(pk *flip.Packet) bool {
			g, ok := seqTraffic(pk)
			return ok && g == gid
		}
		for {
			pk := u.k.RawReceiveMatch(t, match)
			t.Call(pandaDepth)
			done := reasm.Add(pk)
			w, isW := pk.Payload.(*Wire)
			// The wire struct is extracted; recycle the packet shell.
			u.k.RawRelease(pk)
			if done && isW {
				u.OnSequencer(t, w)
			}
			t.Return(pandaDepth)
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

// NewHelper starts a helper thread with the given name on p.
func NewHelper(p *proc.Processor, name string) *Helper {
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
