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

type uwireKind uint8

const (
	uREQ uwireKind = iota + 1
	uREP
	uACK
	ugREQ
	ugDATA
	ugBB
	ugACCEPT
	ugRETR
	ugSYNC
	ugSTATUS
	uRAW
)

// uwire is the Panda protocol header + payload carried over raw FLIP.
type uwire struct {
	kind    uwireKind
	gid     int // group id (group protocol kinds only)
	from    int
	seq     uint64
	ackSeq  uint64
	tmpID   uint64
	lo, hi  uint64
	payload any
	size    int
}

// RawHandler receives Panda system-layer messages (used by the Table 1
// unicast/multicast microbenchmarks). It runs in the receive daemon and
// must run to completion.
type RawHandler func(t *proc.Thread, from int, payload any, size int)

// UserConfig configures a user-space Panda instance.
type UserConfig struct {
	// Groups lists the communication groups this instance participates in
	// (as member, sequencer, or both). When nil, the legacy
	// Members/Sequencer/HasGroup fields below describe a single group with
	// GID 0.
	Groups []GroupSpec
	// Members lists the processor ids participating in group
	// communication (empty disables the group module). A dedicated
	// sequencer machine is NOT listed here. Ignored when Groups is set.
	Members []int
	// Sequencer is the processor id whose instance runs the sequencer
	// thread. It may be a member (the default setup) or a dedicated
	// machine outside Members (the paper's "User-space-dedicated" run).
	// Ignored when Groups is set.
	Sequencer int
	// HasGroup enables the group module even for non-members (the
	// dedicated sequencer machine needs it). Ignored when Groups is set.
	HasGroup bool
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
	cfg UserConfig

	reasm      *flip.Reassembler
	daemon     *proc.Thread
	helper     *helper
	iface      *helper // interface-layer daemon (ablation), nil normally
	rpc        userRPC
	grps       []*userGroup // indexed by gid; nil entries for groups not held
	grpSends   []*gsend     // group send records whose send is over
	rawHandler RawHandler

	mx *userMetrics // nil when metrics are disabled
}

// userMetrics bundles the instance's metric handles (labeled by
// processor).
type userMetrics struct {
	rpcCalls        *metrics.Counter
	rpcRetrans      *metrics.Counter
	rpcUpcalls      *metrics.Counter
	rpcFailures     *metrics.Counter
	acksPiggybacked *metrics.Counter
	acksExplicit    *metrics.Counter
	rpcLatency      *metrics.Histogram
	reasmTimeouts   *metrics.Counter
	grpPBSends      *metrics.Counter
	grpBBSends      *metrics.Counter
	grpSendRetrans  *metrics.Counter
	grpDeliveries   *metrics.Counter
	grpRetransReqs  *metrics.Counter
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
		cfg: cfg,
	}
	if reg := u.sim.Metrics(); reg != nil {
		l := metrics.L("proc", p.Name())
		u.mx = &userMetrics{
			rpcCalls:        reg.Counter("panda.rpc_calls", l),
			rpcRetrans:      reg.Counter("panda.rpc_retransmissions", l),
			rpcUpcalls:      reg.Counter("panda.rpc_upcalls", l),
			rpcFailures:     reg.Counter("panda.rpc_failures", l),
			acksPiggybacked: reg.Counter("panda.acks_piggybacked", l),
			acksExplicit:    reg.Counter("panda.acks_explicit", l),
			rpcLatency:      reg.Histogram("panda.rpc_latency_us", l),
			reasmTimeouts:   reg.Counter("panda.reasm_timeouts", l),
			grpPBSends:      reg.Counter("panda.grp_pb_sends", l),
			grpBBSends:      reg.Counter("panda.grp_bb_sends", l),
			grpSendRetrans:  reg.Counter("panda.grp_send_retrans", l),
			grpDeliveries:   reg.Counter("panda.grp_deliveries", l),
			grpRetransReqs:  reg.Counter("panda.grp_retrans_requests", l),
		}
	}
	u.reasm = flip.NewReassembler(u.sim, u.m.RetransTimeout)
	if u.mx != nil {
		u.reasm.SetTimeoutCounter(u.mx.reasmTimeouts)
	}
	u.rpc.init(u)
	k.RawRegister()
	specs := cfg.Groups
	if specs == nil && (len(cfg.Members) > 0 || cfg.HasGroup) {
		// Legacy single-group configuration.
		specs = []GroupSpec{{Members: cfg.Members, Sequencer: cfg.Sequencer}}
	}
	for _, gs := range specs {
		g := &userGroup{}
		g.init(u, gs)
		for gs.GID >= len(u.grps) {
			u.grps = append(u.grps, nil)
		}
		u.grps[gs.GID] = g
		k.RawJoinGroup(groupAddr(gs.GID))
	}
	u.helper = newHelper(p)
	if cfg.InterfaceDaemon {
		u.iface = newNamedHelper(p, "pan-iface")
	}
	u.daemon = p.NewThread("pan-daemon", proc.PrioDaemon, u.daemonLoop)
	var owned []*userGroup
	for _, g := range u.grps {
		if g != nil && g.spec.Sequencer == u.id {
			owned = append(owned, g)
		}
	}
	if len(owned) > 0 {
		for _, g := range owned {
			g.initSequencer()
		}
		// Time a packet spends queued for a sequencer thread is sequencer
		// queueing, not ordinary receive-daemon queueing.
		k.RawWaitPhase(func(pk *flip.Packet) sim.PhaseID {
			if u.ownsSeqTraffic(pk) {
				return sim.PhaseSeqQueue
			}
			return sim.PhaseRecvQueue
		})
		if u.mx != nil {
			for _, g := range owned {
				ls := []metrics.Label{metrics.L("proc", p.Name())}
				if g.gid > 0 {
					ls = append(ls, metrics.L("gid", strconv.Itoa(g.gid)))
				}
				g.seqHistory = u.sim.Metrics().Gauge("panda.seq_history", ls...)
				g.seqReasm.SetTimeoutCounter(u.mx.reasmTimeouts)
			}
		}
		if !u.anyMember() {
			// Dedicated sequencer machine: drop member traffic (ordered
			// data, accepts, syncs) in the kernel so only the sequencer
			// threads ever run — keeping their context loaded (warm
			// dispatch, the paper's 60 µs instead of 110 µs).
			k.RawDiscard(func(pk *flip.Packet) bool { return !u.ownsSeqTraffic(pk) })
		}
		for _, g := range owned {
			g := g
			name := "pan-sequencer"
			if g.gid > 0 {
				name = "pan-sequencer-g" + strconv.Itoa(g.gid)
			}
			seq := p.NewThread(name, proc.PrioDaemon, g.sequencerLoop)
			// Everything a sequencer thread does — protocol work, crossings,
			// dispatch — is sequencer service from the client's point of view.
			seq.SetPhaseOverride(sim.PhaseSeqService)
		}
	}
	return u
}

func (u *User) groupEnabled() bool { return len(u.grps) > 0 }

// groupByGID returns the group with the given id, or nil when this
// instance does not hold it.
func (u *User) groupByGID(gid int) *userGroup {
	if gid < 0 || gid >= len(u.grps) {
		return nil
	}
	return u.grps[gid]
}

// ownsSeq reports whether this instance sequences any of its groups.
func (u *User) ownsSeq() bool {
	for _, g := range u.grps {
		if g != nil && g.spec.Sequencer == u.id {
			return true
		}
	}
	return false
}

// anyMember reports whether this instance is a member of any of its
// groups (false on a dedicated sequencer machine).
func (u *User) anyMember() bool {
	for _, g := range u.grps {
		if g != nil && g.isMember() {
			return true
		}
	}
	return false
}

// Mode reports UserSpace.
func (u *User) Mode() Mode { return UserSpace }

// ID reports the processor id.
func (u *User) ID() int { return u.id }

// HandleRaw registers the system-layer message upcall.
func (u *User) HandleRaw(h RawHandler) { u.rawHandler = h }

// HandleRPC registers the RPC request upcall.
func (u *User) HandleRPC(h RPCHandler) { u.rpc.handler = h }

// HandleGroup registers the ordered group delivery upcall (shared by
// every group of the instance).
func (u *User) HandleGroup(h GroupHandler) {
	for _, g := range u.grps {
		if g != nil {
			g.handler = h
		}
	}
}

// SystemSend is the Panda system-layer primitive of Table 1: a message
// straight onto FLIP via a system call (unicast to a processor, or
// multicast to the whole Panda group).
func (u *User) SystemSend(t *proc.Thread, dest int, payload any, size int, multicast bool) {
	w := &uwire{kind: uRAW, from: u.id, payload: payload, size: size}
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
	if u.ownsSeq() {
		// Sequencer traffic for owned groups is consumed directly by the
		// sequencer threads.
		filter = func(pk *flip.Packet) bool { return !u.ownsSeqTraffic(pk) }
	}
	for {
		pk := u.k.RawReceiveMatch(t, filter)
		t.Call(pandaDepth)
		done := u.reasm.Add(pk)
		w, isW := pk.Payload.(*uwire)
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
					u.iface.postFromThread(t, func(it *proc.Thread) {
						it.Call(pandaDepth)
						u.dispatch(it, w)
						it.Return(pandaDepth)
					})
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

func (u *User) dispatch(t *proc.Thread, w *uwire) {
	switch w.kind {
	case uREQ:
		u.rpc.handleREQ(t, w)
	case uREP:
		u.rpc.handleREP(t, w)
	case uACK:
		u.rpc.handleACK(t, w)
	case ugDATA, ugACCEPT, ugSYNC, ugBB:
		if g := u.groupByGID(w.gid); g != nil {
			g.memberHandle(t, w)
		}
	case uRAW:
		if u.rawHandler != nil {
			u.rawHandler(t, w.from, w.payload, w.size)
		}
	}
}

// seqTraffic reports whether pk carries sequencer-bound group protocol
// traffic, and for which group.
func seqTraffic(pk *flip.Packet) (gid int, ok bool) {
	w, isW := pk.Payload.(*uwire)
	if !isW {
		return 0, false
	}
	switch w.kind {
	case ugREQ, ugBB, ugRETR, ugSTATUS:
		return w.gid, true
	default:
		return 0, false
	}
}

// ownsSeqTraffic reports whether pk is sequencer traffic for a group this
// instance sequences. A co-located shard must not steal other groups'
// sequencer traffic from the receive daemon.
func (u *User) ownsSeqTraffic(pk *flip.Packet) bool {
	gid, ok := seqTraffic(pk)
	if !ok {
		return false
	}
	g := u.groupByGID(gid)
	return g != nil && g.spec.Sequencer == u.id
}

// helper is a protocol service thread that executes deferred actions
// (retransmissions, explicit acks, sync probes) scheduled by timers, which
// fire in driver context and therefore cannot issue syscalls themselves.
type helper struct {
	t   *proc.Thread
	sem proc.Semaphore
	q   []func(t *proc.Thread)
}

func newHelper(p *proc.Processor) *helper {
	return newNamedHelper(p, "pan-timer")
}

func newNamedHelper(p *proc.Processor, name string) *helper {
	h := &helper{}
	h.t = p.NewThread(name, proc.PrioDaemon, h.loop)
	return h
}

func (h *helper) loop(t *proc.Thread) {
	for {
		h.sem.Down(t)
		fn := h.q[0]
		n := copy(h.q, h.q[1:])
		h.q[n] = nil // clear the vacated slot so the closure can be GC'd
		h.q = h.q[:n]
		fn(t)
	}
}

// post enqueues an action from driver context (a timer callback).
func (h *helper) post(fn func(t *proc.Thread)) {
	h.q = append(h.q, fn)
	h.sem.UpFromDriver()
}

// postFromThread enqueues an action from thread context.
func (h *helper) postFromThread(t *proc.Thread, fn func(t *proc.Thread)) {
	h.q = append(h.q, fn)
	h.sem.Up(t)
}
