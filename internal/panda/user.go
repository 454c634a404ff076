package panda

import (
	"amoebasim/internal/akernel"
	"amoebasim/internal/flip"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// pandaGroupAddr is the FLIP group address of Panda group 0; group g
// multicasts on pandaGroupAddr + g (see groupAddr).
const pandaGroupAddr flip.Address = 0xE000_0000_0000_0001

// groupAddr is the FLIP multicast address of Panda group gid.
func groupAddr(gid int) flip.Address { return pandaGroupAddr + flip.Address(gid) }

// userLink is the user-space instance seen as the port of its library:
// the kernel's raw FLIP interface, reached by system call.
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

// SendSystem charges the fragmentation layer and sends w by raw FLIP, to
// the FLIP multicast address of every instance when dest is -1.
func (l *userLink) SendSystem(t *proc.Thread, dest int, w *Wire, msgID uint64, hdr int) {
	t.ChargeP(sim.PhaseFrag, l.m.FragLayer)
	if dest < 0 {
		l.k.RawSend(t, pandaGroupAddr, msgID, hdr, w.Size, w, true)
		return
	}
	l.k.RawSend(t, akernel.RawAddress(dest), msgID, hdr, w.Size, w, false)
}

// Receiver fetches each packet by a raw FLIP system call and reassembles
// it in user space.
func (l *userLink) Receiver(match func(*Wire) bool, seq bool, r *flip.Reassembler) func(t *proc.Thread) (any, bool) {
	var pkMatch func(*flip.Packet) bool
	if match != nil {
		pkMatch = func(pk *flip.Packet) bool {
			w, _ := pk.Payload.(*Wire)
			return match(w)
		}
	}
	wait := sim.PhaseRecvQueue
	if seq {
		wait = sim.PhaseSeqQueue
	}
	return l.k.RawReceiver(pkMatch, wait, r)
}

// Discard drops matching packets in the kernel's interrupt handler,
// without waking any thread.
func (l *userLink) Discard(drop func(*Wire) bool) {
	l.k.RawDiscard(func(pk *flip.Packet) bool {
		w, _ := pk.Payload.(*Wire)
		return drop(w)
	})
}

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

// User is the user-space Panda implementation: the Panda library, with
// its own RPC and totally-ordered group protocols, running in user space
// on the kernel's raw FLIP interface.
type User struct {
	Library // over the raw FLIP interface (userLink)

	k *akernel.Kernel
	m *model.CostModel
}

var _ Transport = (*User)(nil)
var _ NonblockingSender = (*User)(nil)

// NewUser creates and starts a user-space Panda instance on kernel k.
func NewUser(k *akernel.Kernel, cfg UserConfig) *User {
	p := k.Processor()
	u := &User{k: k, m: p.Model()}
	k.RawRegister()
	for _, gs := range cfg.Groups {
		k.RawJoinGroup(groupAddr(gs.GID))
	}
	u.start(p, k.FLIP().Network(), (*userLink)(u), UserSpace, cfg.Groups, cfg.InterfaceDaemon)
	u.noPiggyback = cfg.NoPiggyback
	return u
}

// GroupSendNB is the §6 extension: a totally-ordered broadcast on the
// default group that does not wait for the sequencer round trip.
func (u *User) GroupSendNB(t *proc.Thread, payload any, size int) error {
	return u.send(t, 0, payload, size, false)
}
