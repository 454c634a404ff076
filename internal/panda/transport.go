// Package panda implements the Panda communication platform that the Orca
// runtime system is built on, in both variants the paper compares:
//
//   - UserSpace: Panda's own protocols — a 2-way stop-and-wait RPC with
//     piggybacked acknowledgements, and a sequencer-based totally-ordered
//     group protocol — running as a user-space library directly on the
//     kernel's low-level FLIP interface.
//   - KernelSpace: Amoeba's in-kernel protocols. Thin wrapper routines
//     over the kernel's 3-way RPC work around its restrictions (the
//     same-thread get_request/put_reply rule) at the cost of extra
//     context switches, and the same group protocol runs in the
//     kernel's interrupt handler over its FLIP stack.
//
// The RPC and the group protocol are each one state machine (RPC,
// Groups), which a placement runs over its own packet path (Link). User
// space and bypass share one user-level library around them (Library):
// the system layer's receive thread, the wire dispatch, a sequencer
// thread per sequenced group and the sequencer-traffic classifier. Each
// supplies only its Port: raw FLIP by system call in user space, a
// user-mapped queue pair in package bypass. Every variant implements the
// same Transport interface, so the Orca RTS and the benchmarks are
// implementation-agnostic.
package panda

import (
	"fmt"
	"strings"

	"amoebasim/internal/proc"
)

// Mode selects a Panda implementation: the paper's two columns plus the
// modern kernel-bypass transport.
type Mode int

const (
	// KernelSpace wraps Amoeba's in-kernel protocols.
	KernelSpace Mode = iota + 1
	// UserSpace runs Panda's own protocols over the kernel FLIP interface.
	UserSpace
	// Bypass runs Panda's protocols over a user-mapped NIC queue pair:
	// no syscall crossing, no kernel copy, poll/interrupt/hybrid dispatch
	// (implemented by internal/bypass).
	Bypass
)

func (m Mode) String() string {
	switch m {
	case KernelSpace:
		return "kernel-space"
	case UserSpace:
		return "user-space"
	case Bypass:
		return "bypass"
	default:
		return "unknown"
	}
}

// AllModes lists every implementation in the tables' column order.
func AllModes() []Mode { return []Mode{KernelSpace, UserSpace, Bypass} }

// ParseImpl resolves an implementation name ("kernel-space"/"kernel",
// "user-space"/"user", "bypass") to its Mode. The empty string defaults
// to UserSpace, the paper's primary subject.
func ParseImpl(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return UserSpace, nil
	case "kernel-space", "kernel":
		return KernelSpace, nil
	case "user-space", "user":
		return UserSpace, nil
	case "bypass", "kernel-bypass":
		return Bypass, nil
	default:
		return 0, fmt.Errorf("panda: unknown implementation %q (kernel-space, user-space or bypass)", s)
	}
}

// RPCContext identifies one in-progress server-side RPC between the
// request upcall and the reply. With the user-space implementation the
// reply may be sent from any thread (asynchronous pan_rpc_reply); the
// kernel-space implementation emulates that by signaling the daemon thread
// that accepted the request.
type RPCContext struct {
	// From is the caller's processor id.
	From int

	impl any
}

// RPCHandler is the implicit-receipt upcall for incoming RPC requests. It
// runs in a daemon thread (t) and must run to completion quickly; long
// waits must be converted into continuations, with Reply called later.
// Every request must eventually be answered via Transport.Reply.
type RPCHandler func(t *proc.Thread, ctx *RPCContext, req any, size int)

// GroupHandler is the upcall for totally-ordered group messages. It runs
// to completion in the receiving daemon thread.
type GroupHandler func(t *proc.Thread, sender int, seqno uint64, payload any, size int)

// GroupSpec describes one communication group of a (possibly sharded)
// configuration. Groups are identified by small dense ids; each has its
// own sequencer processor and an independent sequence space, so a pool can
// partition its groups across k sequencer shards while total order is
// preserved within every group.
type GroupSpec struct {
	// GID is the group id (0 is the default group GroupSend uses).
	GID int
	// Members are the processor ids belonging to the group. Every
	// transport keeps the slice itself, so the specs of one pool can share
	// one list; it must not be modified after set-up.
	Members []int
	// Sequencer is the processor id sequencing this group's traffic.
	Sequencer int
	// CausalKind labels operations begun on this group for the causal
	// tracer ("" = "group"); sharded pools use it to attribute latency per
	// shard.
	CausalKind string
}

// Transport is the Panda interface used by the Orca runtime system:
// point-to-point RPC plus totally-ordered group communication among all
// processors of the run.
type Transport interface {
	// Mode reports which implementation this is.
	Mode() Mode

	// Call performs an RPC to the Panda instance on processor dest,
	// blocking the calling thread until the reply arrives.
	Call(t *proc.Thread, dest int, req any, size int) (any, int, error)

	// HandleRPC registers the request upcall (one per instance).
	HandleRPC(h RPCHandler)

	// Reply answers a request previously delivered to the RPC handler.
	// User-space: sent directly from the calling thread. Kernel-space:
	// relayed through the daemon thread bound to the request.
	Reply(t *proc.Thread, ctx *RPCContext, payload any, size int)

	// GroupSend broadcasts a message on the default group (GID 0) with
	// total ordering, blocking the caller until its own message is
	// delivered back in order.
	GroupSend(t *proc.Thread, payload any, size int) error

	// GroupSendTo broadcasts on a specific group. Total order is
	// guaranteed within the group; distinct groups order independently.
	GroupSendTo(t *proc.Thread, group int, payload any, size int) error

	// HandleGroup registers the ordered-delivery upcall (shared by every
	// group of the instance).
	HandleGroup(h GroupHandler)

	// ID reports this instance's processor id.
	ID() int
}

// NonblockingSender is the §6 "future work" extension, implemented by the
// user-space transport only: a broadcast that does not wait for the
// sequencer round trip. Total ordering of delivery is preserved; the
// sender continues immediately.
type NonblockingSender interface {
	GroupSendNB(t *proc.Thread, payload any, size int) error
}

// GroupLink is the part of a placement's packet path the group core
// uses.
type GroupLink interface {
	// SendGroupWire transmits w, a group protocol message, to processor
	// dest, or multicasts it on w's group when dest is -1, as message
	// msgID, charging t for the path; t is nil at interrupt level.
	SendGroupWire(t *proc.Thread, dest int, w *Wire, msgID uint64)
	// NextMsgID returns a fresh message id.
	NextMsgID() uint64
	// WakeCaller runs in the receive thread t, nil at interrupt level,
	// once a reply has completed the call of thread caller, or once the
	// group message of the blocked sender caller came back in order.
	WakeCaller(t, caller *proc.Thread)
}

// Link is a placement's packet path beneath the RPC and group cores: the
// part of a protocol that differs between the placements running it.
// Timers and protocol costs stay with the cores.
type Link interface {
	GroupLink
	// SendWire transmits w, an RPC request, reply or acknowledgement, to
	// processor dest as message msgID, charging t for the path.
	SendWire(t *proc.Thread, dest int, w *Wire, msgID uint64)
	// BeforeRetransmit runs, from a timer, before an RPC request to dest
	// is sent again.
	BeforeRetransmit(dest int)
}

// Placement is what else a placement fixes at construction: the call
// depth of its protocol stack, the names of its trace events and of the
// library's threads, whether its group protocol has the BB method and
// whether its sequencer runs in the member's handler. Its strings are
// built once, so an untraced call or send boxes nothing.
type Placement struct {
	depth                                    int
	bb                                       bool
	req, done, fail, ack, upcall, serve, rep string
	repFmt                                   string // detail format of rep
	grpSend, grpDlv, grpSeq                  string
	grpRetr                                  string // "" when retransmission requests are not traced
	// timerThread, recvThread and seqThread name the Library's timer
	// helper, receive thread and sequencer threads ("" in kernel space,
	// which runs no Library).
	timerThread, recvThread, seqThread string
	// seqInHandler is set where one handler serves a machine's member and
	// the sequencer it runs, as the kernel's interrupt handler does. A
	// send from that machine is then sequenced in place, and the member
	// keeps the BB data it took itself, so the sequencer does not hand it
	// the message again.
	seqInHandler bool
}

// newPlacement names the RPC trace events rpc.req, rpc.rep and so on,
// the group ones grp.send, grp.dlv and grp.seq, and the library's timer
// helper, receive thread and sequencer threads threads+"-timer",
// threads+"-"+recv and threads+"-sequencer"; it ends the RPC reply's
// trace detail with note, nests every send depth frames deep, and sends
// group messages above BBThreshold by the BB method when bb is set.
func newPlacement(depth int, rpc, note, grp string, bb bool, threads, recv string) *Placement {
	return &Placement{
		depth: depth, bb: bb,
		req: rpc + ".req", done: rpc + ".done", fail: rpc + ".fail", ack: rpc + ".ack",
		upcall: rpc + ".upcall", serve: rpc + ".serve", rep: rpc + ".rep",
		repFmt:  "seq=%d size=%d (" + note + ")",
		grpSend: grp + ".send", grpDlv: grp + ".dlv", grpSeq: grp + ".seq",
		timerThread: threads + "-timer", recvThread: threads + "-" + recv, seqThread: threads + "-sequencer",
	}
}
