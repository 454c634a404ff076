package panda

import (
	"slices"
	"strconv"

	"amoebasim/internal/akernel"
	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

const (
	// rpcPortBase maps processor ids to Amoeba RPC ports.
	rpcPortBase akernel.Port = 1000
	// pandaGID is the Amoeba group of Panda group 0: Panda group g is
	// kernel group pandaGID + g.
	pandaGID akernel.GroupID = 7
	// maxRPCDaemons bounds the server daemon pool. Each guarded
	// operation that blocks holds one daemon (the paper's "increased
	// memory usage because of the blocked server thread").
	maxRPCDaemons = 64
)

// seqPtBase is the FLIP address space for the kernel sequencers'
// point-to-point endpoints (one per group).
const seqPtBase flip.Address = 0x9000_0000_0000_0000

func seqAddress(g akernel.GroupID) flip.Address { return seqPtBase | flip.Address(g) }

// kernPtBase is the FLIP address space for each kernel's own
// group-control endpoint (targets of unicast retransmissions).
const kernPtBase flip.Address = 0xD000_0000_0000_0000

func kernAddress(id int) flip.Address { return kernPtBase | flip.Address(id) }

// kernPlacement names the kernel's group trace events grp.* and traces
// its retransmission requests. The kernel has the BB method, and its
// interrupt handler runs both a machine's member and the sequencer it
// holds. A send nests no frames beyond its system call's.
var kernPlacement = &Placement{
	bb: true, seqInHandler: true,
	grpSend: "grp.send", grpDlv: "grp.dlv", grpSeq: "grp.seq", grpRetr: "grp.retr",
}

// Kernel is the kernel-space Panda implementation: wrapper routines that
// make Amoeba's in-kernel RPC and group protocols look like the Panda
// primitives. The wrapping itself is cheap; the cost shows up when the
// Orca runtime needs the asynchronous reply that Amoeba's RPC cannot
// express. The group protocol is Panda's group core run by the kernel's
// interrupt handler over its FLIP stack (kernLink).
type Kernel struct {
	id  int
	k   *akernel.Kernel
	p   *proc.Processor
	m   *model.CostModel
	sim *sim.Sim
	st  *flip.Stack

	rpcHandler RPCHandler
	grpHandler GroupHandler
	grp        *Groups     // nil without groups
	kgrps      []kernGroup // indexed by GID; zero for groups not held

	daemons   int
	available int

	mx *kernelMetrics // nil when metrics are disabled
}

// kernelMetrics is the panda.* series of one kernel-space instance,
// labeled by its processor. The relayed-replies counter tracks
// asynchronous replies that had to be routed back through the accepting
// daemon — the extra context switch the paper measures on guarded Orca
// operations.
type kernelMetrics struct {
	relayed metrics.Counter `metric:"panda.relayed_replies"`
	daemons metrics.Gauge   `metric:"panda.rpc_daemons"`
}

// kernGroupMetrics is groupMetrics under kernel space's series names,
// which it registers for each group, labeled by processor and group; the
// group core sees it through a conversion to groupMetrics.
type kernGroupMetrics struct {
	pbSends     metrics.Counter `metric:"akernel.grp_pb_sends"`
	bbSends     metrics.Counter `metric:"akernel.grp_bb_sends"`
	localSends  metrics.Counter `metric:"akernel.grp_local_sends"`
	sendRetrans metrics.Counter `metric:"akernel.grp_send_retrans"`
	deliveries  metrics.Counter `metric:"akernel.grp_deliveries"`
	retransReqs metrics.Counter `metric:"akernel.grp_retrans_requests"`
}

var _ Transport = (*Kernel)(nil)

// kernGroup is what the kernel keeps of one group beside the protocol
// state: its reassembly, the wires its interrupt handler has queued, and
// the grp_receive delivery queue.
type kernGroup struct {
	grp   *Groups // the instance's group core
	reasm *flip.Reassembler

	// inbox holds the wires whose protocol interrupt items are queued on
	// the processor, oldest first. The processor services its interrupt
	// items in FIFO order, so handleFn, bound once, always finds its wire
	// at the head and a received packet schedules no closure.
	inbox    []*Wire
	handleFn func()

	// queue holds the deliveries grp_receive has not yet taken; waiter
	// is the group daemon's, the one thread that receives.
	queue  proc.Queue[delivery, *recvWaiter]
	waiter recvWaiter
}

// delivery is one totally-ordered group message as grp_receive returns it.
type delivery struct {
	sender  int
	seqno   uint64
	payload any
	size    int
}

// recvWaiter is the group daemon parked in grp_receive.
type recvWaiter struct {
	t *proc.Thread
	d delivery // the message deliver handed over
}

// Accepts reports that grp_receive takes every delivery.
func (*recvWaiter) Accepts(delivery) bool { return true }

// KernelConfig configures a kernel-space Panda instance.
type KernelConfig struct {
	// Groups lists the communication groups. The kernel holds those it is
	// a member of; the in-kernel sequencer of group g runs inside the
	// kernel of its Sequencer.
	Groups []GroupSpec
}

// NewKernel creates and starts a kernel-space Panda instance on kernel k.
func NewKernel(k *akernel.Kernel, cfg KernelConfig) *Kernel {
	p := k.Processor()
	w := &Kernel{id: p.ID(), k: k, p: p, m: p.Model(), sim: p.Sim(), st: k.FLIP()}
	reg := w.sim.Metrics()
	if reg != nil {
		w.mx = new(kernelMetrics)
		reg.Register(w.mx, metrics.L("proc", p.Name()))
	}
	held := make([]GroupSpec, 0, len(cfg.Groups))
	for _, spec := range cfg.Groups {
		if slices.Contains(spec.Members, w.id) {
			held = append(held, spec)
		}
	}
	w.grp = newGroups(p, held, (*kernLink)(w), nil, kernPlacement)
	if w.grp != nil {
		w.kgrps = make([]kernGroup, len(w.grp.grps))
		w.st.Handle(flip.ProtoGroup, w.onPacket)
	}
	for _, spec := range held {
		gid := pandaGID + akernel.GroupID(spec.GID)
		kg := &w.kgrps[spec.GID]
		kg.grp, kg.reasm = w.grp, flip.NewReassembler(w.sim, w.m.RetransTimeout)
		kg.handleFn = kg.handleNext
		w.grp.byGID(spec.GID).handler = kg.deliver
		if reg != nil {
			lp, lg := metrics.L("proc", p.Name()), metrics.L("gid", strconv.Itoa(int(gid)))
			var history *metrics.Gauge
			if spec.Sequencer == w.id {
				history = reg.Gauge("akernel.seq_history", lp, lg)
			}
			mx := new(kernGroupMetrics)
			reg.Register(mx, lp, lg)
			w.grp.setMetrics(spec.GID, (*groupMetrics)(mx), history)
		}
		if spec.Sequencer == w.id {
			w.st.Register(seqAddress(gid))
		}
		w.st.Register(kernAddress(w.id))
		w.st.JoinGroup(akernel.GroupAddress(gid))
		name := "pan-grp-daemon"
		if spec.GID > 0 {
			name = "pan-grp-daemon-g" + strconv.Itoa(spec.GID)
		}
		p.NewThread(name, proc.PrioDaemon, func(t *proc.Thread) { w.groupDaemon(t, kg) })
	}
	w.spawnRPCDaemon()
	w.spawnRPCDaemon()
	return w
}

// Mode reports KernelSpace.
func (w *Kernel) Mode() Mode { return KernelSpace }

// ID reports the processor id.
func (w *Kernel) ID() int { return w.id }

// HandleRPC registers the request upcall.
func (w *Kernel) HandleRPC(h RPCHandler) { w.rpcHandler = h }

// HandleGroup registers the ordered group delivery upcall.
func (w *Kernel) HandleGroup(h GroupHandler) { w.grpHandler = h }

// Call performs the RPC through the Amoeba kernel protocol.
func (w *Kernel) Call(t *proc.Thread, dest int, req any, size int) (any, int, error) {
	return w.k.Trans(t, rpcPortBase+akernel.Port(dest), req, size)
}

// GroupSend broadcasts through the Amoeba kernel group protocol on the
// default group.
func (w *Kernel) GroupSend(t *proc.Thread, payload any, size int) error {
	return w.GroupSendTo(t, 0, payload, size)
}

// GroupSendTo broadcasts on a specific group (total order within the
// group; independent sequence spaces across groups). The system call
// crosses into the kernel before the protocol runs and returns after
// the sender's message has come back in order: under the register-window
// model, where Syscall, Call and Return fall relative to Block shows in
// simulated time.
func (w *Kernel) GroupSendTo(t *proc.Thread, group int, payload any, size int) error {
	g := w.grp.byGID(group)
	if g == nil {
		return errNoGroup
	}
	op := t.Op()
	topLevel := op == 0
	if topLevel {
		op = w.sim.CausalBegin(g.kind)
		t.SetOp(op)
	}
	t.Syscall()
	t.Call(2)
	err := w.grp.send(t, group, payload, size, true)
	t.Return(2)
	if topLevel {
		w.sim.CausalEnd(op, err != nil)
		t.SetOp(0)
	}
	return err
}

// kernLink is the kernel-space instance seen as the packet path of the
// group core: the kernel's FLIP stack, driven from its interrupt handler.
// Only a sender's first transmission runs in a thread.
type kernLink Kernel

// SendGroupWire sends w by FLIP: a member's request, retransmission
// request or status from its kernel's endpoint to the group's sequencer,
// its BB data to the group, and the sequencer's data, accepts and probes
// from the sequencer's endpoint to the group or to one kernel's. Data and
// accepts are sequencer service. A request to the sequencer this kernel
// runs leaves no wire: the interrupt handler takes it in place.
func (l *kernLink) SendGroupWire(t *proc.Thread, dest int, w *Wire, msgID uint64) {
	gid := pandaGID + akernel.GroupID(w.GID)
	msg := flip.Message{
		Proto: flip.ProtoGroup, MsgID: msgID, Hdr: l.m.GroupHeaderKernel,
		Size: w.Size, Payload: w, Op: w.Op,
	}
	switch w.Kind {
	case WireGrpREQ, WireGrpRETR, WireGrpSTATUS:
		if w.Kind == WireGrpREQ && dest == l.id {
			kg := &l.kgrps[w.GID]
			t.Flush()
			kg.inbox = append(kg.inbox, w)
			l.p.InterruptTagged(l.m.ProtoGroup, w.Op, sim.PhaseSeqService, kg.handleFn)
			return
		}
		msg.Src, msg.Dst = akernel.RawAddress(l.id), seqAddress(gid)
	case WireGrpBB:
		msg.Src, msg.Dst, msg.Multicast = akernel.RawAddress(l.id), akernel.GroupAddress(gid), true
	default:
		msg.Src = seqAddress(gid)
		if w.Kind != WireGrpSYNC {
			msg.SendPhase = sim.PhaseSeqService
		}
		if dest < 0 {
			msg.Dst, msg.Multicast = akernel.GroupAddress(gid), true
		} else {
			msg.Dst = kernAddress(dest)
		}
	}
	if t != nil {
		l.st.SendFromThread(t, msg)
		return
	}
	l.st.SendFromInterrupt(msg)
}

func (l *kernLink) NextMsgID() uint64 { return l.st.NextMsgID() }

// WakeCaller makes the sender whose message came back runnable, from the
// interrupt handler.
func (l *kernLink) WakeCaller(_, caller *proc.Thread) { caller.Unblock() }

// onPacket processes group packets at interrupt level. Fragment data is
// copied to the delivery buffer as it arrives; a whole message gets one
// protocol interrupt item, which is sequencer service when it is the
// traffic of a sequencer this kernel runs.
func (w *Kernel) onPacket(pk *flip.Packet) {
	wire, ok := pk.Payload.(*Wire)
	if !ok || wire.GID >= len(w.kgrps) || w.kgrps[wire.GID].grp == nil {
		return
	}
	kg := &w.kgrps[wire.GID]
	if pk.Length > 0 {
		w.p.InterruptTagged(w.m.Copy(pk.Length), pk.Op, sim.PhaseFrag, nil)
	}
	if !kg.reasm.Add(pk) {
		return
	}
	ph := sim.PhaseProtoRecv
	if toSequencer(wire.Kind) && w.grp.Sequences(wire.GID) {
		ph = sim.PhaseSeqService
	}
	kg.inbox = append(kg.inbox, wire)
	w.p.InterruptTagged(w.m.ProtoGroup, wire.Op, ph, kg.handleFn)
}

// handleNext handles the oldest queued wire once its protocol interrupt
// item has been serviced: BB data goes to the member and then, on the
// sequencer's kernel, to the sequencer; the rest goes to one side.
func (kg *kernGroup) handleNext() {
	w := kg.inbox[0]
	n := copy(kg.inbox, kg.inbox[1:])
	kg.inbox[n] = nil
	kg.inbox = kg.inbox[:n]
	seq := toSequencer(w.Kind)
	if !seq || w.Kind == WireGrpBB {
		kg.grp.onMember(nil, w)
	}
	if seq && kg.grp.Sequences(w.GID) {
		kg.grp.onSequencer(nil, w)
	}
}

// deliver is the group's delivery upcall, at interrupt level: it hands
// the message to a thread blocked in grp_receive, or queues it.
func (kg *kernGroup) deliver(_ *proc.Thread, sender int, seqno uint64, payload any, size int) {
	d := delivery{sender: sender, seqno: seqno, payload: payload, size: size}
	if rw, ok := kg.queue.Put(d, kg.grp.sim.Now()); ok {
		rw.d = d
		rw.t.Unblock()
	}
}

// receive is grp_receive: it blocks t until the next totally-ordered
// message of the group is delivered, crossing into the kernel and back.
func (kg *kernGroup) receive(t *proc.Thread) delivery {
	t.Syscall()
	t.Call(2)
	d, _, ok := kg.queue.Take(&kg.waiter)
	if !ok {
		kg.waiter.t = t
		kg.queue.Wait(&kg.waiter)
		t.Block()
		// Only deliver wakes the daemon, after taking its waiter off the
		// queue: once Block returns nothing else holds the waiter.
		d, kg.waiter.d = kg.waiter.d, delivery{}
	}
	t.Return(2)
	return d
}

// kernCtx binds a request to the daemon thread that accepted it, because
// Amoeba demands that get_request and put_reply are issued by the same
// thread. The daemon owns its context and request record and reuses them
// for every request it serves.
type kernCtx struct {
	req     akernel.Request
	daemon  *proc.Thread
	payload any
	size    int
	replied bool // reply produced synchronously by the handler
	waiting bool // daemon is blocked awaiting an asynchronous reply
}

func (w *Kernel) spawnRPCDaemon() {
	w.daemons++
	w.available++
	if w.mx != nil {
		w.mx.daemons.Set(int64(w.daemons))
	}
	name := "pan-rpc-daemon-" + strconv.Itoa(w.daemons)
	w.p.NewThread(name, proc.PrioDaemon, w.rpcDaemon)
}

// rpcDaemon is the wrapper's RPC server loop: wait for a request, upcall
// the Panda handler, and — if the handler did not reply synchronously —
// block until another thread supplies the reply, then send it with
// put_reply from this thread (Amoeba's restriction). That block/signal
// round trip is the extra context switch the paper measures on guarded
// Orca operations.
func (w *Kernel) rpcDaemon(t *proc.Thread) {
	port := rpcPortBase + akernel.Port(w.id)
	kc := &kernCtx{daemon: t}
	ctx := &RPCContext{impl: kc}
	req := &kc.req
	for {
		w.k.GetRequest(t, port, req)
		w.available--
		if w.available == 0 && w.daemons < maxRPCDaemons {
			w.spawnRPCDaemon()
		}
		kc.payload, kc.size, kc.replied, kc.waiting = nil, 0, false, false
		ctx.From = req.ClientKernel()
		if w.rpcHandler != nil {
			w.rpcHandler(t, ctx, req.Payload, req.Size)
		}
		if !kc.replied {
			kc.waiting = true
			t.Block()
			w.k.PutReply(t, req, kc.payload, kc.size)
		}
		w.available++
	}
}

// Reply answers a request. From the accepting daemon it maps directly to
// put_reply. From any other thread it must signal the daemon through the
// kernel and have it send the reply — undoing the Orca runtime's
// continuation optimization.
func (w *Kernel) Reply(t *proc.Thread, ctx *RPCContext, payload any, size int) {
	kc, ok := ctx.impl.(*kernCtx)
	if !ok {
		panic("panda: Reply with foreign RPCContext")
	}
	if t == kc.daemon && !kc.waiting {
		kc.replied = true
		w.k.PutReply(t, &kc.req, payload, size)
		return
	}
	kc.payload = payload
	kc.size = size
	if w.mx != nil {
		w.mx.relayed.Inc()
	}
	// Signaling another kernel thread goes through the kernel.
	t.Syscall()
	t.Flush()
	kc.daemon.Unblock()
}

// groupDaemon receives the ordered messages of one group and upcalls the
// handler.
func (w *Kernel) groupDaemon(t *proc.Thread, kg *kernGroup) {
	for {
		d := kg.receive(t)
		if w.grpHandler != nil {
			w.grpHandler(t, d.sender, d.seqno, d.payload, d.size)
		}
	}
}
