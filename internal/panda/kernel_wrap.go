package panda

import (
	"fmt"

	"amoebasim/internal/akernel"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
)

const (
	// rpcPortBase maps processor ids to Amoeba RPC ports.
	rpcPortBase akernel.Port = 1000
	// pandaGID is the Amoeba group used by the kernel-space
	// implementation.
	pandaGID akernel.GroupID = 7
	// maxRPCDaemons bounds the server daemon pool. Each guarded
	// operation that blocks holds one daemon (the paper's "increased
	// memory usage because of the blocked server thread").
	maxRPCDaemons = 64
)

// Kernel is the kernel-space Panda implementation: wrapper routines that
// make Amoeba's in-kernel RPC and group protocols look like the Panda
// primitives. The wrapping itself is cheap; the cost shows up when the
// Orca runtime needs the asynchronous reply that Amoeba's RPC cannot
// express.
type Kernel struct {
	id int
	k  *akernel.Kernel
	p  *proc.Processor
	m  *model.CostModel

	rpcHandler RPCHandler
	grpHandler GroupHandler
	gids       []akernel.GroupID // kernel group id per Panda group, indexed by GID

	daemons   int
	available int

	// Metric handles (nil when metrics are disabled). The relayed-replies
	// counter tracks asynchronous replies that had to be routed back
	// through the accepting daemon — the extra context switch the paper
	// measures on guarded Orca operations.
	mxRelayed *metrics.Counter
	mxDaemons *metrics.Gauge
}

var _ Transport = (*Kernel)(nil)

// KernelConfig configures a kernel-space Panda instance.
type KernelConfig struct {
	// Groups lists the communication groups (the in-kernel sequencer of
	// group g runs inside the kernel of its Sequencer). When nil, the
	// legacy Members/Sequencer fields describe a single group with GID 0.
	Groups []GroupSpec
	// Members lists the processor ids in the group (empty disables group
	// communication). The sequencer runs inside the kernel of Sequencer.
	// Ignored when Groups is set.
	Members   []int
	Sequencer int
}

// NewKernel creates and starts a kernel-space Panda instance on kernel k.
func NewKernel(k *akernel.Kernel, cfg KernelConfig) (*Kernel, error) {
	p := k.Processor()
	w := &Kernel{id: p.ID(), k: k, p: p, m: p.Model()}
	if reg := p.Sim().Metrics(); reg != nil {
		l := metrics.L("proc", p.Name())
		w.mxRelayed = reg.Counter("panda.relayed_replies", l)
		w.mxDaemons = reg.Gauge("panda.rpc_daemons", l)
	}
	specs := cfg.Groups
	if specs == nil && len(cfg.Members) > 0 {
		// Legacy single-group configuration.
		specs = []GroupSpec{{Members: cfg.Members, Sequencer: cfg.Sequencer}}
	}
	for _, gs := range specs {
		inGroup := false
		for _, m := range gs.Members {
			if m == w.id {
				inGroup = true
			}
		}
		gid := pandaGID + akernel.GroupID(gs.GID)
		for gs.GID >= len(w.gids) {
			w.gids = append(w.gids, 0)
		}
		w.gids[gs.GID] = gid
		if !inGroup {
			continue
		}
		if err := k.GroupConfigure(gid, gs.Members, gs.Sequencer); err != nil {
			return nil, fmt.Errorf("panda: configure group %d: %w", gs.GID, err)
		}
		if gs.CausalKind != "" {
			k.GroupCausalKind(gid, gs.CausalKind)
		}
		name := "pan-grp-daemon"
		if gs.GID > 0 {
			name = fmt.Sprintf("pan-grp-daemon-g%d", gs.GID)
		}
		dgid := gid
		p.NewThread(name, proc.PrioDaemon, func(t *proc.Thread) { w.groupDaemon(t, dgid) })
	}
	w.spawnRPCDaemon()
	w.spawnRPCDaemon()
	return w, nil
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
// group; independent sequence spaces across groups).
func (w *Kernel) GroupSendTo(t *proc.Thread, group int, payload any, size int) error {
	if group < 0 || group >= len(w.gids) || w.gids[group] == 0 {
		return fmt.Errorf("panda: group %d not configured", group)
	}
	return w.k.GrpSend(t, w.gids[group], payload, size)
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
	w.mxDaemons.Set(int64(w.daemons))
	name := fmt.Sprintf("pan-rpc-daemon-%d", w.daemons)
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
	w.mxRelayed.Inc()
	// Signaling another kernel thread goes through the kernel.
	t.Syscall()
	t.Flush()
	kc.daemon.Unblock()
}

// groupDaemon receives ordered group messages and upcalls the handler.
func (w *Kernel) groupDaemon(t *proc.Thread, gid akernel.GroupID) {
	for {
		d, err := w.k.GrpReceive(t, gid)
		if err != nil {
			return
		}
		if w.grpHandler != nil {
			w.grpHandler(t, d.Sender, d.Seqno, d.Payload, d.Size)
		}
	}
}
