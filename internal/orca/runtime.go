package orca

import (
	"fmt"

	"amoebasim/internal/metrics"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// wireOverhead is the marshaled size of an invocation descriptor beyond
// the operation arguments.
const wireOverhead = 16

// rpcWire is a remote invocation request. guard optionally overrides the
// operation's static guard for this invocation (Orca guards may reference
// operation parameters).
type rpcWire struct {
	obj     ObjectID
	op      string
	args    any
	argSize int
	guard   GuardFunc
}

// bcastWire is a broadcast write operation on a replicated object.
type bcastWire struct {
	obj     ObjectID
	op      string
	args    any
	argSize int
	from    int
	invID   uint64
	nb      bool
	guard   GuardFunc
}

// Program is one parallel Orca program instantiated across a cluster: the
// shared-object declarations plus one Runtime per worker processor.
type Program struct {
	rts    []*Runtime
	nextID ObjectID
}

// Runtime is the per-processor Orca RTS instance.
type Runtime struct {
	id      int
	tr      panda.Transport
	p       *proc.Processor
	objects map[ObjectID]*instance
	pending map[uint64]*localInv
	invSeq  uint64
	invs    []*localInv // free list (see newInv)

	// nonblockingWrites enables the §6 extension for operations marked
	// AllowNB (user-space transport only).
	nonblockingWrites bool

	mx *orcaMetrics // nil when metrics are disabled
}

// orcaMetrics bundles the runtime's metric handles (labeled by processor).
type orcaMetrics struct {
	guardBlocks  *metrics.Counter // operations suspended on a false guard
	guardRetries *metrics.Counter // guard re-evaluations that stayed false
	bcastWrites  *metrics.Counter // replicated-write broadcasts issued
	remoteRPCs   *metrics.Counter // invocations shipped to a remote owner
}

// NewProgram creates Orca runtimes over the given transports (one per
// worker processor, in processor order).
func NewProgram(transports []panda.Transport, procs []*proc.Processor) *Program {
	pg := &Program{}
	for i, tr := range transports {
		rt := &Runtime{
			id:      tr.ID(),
			tr:      tr,
			p:       procs[i],
			objects: make(map[ObjectID]*instance),
			pending: make(map[uint64]*localInv),
		}
		if reg := procs[i].Sim().Metrics(); reg != nil {
			l := metrics.L("proc", procs[i].Name())
			rt.mx = &orcaMetrics{
				guardBlocks:  reg.Counter("orca.guard_blocks", l),
				guardRetries: reg.Counter("orca.guard_retries", l),
				bcastWrites:  reg.Counter("orca.bcast_writes", l),
				remoteRPCs:   reg.Counter("orca.remote_rpcs", l),
			}
		}
		tr.HandleRPC(rt.onRPC)
		tr.HandleGroup(rt.onGroup)
		pg.rts = append(pg.rts, rt)
	}
	return pg
}

// Runtime returns the RTS instance of processor i.
func (pg *Program) Runtime(i int) *Runtime { return pg.rts[i] }

// Procs reports the number of worker processors.
func (pg *Program) Procs() int { return len(pg.rts) }

// EnableNonblockingWrites turns on the §6 nonblocking-broadcast extension
// for operations marked AllowNB. It is only effective on user-space
// transports; kernel-space transports silently keep blocking semantics
// ("with the Amoeba broadcast protocol this optimization would require
// modifications to the kernel").
func (pg *Program) EnableNonblockingWrites() {
	for _, rt := range pg.rts {
		if _, ok := rt.tr.(panda.NonblockingSender); ok {
			rt.nonblockingWrites = true
		}
	}
}

// Declare creates a shared object on every processor. Replicated objects
// get a copy of the state everywhere (init is called once per processor);
// owned objects instantiate state only on the owner.
func (pg *Program) Declare(name string, typ *ObjType, placement Placement, owner int, init func() State) Handle {
	pg.nextID++
	h := Handle{ID: pg.nextID, Name: name, Placement: placement, Owner: owner}
	for _, rt := range pg.rts {
		inst := &instance{h: h, typ: typ}
		if placement == Replicated || rt.id == owner {
			inst.state = init()
		}
		rt.objects[h.ID] = inst
	}
	return h
}

// DeclareReplicated declares a replicated object (read-mostly per the
// compiler hints).
func (pg *Program) DeclareReplicated(name string, typ *ObjType, init func() State) Handle {
	return pg.Declare(name, typ, Replicated, 0, init)
}

// DeclareOwned declares a single-copy object stored on owner.
func (pg *Program) DeclareOwned(name string, typ *ObjType, owner int, init func() State) Handle {
	return pg.Declare(name, typ, Owned, owner, init)
}

// Go spawns an Orca worker process (thread) on this runtime's processor.
func (rt *Runtime) Go(name string, body func(t *proc.Thread)) *proc.Thread {
	return rt.p.NewThread(name, proc.PrioNormal, body)
}

// ID reports the processor id.
func (rt *Runtime) ID() int { return rt.id }

// Transport exposes the underlying Panda transport (for instrumentation).
func (rt *Runtime) Transport() panda.Transport { return rt.tr }

// Invoke performs one Orca operation on a shared object from thread t,
// blocking until the operation (including its guard) has executed and the
// result is available.
func (rt *Runtime) Invoke(t *proc.Thread, h Handle, opName string, args any, argSize int) (any, int, error) {
	return rt.invoke(t, h, opName, args, argSize, nil)
}

// InvokeGuarded is Invoke with a per-invocation guard, for Orca operations
// whose guard expression references the operation's parameters (e.g.
// "await row k"). The guard overrides the operation's static guard.
func (rt *Runtime) InvokeGuarded(t *proc.Thread, h Handle, opName string, args any, argSize int, guard GuardFunc) (any, int, error) {
	return rt.invoke(t, h, opName, args, argSize, guard)
}

func (rt *Runtime) invoke(t *proc.Thread, h Handle, opName string, args any, argSize int, guard GuardFunc) (any, int, error) {
	inst := rt.objects[h.ID]
	if inst == nil {
		return nil, 0, fmt.Errorf("orca: unknown object %d on processor %d", h.ID, rt.id)
	}
	op := inst.typ.Ops[opName]
	if op == nil {
		return nil, 0, fmt.Errorf("orca: object %s has no operation %q", h.Name, opName)
	}
	// Each Orca invocation is one causally traced operation; the transport
	// work it triggers (RPC or ordered broadcast) attributes to it.
	cop := t.Op()
	topLevel := cop == 0
	if topLevel {
		kind := "orca.write"
		if op.ReadOnly {
			kind = "orca.read"
		}
		cop = rt.p.Sim().CausalBegin(kind)
		t.SetOp(cop)
	}
	t.Charge(opOverhead)

	res, n, err := rt.dispatch(t, h, inst, op, opName, args, argSize, guard)
	if topLevel {
		rt.p.Sim().CausalEnd(cop, err != nil)
		t.SetOp(0)
	}
	return res, n, err
}

func (rt *Runtime) dispatch(t *proc.Thread, h Handle, inst *instance, op *OpDef, opName string, args any, argSize int, guard GuardFunc) (any, int, error) {
	switch {
	case h.Placement == Replicated && op.ReadOnly:
		// Read on a replicated object: local, no communication.
		rt.waitNB(t, inst)
		res, n := rt.applyLocal(t, inst, op, args, guard)
		inst.reads++
		return res, n, nil

	case h.Placement == Replicated:
		return rt.invokeBroadcast(t, inst, op, opName, args, argSize, guard)

	case h.Owner == rt.id:
		res, n := rt.applyLocal(t, inst, op, args, guard)
		if op.ReadOnly {
			inst.reads++
		} else {
			inst.writes++
		}
		return res, n, nil

	default:
		// Remote invocation on a single-copy object.
		inst.rpcs++
		if rt.mx != nil {
			rt.mx.remoteRPCs.Inc()
		}
		w := &rpcWire{obj: h.ID, op: opName, args: args, argSize: argSize, guard: guard}
		return rt.tr.Call(t, h.Owner, w, argSize+wireOverhead)
	}
}

// invokeBroadcast implements write operations on replicated objects: the
// operation is broadcast with total ordering and applied by every member;
// the invoker waits until its own copy has executed it (possibly delayed
// by a guard).
func (rt *Runtime) invokeBroadcast(t *proc.Thread, inst *instance, op *OpDef, opName string, args any, argSize int, guard GuardFunc) (any, int, error) {
	inst.broadcasts++
	if rt.mx != nil {
		rt.mx.bcastWrites.Inc()
	}
	rt.invSeq++
	w := &bcastWire{
		obj: inst.h.ID, op: opName, args: args, argSize: argSize,
		from: rt.id, invID: rt.invSeq, guard: guard,
	}
	size := argSize + wireOverhead

	if rt.nonblockingWrites && op.AllowNB {
		nb, ok := rt.tr.(panda.NonblockingSender)
		if ok {
			w.nb = true
			inst.outstandingNB++
			if err := nb.GroupSendNB(t, w, size); err != nil {
				inst.outstandingNB--
				return nil, 0, fmt.Errorf("orca: broadcast %s.%s: %w", inst.h.Name, opName, err)
			}
			return nil, 0, nil
		}
	}

	inv := rt.newInv()
	rt.pending[w.invID] = inv
	if err := rt.tr.GroupSend(t, w, size); err != nil {
		// The record is not recycled: its write may still have completed.
		delete(rt.pending, w.invID)
		return nil, 0, fmt.Errorf("orca: broadcast %s.%s: %w", inst.h.Name, opName, err)
	}
	// The group handler signals once the local copy has executed the
	// operation (a semaphore, so the order of arrival cannot lose it).
	inv.sem.Down(t)
	delete(rt.pending, w.invID)
	res, n := rt.freeInv(inv)
	return res, n, nil
}

// newInv takes an invocation record from the free list, or mints one.
func (rt *Runtime) newInv() *localInv {
	if n := len(rt.invs); n > 0 {
		inv := rt.invs[n-1]
		rt.invs = rt.invs[:n-1]
		return inv
	}
	return &localInv{}
}

// freeInv returns the result inv carried and recycles it. The caller is
// its invoker, whose Down on it has returned and who has taken it off
// pending: exactly one completion signals a record, so nothing else
// holds it any more.
func (rt *Runtime) freeInv(inv *localInv) (any, int) {
	res, n := inv.result, inv.resSize
	inv.result, inv.resSize = nil, 0
	rt.invs = append(rt.invs, inv)
	return res, n
}

// waitNB delays local reads while the process has nonblocking writes in
// flight, preserving program order (sequential consistency for the
// issuing process).
func (rt *Runtime) waitNB(t *proc.Thread, inst *instance) {
	for inst.outstandingNB > 0 {
		inst.nbWaiters = append(inst.nbWaiters, t)
		t.Block()
	}
}

// applyLocal executes an operation against the local copy, blocking on the
// guard via a continuation if necessary.
func (rt *Runtime) applyLocal(t *proc.Thread, inst *instance, op *OpDef, args any, guard GuardFunc) (any, int) {
	if guard == nil {
		guard = op.Guard
	}
	inst.mu.Lock(t)
	if guard == nil || guard(inst.state) {
		res, n := op.Apply(t, inst.state, args)
		if !op.ReadOnly {
			rt.runContinuations(t, inst)
		}
		inst.mu.Unlock(t)
		return res, n
	}
	inst.blocked++
	if rt.mx != nil {
		rt.mx.guardBlocks.Inc()
	}
	inv := rt.newInv()
	inst.conts = append(inst.conts, continuation{op: op, args: args, guard: guard, kind: contLocal, inv: inv})
	inst.mu.Unlock(t)
	inv.sem.Down(t)
	// runContinuations took the continuation off the queue before it
	// signalled, so nothing holds inv any more.
	return rt.freeInv(inv)
}

// runContinuations re-evaluates blocked guarded operations after a state
// change, FIFO with restart, executing ready ones in the mutating thread.
// Caller holds inst.mu.
func (rt *Runtime) runContinuations(t *proc.Thread, inst *instance) {
	for progress := true; progress; {
		progress = false
		for i := range inst.conts {
			if g := inst.conts[i].guard; g != nil && !g(inst.state) {
				if rt.mx != nil {
					rt.mx.guardRetries.Inc()
				}
				continue
			}
			c := inst.conts[i]
			last := len(inst.conts) - 1
			copy(inst.conts[i:], inst.conts[i+1:])
			inst.conts[last] = continuation{}
			inst.conts = inst.conts[:last]
			res, n := c.op.Apply(t, inst.state, c.args)
			switch c.kind {
			case contLocal:
				c.inv.result, c.inv.resSize = res, n
				c.inv.sem.Up(t)
			case contRPC:
				rt.tr.Reply(t, c.ctx, res, n)
			case contGroup:
				rt.completeWrite(t, inst, c.w, c.sender, res, n)
			}
			progress = true
			break
		}
	}
}

// onRPC serves remote invocations. It runs as an upcall in a protocol
// daemon thread and never blocks: a false guard queues a continuation and
// the reply is sent later by the thread whose operation makes the guard
// true (pan_rpc_reply). With the kernel-space transport, that deferred
// Reply relays through the daemon bound to the request — the extra
// context switch of §5.
func (rt *Runtime) onRPC(t *proc.Thread, ctx *panda.RPCContext, req any, size int) {
	w, ok := req.(*rpcWire)
	if !ok {
		rt.tr.Reply(t, ctx, nil, 0)
		return
	}
	inst := rt.objects[w.obj]
	op := inst.typ.Ops[w.op]
	guard := w.guard
	if guard == nil {
		guard = op.Guard
	}
	inst.mu.Lock(t)
	if op.ReadOnly {
		inst.reads++
	} else {
		inst.writes++
	}
	if guard == nil || guard(inst.state) {
		res, n := op.Apply(t, inst.state, w.args)
		if !op.ReadOnly {
			rt.runContinuations(t, inst)
		}
		inst.mu.Unlock(t)
		rt.tr.Reply(t, ctx, res, n)
		return
	}
	inst.blocked++
	if rt.mx != nil {
		rt.mx.guardBlocks.Inc()
	}
	inst.conts = append(inst.conts, continuation{op: op, args: w.args, guard: guard, kind: contRPC, ctx: ctx})
	inst.mu.Unlock(t)
}

// onGroup applies totally-ordered write operations to the local replica.
// Every member executes the same operations in the same order, so all
// copies stay consistent; the sender's own execution completes its
// pending invocation.
func (rt *Runtime) onGroup(t *proc.Thread, sender int, seqno uint64, payload any, size int) {
	w, ok := payload.(*bcastWire)
	if !ok {
		return
	}
	inst := rt.objects[w.obj]
	op := inst.typ.Ops[w.op]
	inst.writes++

	guard := w.guard
	if guard == nil {
		guard = op.Guard
	}
	inst.mu.Lock(t)
	if guard == nil || guard(inst.state) {
		res, n := op.Apply(t, inst.state, w.args)
		rt.runContinuations(t, inst)
		inst.mu.Unlock(t)
		rt.completeWrite(t, inst, w, sender, res, n)
		return
	}
	inst.blocked++
	if rt.mx != nil {
		rt.mx.guardBlocks.Inc()
	}
	inst.conts = append(inst.conts, continuation{op: op, args: w.args, guard: guard, kind: contGroup, w: w, sender: sender})
	inst.mu.Unlock(t)
}

// completeWrite ends a replicated write once the local copy has executed
// it: on the sender's processor it wakes the blocked invoker, or, for a
// nonblocking write, the local reads waiting for the last one in flight.
func (rt *Runtime) completeWrite(t *proc.Thread, inst *instance, w *bcastWire, sender int, res any, n int) {
	if sender != rt.id {
		return
	}
	if w.nb {
		inst.outstandingNB--
		if inst.outstandingNB == 0 {
			ws := inst.nbWaiters
			inst.nbWaiters = nil
			for _, wt := range ws {
				t.Flush()
				wt.Unblock()
			}
		}
		return
	}
	if inv := rt.pending[w.invID]; inv != nil {
		inv.result, inv.resSize = res, n
		inv.sem.Up(t)
	}
}

// ObjectStats reports per-object instrumentation for this runtime.
func (rt *Runtime) ObjectStats(h Handle) (reads, writes, broadcasts, rpcs, blocked int64) {
	inst := rt.objects[h.ID]
	if inst == nil {
		return 0, 0, 0, 0, 0
	}
	return inst.reads, inst.writes, inst.broadcasts, inst.rpcs, inst.blocked
}

// PeekState returns the local state of an object (testing/verification
// only; bypasses operation semantics).
func (rt *Runtime) PeekState(h Handle) State {
	if inst := rt.objects[h.ID]; inst != nil {
		return inst.state
	}
	return nil
}
