// Package proc models the processor boards of the simulated Amoeba pool:
// preemptive kernel threads with context-switch costs, interrupt context
// that steals CPU from the running thread, the SPARC register-window
// behaviour that the paper's §4 analysis hinges on, and the mutex /
// condition-variable primitives Amoeba provides to user processes.
//
// Threads are goroutines driven in strict handoff with the simulation
// driver: at any instant at most one goroutine (the driver or one thread)
// is runnable, so the simulation stays deterministic and lock-free.
package proc

import (
	"fmt"
	"strings"
	"time"

	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/sim"
)

// Priority orders threads on a processor's ready queue. Higher runs first.
type Priority int

const (
	// PrioNormal is the priority of application (Orca worker) threads.
	PrioNormal Priority = iota + 1
	// PrioDaemon is the priority of protocol daemon threads (the Panda
	// receive daemon, RPC server daemons, the user-space sequencer).
	// A daemon made runnable by an interrupt preempts a computing
	// normal-priority thread, as Amoeba's scheduler would.
	PrioDaemon
)

// Processor is one simulated SPARC board: a single CPU with a thread
// scheduler and an interrupt level.
type Processor struct {
	sim   *sim.Sim
	model *model.CostModel
	id    int
	name  string

	ready   [][]*Thread // ready queues indexed by priority
	running *Thread     // thread owning the CPU (active or computing)
	last    *Thread     // thread whose context is loaded

	intrBusy    bool       // an interrupt burst is in progress
	intrPending bool       // a burst start is deferred to driver context
	intrQ       []intrItem // queued interrupt work items
	intrFn      func()     // work of the item in service, run by serviceFn
	dispatchEv  sim.Event  // pending dispatch-after-switch-cost event

	// Event callbacks bound once at New, so scheduling one allocates
	// nothing. Only serviceFn needs per-event state, and one item at a
	// time is in service: it finds that item's work in intrFn.
	burstFn    func()
	serviceFn  func()
	dispatchFn func()

	threads []*Thread
	nextTID int

	trace []string

	stats Stats
	mx    *procMetrics // nil when metrics are disabled
}

// procMetrics mirrors the Stats counters onto the metrics registry. The
// Stats struct remains the cheap always-on accounting (bench's
// decomposition arithmetic depends on copies of it); the registry handles
// are resolved once here so hot sites pay a single nil check.
type procMetrics struct {
	ctxSwitches    *metrics.Counter
	coldDispatches *metrics.Counter
	warmDispatches *metrics.Counter
	directResumes  *metrics.Counter
	preemptions    *metrics.Counter
	interrupts     *metrics.Counter
	traps          *metrics.Counter
	syscalls       *metrics.Counter
	locks          *metrics.Counter
	threadsCreated *metrics.Counter
	threadsDone    *metrics.Counter
}

type intrItem struct {
	cost time.Duration
	fn   func()
	op   uint64      // causally traced operation (0: untagged)
	ph   sim.PhaseID // phase of the service time
	at   sim.Time    // enqueue instant, for queue-wait attribution
}

// New creates a processor attached to the given simulator and cost model.
func New(s *sim.Sim, m *model.CostModel, id int, name string) *Processor {
	p := &Processor{
		sim:   s,
		model: m,
		id:    id,
		name:  name,
		ready: make([][]*Thread, int(PrioDaemon)+1),
	}
	p.burstFn = p.deferredBurst
	p.serviceFn = p.serviceIntrItem
	p.dispatchFn = p.dispatch
	if reg := s.Metrics(); reg != nil {
		l := metrics.L("proc", name)
		p.mx = &procMetrics{
			ctxSwitches:    reg.Counter("proc.ctx_switches", l),
			coldDispatches: reg.Counter("proc.intr_dispatch_cold", l),
			warmDispatches: reg.Counter("proc.intr_dispatch_warm", l),
			directResumes:  reg.Counter("proc.direct_resumes", l),
			preemptions:    reg.Counter("proc.preemptions", l),
			interrupts:     reg.Counter("proc.interrupts", l),
			traps:          reg.Counter("proc.window_traps", l),
			syscalls:       reg.Counter("proc.syscalls", l),
			locks:          reg.Counter("proc.lock_ops", l),
			threadsCreated: reg.Counter("proc.threads_created", l),
			threadsDone:    reg.Counter("proc.threads_done", l),
		}
	}
	return p
}

// ID returns the processor's index in its cluster.
func (p *Processor) ID() int { return p.id }

// Name returns the processor's human-readable name.
func (p *Processor) Name() string { return p.name }

// Sim returns the simulator driving this processor.
func (p *Processor) Sim() *sim.Sim { return p.sim }

// Model returns the machine cost model.
func (p *Processor) Model() *model.CostModel { return p.model }

// Now returns the current simulated time.
func (p *Processor) Now() sim.Time { return p.sim.Now() }

// Stats returns a copy of the processor's accounting counters.
func (p *Processor) Stats() Stats { return p.stats }

// AddSpin charges d of polling CPU to the processor. The kernel-bypass
// transport calls it at completion-queue pickup with the poll time spent
// since the queue went idle, so occupancy reflects the burn.
func (p *Processor) AddSpin(d time.Duration) {
	if d > 0 {
		p.stats.SpinTime += d
	}
}

// Running returns the thread currently owning the CPU, or nil.
func (p *Processor) Running() *Thread { return p.running }

// Interrupt queues work at interrupt level: cost CPU time followed by fn
// running in driver context. If the CPU is executing a thread's compute,
// the compute is suspended and resumes after the burst (stretched, exactly
// like a hardware interrupt stealing cycles). fn may queue further
// interrupt work; it is processed within the same burst.
//
// Interrupt may also be called from thread context (e.g. a loopback send
// raising a software interrupt on the local processor); the burst then
// starts in driver context once the calling thread has parked, so the
// suspend logic sees a consistent thread state.
func (p *Processor) Interrupt(cost time.Duration, fn func()) {
	p.InterruptTagged(cost, 0, sim.PhaseNone, fn)
}

// InterruptTagged is Interrupt with causal attribution: the item's wait
// in the interrupt queue (enqueue to service start) and its service time
// are attributed to phase ph of operation op. An op of 0 queues plain
// untagged work.
func (p *Processor) InterruptTagged(cost time.Duration, op uint64, ph sim.PhaseID, fn func()) {
	p.intrQ = append(p.intrQ, intrItem{cost: cost, fn: fn, op: op, ph: ph, at: p.sim.Now()})
	p.stats.Interrupts++
	if p.mx != nil {
		p.mx.interrupts.Inc()
	}
	if p.intrBusy || p.intrPending {
		return
	}
	if p.running != nil && p.running.state == stateActive {
		p.intrPending = true
		p.sim.Schedule(0, p.burstFn)
		return
	}
	p.intrBusy = true
	p.suspendCompute()
	p.nextIntrItem()
}

// deferredBurst starts the burst that InterruptTagged put off because a
// thread was active when the work was queued.
func (p *Processor) deferredBurst() {
	p.intrPending = false
	if p.intrBusy || len(p.intrQ) == 0 {
		return
	}
	p.intrBusy = true
	p.suspendCompute()
	p.nextIntrItem()
}

func (p *Processor) nextIntrItem() {
	if len(p.intrQ) == 0 {
		p.intrBusy = false
		p.endBurst()
		return
	}
	it := p.intrQ[0]
	p.intrQ = p.intrQ[0:copy(p.intrQ, p.intrQ[1:])]
	p.stats.IntrTime += it.cost
	if it.op != 0 {
		now := p.sim.Now()
		p.sim.CausalSpan(it.op, waitPhaseFor(it.ph), it.at, now)
		p.sim.CausalSpan(it.op, it.ph, now, now.Add(it.cost))
	}
	p.intrFn = it.fn
	p.sim.Schedule(it.cost, p.serviceFn)
}

// serviceIntrItem runs the work of the item whose service time has
// elapsed, then starts the next one.
func (p *Processor) serviceIntrItem() {
	fn := p.intrFn
	p.intrFn = nil
	if fn != nil {
		fn()
	}
	p.nextIntrItem()
}

// suspendCompute pauses the running thread's compute so interrupt time
// stretches it.
func (p *Processor) suspendCompute() {
	t := p.running
	if t == nil || t.state != stateComputing {
		if t != nil {
			p.tracef("suspend-skip %s state=%d", t.name, t.state)
		}
		return
	}
	elapsed := p.sim.Now().Sub(t.computeStart)
	p.stats.ComputeTime += elapsed
	p.emitChunks(t, t.computeStart, elapsed)
	t.remaining -= elapsed
	if t.remaining < 0 {
		t.remaining = 0
	}
	p.sim.Cancel(t.computeEv)
	t.computeEv = sim.Event{}
	t.state = statePreempted
	p.tracef("suspend %s rem=%v", t.name, t.remaining)
	p.stats.Preemptions++
	if p.mx != nil {
		p.mx.preemptions.Inc()
	}
}

// endBurst decides what runs after an interrupt burst drains: the preempted
// thread resumes for free (return from interrupt), unless a strictly
// higher-priority thread became runnable, in which case the preempted
// thread is displaced onto the ready queue and the newcomer is dispatched
// with the interrupt-dispatch cost the paper measures (110 µs cold, 60 µs
// when the target's context is still loaded).
func (p *Processor) endBurst() {
	cur := p.running
	next := p.peekReady()
	if cur != nil {
		if next == nil || next.prio <= cur.prio {
			p.resumeCompute(cur)
			return
		}
		// Displace the preempted thread; it keeps its remaining compute.
		cur.state = stateReady
		p.running = nil
		p.last = cur
		p.pushReady(cur)
	}
	p.scheduleDispatch(true /* fromInterrupt */)
}

func (p *Processor) resumeCompute(t *Thread) {
	if t.state != statePreempted {
		return
	}
	t.state = stateComputing
	t.computeStart = p.sim.Now()
	rem := t.remaining
	p.tracef("resume %s rem=%v", t.name, rem)
	t.computeEv = p.sim.Schedule(rem, t.computeDoneFn)
}

func (p *Processor) computeDone(t *Thread) {
	p.tracef("computeDone %s state=%d queued=%v", t.name, t.state, t.queued)
	t.computeEv = sim.Event{}
	t.remaining = 0
	elapsed := p.sim.Now().Sub(t.computeStart)
	p.stats.ComputeTime += elapsed
	p.emitChunks(t, t.computeStart, elapsed)
	p.activate(t)
}

// scheduleDispatch arranges for the best ready thread to get the CPU after
// the appropriate switch cost. At most one dispatch is pending at a time.
func (p *Processor) scheduleDispatch(fromInterrupt bool) {
	if p.dispatchEv.Pending() || p.running != nil || p.peekReady() == nil {
		return
	}
	var cost time.Duration
	target := p.peekReady()
	switch {
	case target.directWake && target == p.last:
		// Amoeba-style direct delivery: the interrupt handler returns
		// straight into the blocked thread whose context is still loaded
		// (e.g. an RPC client blocked in trans). No context switch.
		cost = 0
		p.stats.DirectResumes++
		if p.mx != nil {
			p.mx.directResumes.Inc()
		}
	case fromInterrupt && target == p.last:
		cost = p.model.IntrDispatchWarm
		p.stats.WarmDispatches++
		if p.mx != nil {
			p.mx.warmDispatches.Inc()
		}
	case fromInterrupt:
		cost = p.model.IntrDispatchCold
		p.stats.ColdDispatches++
		if p.mx != nil {
			p.mx.coldDispatches.Inc()
		}
	default:
		cost = p.model.CtxSwitch
		p.stats.CtxSwitches++
		if p.mx != nil {
			p.mx.ctxSwitches.Inc()
		}
	}
	p.stats.SwitchTime += cost
	if target.op != 0 && cost > 0 {
		p.sim.CausalSpan(target.op, sim.PhaseSched, p.sim.Now(), p.sim.Now().Add(cost))
	}
	p.dispatchEv = p.sim.Schedule(cost, p.dispatchFn)
}

// dispatch gives the CPU to the best ready thread once the switch cost
// scheduleDispatch charged has elapsed.
func (p *Processor) dispatch() {
	p.dispatchEv = sim.Event{}
	if p.intrBusy || p.running != nil {
		return // burst in progress; endBurst will redo the dispatch
	}
	t := p.popReady()
	if t == nil {
		return
	}
	t.directWake = false
	if t.remaining > 0 {
		// The thread was displaced mid-compute; resume the compute.
		p.running = t
		t.state = statePreempted
		p.resumeCompute(t)
		return
	}
	p.activate(t)
}

// activate gives the CPU to t: resumes its goroutine and handles the park
// reason it comes back with. Runs in driver context and returns only once
// the thread goroutine has parked again.
func (p *Processor) activate(t *Thread) {
	p.tracef("activate %s state=%d queued=%v", t.name, t.state, t.queued)
	p.running = t
	p.last = t
	t.state = stateActive
	t.resume <- struct{}{}
	reason := <-t.parked
	switch reason {
	case parkCompute:
		t.remaining = t.computeReq
		t.computeReq = 0
		t.state = stateComputing
		t.computeStart = p.sim.Now()
		t.computeEv = p.sim.Schedule(t.remaining, t.computeDoneFn)
	case parkBlock:
		p.running = nil
		t.state = stateBlocked
		p.scheduleDispatch(false)
	case parkDone:
		p.running = nil
		t.state = stateDone
		p.stats.ThreadsDone++
		if p.mx != nil {
			p.mx.threadsDone.Inc()
		}
		p.scheduleDispatch(false)
	default:
		panic(fmt.Sprintf("proc: thread %s parked with unknown reason %d", t.name, reason))
	}
}

// makeReady puts a blocked or new thread on the ready queue and, if the CPU
// is free, arranges a dispatch. During an interrupt burst the decision is
// deferred to endBurst; if a lower-priority thread is computing, it is
// preempted in favour of t.
func (p *Processor) makeReady(t *Thread) {
	t.state = stateReady
	p.pushReady(t)
	if p.intrBusy {
		return
	}
	if p.running == nil {
		p.scheduleDispatch(false)
		return
	}
	if p.running.state == stateComputing && t.prio > p.running.prio {
		cur := p.running
		p.tracef("preempt %s for %s", cur.name, t.name)
		p.suspendCompute()
		cur.state = stateReady
		p.running = nil
		p.last = cur
		p.pushReady(cur)
		p.scheduleDispatch(false)
	}
}

func (p *Processor) pushReady(t *Thread) {
	if t.queued {
		panic(fmt.Sprintf("proc: thread %s/%s enqueued twice (state %d, remaining %v); trace:\n%s",
			p.name, t.name, t.state, t.remaining, strings.Join(p.trace, "\n")))
	}
	p.tracef("push %s state=%d rem=%v", t.name, t.state, t.remaining)
	if t.state == stateDone {
		panic(fmt.Sprintf("proc: finished thread %s/%s enqueued", p.name, t.name))
	}
	t.queued = true
	p.ready[t.prio] = append(p.ready[t.prio], t)
}

func (p *Processor) peekReady() *Thread {
	for pr := len(p.ready) - 1; pr >= 1; pr-- {
		if q := p.ready[pr]; len(q) > 0 {
			return q[0]
		}
	}
	return nil
}

func (p *Processor) popReady() *Thread {
	for pr := len(p.ready) - 1; pr >= 1; pr-- {
		q := p.ready[pr]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		p.ready[pr] = q[0:copy(q, q[1:])]
		t.queued = false
		p.tracef("pop %s state=%d rem=%v", t.name, t.state, t.remaining)
		return t
	}
	return nil
}

// schedTrace enables the scheduler transition ring buffer, used when
// debugging scheduling invariant violations.
const schedTrace = false

// tracef records a scheduler transition in a bounded ring for diagnostics.
func (p *Processor) tracef(format string, args ...any) {
	if !schedTrace {
		return
	}
	if len(p.trace) > 64 {
		p.trace = p.trace[1:]
	}
	p.trace = append(p.trace, fmt.Sprintf("%v: ", p.sim.Now())+fmt.Sprintf(format, args...))
}

// Shutdown terminates every thread goroutine that has not finished. It must
// be called once the simulation has drained, to avoid leaking goroutines
// across runs.
func (p *Processor) Shutdown() {
	for _, t := range p.threads {
		t.kill()
	}
}
