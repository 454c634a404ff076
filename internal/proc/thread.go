package proc

import (
	"fmt"
	"time"

	"amoebasim/internal/sim"
)

type threadState int

const (
	stateNew threadState = iota + 1
	stateReady
	stateActive    // goroutine running user code (CPU owner, zero virtual time)
	stateComputing // CPU owner, virtual time advancing
	statePreempted // CPU owner, compute suspended by an interrupt burst
	stateBlocked
	stateDone
)

// threadKilled is the panic payload used to unwind a killed thread.
type threadKilled struct{}

// lockCost is the CPU cost of an uncontended user-space lock operation.
// The paper: "acquiring and releasing locks in user space can be done
// cheaply if no other thread is holding the lock ... the overhead is
// negligible in comparison to context switching and trapping costs".
const lockCost = 1 * time.Microsecond

// Thread is a simulated Amoeba kernel thread. All methods except Unblock,
// Done, State and Stats must be called from the thread's own code (i.e.,
// from within the body function passed to NewThread).
type Thread struct {
	p    *Processor
	id   int
	name string
	prio Priority

	body   func(*Thread)
	co     *sim.Coro // runs body; nil until the first dispatch and once done
	slot   int       // index in p.threads until the thread finishes
	dead   chan struct{}
	killed bool

	// Scheduling state.
	state        threadState
	remaining    time.Duration
	computeEv    sim.Event
	computeStart sim.Time

	// Event callbacks bound once at NewThread, so scheduling a compute's
	// end or a sleep's wake-up allocates nothing.
	computeDoneFn func()
	wakeFn        func()

	// Register-window model (§4.2): `depth` is the call-stack depth,
	// `resident` how many of the top frames still live in hardware
	// windows. Procedure calls overflow past RegisterWindows; returns
	// underflow when no caller window is resident; an Amoeba syscall
	// saves everything and restores only the topmost window.
	depth    int
	resident int

	// queued guards against double entry on the ready queue.
	queued bool

	// wakeArmed records an Unblock that arrived while the thread was
	// between registering interest (e.g. enqueuing itself as a waiter)
	// and blocking: before it called Block, or while Block's flush of
	// pending charges was still computing. Block consumes it once the
	// charges have elapsed and returns instead of blocking, preventing
	// lost wakeups.
	wakeArmed bool

	// blockOnFlush marks the compute in progress as Block's flush of
	// pending charges: when it ends, activate blocks the thread in driver
	// context, unless a wake was armed, instead of resuming the thread's
	// code only for it to block.
	blockOnFlush bool

	// directWake marks the thread for zero-cost resume if its context is
	// still loaded when it is next dispatched (Amoeba's direct delivery
	// of an RPC reply to the blocked client thread).
	directWake bool

	// pending accumulates synchronous CPU charges (traps, copies,
	// protocol costs) that are folded into the next park point.
	pending time.Duration

	// op is the causally traced operation the thread is currently
	// working for (0: none); phaseOverride, when set, reclassifies every
	// phase-tagged charge the thread makes. chunks is the FIFO of
	// phase-tagged charges not yet elapsed (see internal/proc/causal.go);
	// it stays empty unless a causal tracer is installed.
	op            uint64
	phaseOverride sim.PhaseID
	chunks        []phaseChunk
	chunkHead     int

	stats ThreadStats
}

// NewThread creates a thread on p running body. The thread starts on the
// ready queue and runs when the scheduler dispatches it; its coroutine,
// and the goroutine under it, is made at that first dispatch.
func (p *Processor) NewThread(name string, prio Priority, body func(t *Thread)) *Thread {
	p.nextTID++
	t := &Thread{
		p:        p,
		id:       p.nextTID,
		name:     name,
		prio:     prio,
		body:     body,
		dead:     make(chan struct{}),
		state:    stateNew,
		depth:    1,
		resident: 1,
	}
	t.computeDoneFn = func() { p.computeDone(t) }
	t.wakeFn = t.sleepWake
	t.slot = len(p.threads)
	p.threads = append(p.threads, t)
	p.stats.ThreadsCreated++
	if p.mx != nil {
		p.mx.threadsCreated.Inc()
	}
	p.makeReady(t)
	return t
}

// newCoro makes a thread's coroutine. Tests set it to sim.NewChanCoro to
// run the same simulation on the channel-based coroutine.
var newCoro = sim.NewCoro

// run is the body of the thread's coroutine: the thread's code, then the
// bookkeeping of a finished thread. A panic in the thread's code ends the
// coroutine and reaches the goroutine that called Run, RunUntil or Step
// through the activating event; a kill unwinds the code with threadKilled,
// which ends here.
func (t *Thread) run(*sim.Coro) {
	defer close(t.dead)
	defer func() {
		if t.killed {
			if r := recover(); r != nil {
				if _, ok := r.(threadKilled); !ok {
					panic(r) // raised while the kill unwound
				}
			}
		}
	}()
	t.body(t)
	p := t.p
	p.running = nil
	t.state = stateDone
	p.stats.ThreadsDone++
	if p.mx != nil {
		p.mx.threadsDone.Inc()
	}
	p.scheduleDispatch(false)
}

// Proc returns the processor the thread runs on.
func (t *Thread) Proc() *Processor { return t.p }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// ID returns the thread's per-processor id.
func (t *Thread) ID() int { return t.id }

// Priority returns the thread's scheduling priority.
func (t *Thread) Priority() Priority { return t.prio }

// Done returns a channel closed when the thread has finished or been
// killed. Useful for host-level tests, not for simulation logic.
func (t *Thread) Done() <-chan struct{} { return t.dead }

// Stats returns a copy of the thread's accounting counters.
func (t *Thread) Stats() ThreadStats { return t.stats }

// park yields the thread's coroutine: the event that activated the thread
// goes on, and the thread's code waits until an event activates it again.
// The caller has already set the state the thread parks in.
func (t *Thread) park() {
	if !t.co.Yield() {
		panic(threadKilled{})
	}
}

// block parks the thread off the CPU until another party makes it ready.
func (t *Thread) block() {
	t.p.release(t)
	t.park()
}

// Compute consumes d of CPU time (plus any pending charges). The thread
// keeps the CPU; interrupts stretch the compute; a higher-priority wake
// can displace it, in which case it resumes later with the remaining work.
func (t *Thread) Compute(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.noteChunk(sim.PhaseClient, d)
	d += t.pending
	t.pending = 0
	if d == 0 {
		return
	}
	p := t.p
	t.remaining = d
	t.state = stateComputing
	t.computeStart = p.sim.Now()
	t.computeEv = p.sim.Schedule(d, t.computeDoneFn)
	t.park()
}

// Charge accumulates synchronous CPU cost that will elapse at the next
// park point (Compute, Block, Flush, ...). Cheap per-call bookkeeping for
// traps, header handling and copies.
func (t *Thread) Charge(d time.Duration) {
	if d > 0 {
		t.pending += d
	}
}

// Pending reports the accumulated not-yet-elapsed CPU charge.
func (t *Thread) Pending() time.Duration { return t.pending }

// Flush lets all pending charges elapse. Call before any action with
// externally visible timing (handing a frame to the NIC, unblocking a
// thread) so causality is preserved.
func (t *Thread) Flush() {
	if t.pending > 0 {
		t.Compute(0)
	}
}

// Block parks the thread until another party calls Unblock. Pending
// charges elapse first, within the same park: the flush is a compute
// marked as Block's, and when it ends the processor blocks the thread in
// driver context rather than resuming its code (see activate). If an
// Unblock arrived after the caller registered interest, before Block or
// during the flush, Block returns once the charges have elapsed.
func (t *Thread) Block() {
	if twoParkBlock != nil {
		twoParkBlock(t)
		return
	}
	if t.pending > 0 {
		t.blockOnFlush = true
		t.Flush()
		return
	}
	if t.wakeArmed {
		t.wakeArmed = false
		return
	}
	t.block()
}

// twoParkBlock, when set, runs in place of Block. It is nil except in
// tests, which set it to a reference Block whose flush is a park of its
// own, resumed before the thread blocks, to check that both give the
// same run.
var twoParkBlock func(*Thread)

// Unblock makes a blocked thread runnable. It may be called from driver
// context, on the goroutine that runs the event loop, or from another
// thread's code on any processor. Calling it on a thread that has
// registered interest but not yet blocked, including one whose Block is
// still flushing pending charges, arms the wake for that Block instead.
func (t *Thread) Unblock() {
	switch t.state {
	case stateBlocked:
		t.p.makeReady(t)
	case stateDone:
		panic(fmt.Sprintf("proc: Unblock of finished thread %s/%s", t.p.name, t.name))
	default:
		t.wakeArmed = true
	}
}

// UnblockDirect makes a blocked thread runnable with Amoeba's direct
// delivery semantics: if the thread's context is still loaded when the CPU
// becomes free (it was the last to run and the machine is otherwise idle),
// it resumes without a context switch.
func (t *Thread) UnblockDirect() {
	t.directWake = true
	t.Unblock()
}

// Blocked reports whether the thread is currently blocked.
func (t *Thread) Blocked() bool { return t.state == stateBlocked }

// Finished reports whether the thread's body has returned.
func (t *Thread) Finished() bool { return t.state == stateDone }

// Sleep blocks the thread for d of simulated time (yielding the CPU,
// unlike Compute).
func (t *Thread) Sleep(d time.Duration) {
	t.Flush()
	if t.wakeArmed {
		t.wakeArmed = false
		return
	}
	t.p.sim.Schedule(d, t.wakeFn)
	t.block()
}

// sleepWake ends a Sleep: the thread is made runnable if it is still
// blocked.
func (t *Thread) sleepWake() {
	if t.state == stateBlocked {
		t.p.makeReady(t)
	}
}

// ---- Register-window model ----

// Call models entering `frames` nested procedure frames: window overflow
// traps are charged once the hardware windows are exhausted.
func (t *Thread) Call(frames int) {
	for i := 0; i < frames; i++ {
		t.depth++
		if t.resident == t.p.model.RegisterWindows {
			t.ChargeP(sim.PhaseCrossing, t.p.model.WindowTrap)
			t.stats.OverflowTraps++
			t.p.stats.Traps++
			if t.p.mx != nil {
				t.p.mx.traps.Inc()
			}
		} else {
			t.resident++
		}
	}
}

// Return models returning from `frames` procedure frames: underflow traps
// are charged whenever the caller's window is no longer resident.
func (t *Thread) Return(frames int) {
	for i := 0; i < frames; i++ {
		if t.depth <= 1 {
			return
		}
		t.depth--
		t.resident--
		if t.resident == 0 {
			t.ChargeP(sim.PhaseCrossing, t.p.model.WindowTrap)
			t.stats.UnderflowTraps++
			t.p.stats.Traps++
			if t.p.mx != nil {
				t.p.mx.traps.Inc()
			}
			t.resident = 1
		}
	}
}

// Depth returns the modeled call-stack depth.
func (t *Thread) Depth() int { return t.depth }

// Syscall models one Amoeba user/kernel crossing: the kernel saves all
// register windows in use, performs the call, and restores only the
// topmost window before returning (the policy the paper identifies as the
// source of the extra underflow traps on deep daemon stacks).
func (t *Thread) Syscall() {
	m := t.p.model
	t.ChargeP(sim.PhaseCrossing, m.SyscallCross+time.Duration(t.resident)*m.WindowSave)
	t.resident = 1
	t.stats.Syscalls++
	t.p.stats.Syscalls++
	if t.p.mx != nil {
		t.p.mx.syscalls.Inc()
	}
}

// CopyBytes charges the cost of copying n bytes (user/kernel boundary or
// buffer-to-buffer).
func (t *Thread) CopyBytes(n int) {
	t.ChargeP(sim.PhaseFrag, t.p.model.Copy(n))
	t.stats.BytesCopied += int64(n)
}

// kill ends a thread that has not finished. A parked thread's coroutine
// is closed: its code unwinds from park without running any simulation
// code, and its goroutine exits. A thread never dispatched has no
// coroutine to close.
func (t *Thread) kill() {
	if t.state == stateDone {
		return
	}
	t.killed = true
	if t.co != nil {
		t.co.Close()
	} else {
		close(t.dead)
	}
	t.state = stateDone
}
