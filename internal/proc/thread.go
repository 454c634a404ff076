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

type parkReason int

const (
	parkCompute parkReason = iota + 1
	parkBlock
	parkDone
)

// threadKilled is the panic payload used to unwind a killed thread.
type threadKilled struct{}

// lockCost is the CPU cost of an uncontended user-space lock operation.
// The paper: "acquiring and releasing locks in user space can be done
// cheaply if no other thread is holding the lock ... the overhead is
// negligible in comparison to context switching and trapping costs".
const lockCost = 1 * time.Microsecond

// Thread is a simulated Amoeba kernel thread. All methods except Unblock,
// Done, State and Stats must be called from the thread's own goroutine
// (i.e., from within the body function passed to NewThread).
type Thread struct {
	p    *Processor
	id   int
	name string
	prio Priority

	resume chan struct{}
	parked chan parkReason
	dead   chan struct{}
	killed bool

	// Driver-visible scheduling state.
	state        threadState
	computeReq   time.Duration
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
	// and actually parking in Block — typically while a pending-charge
	// flush was still computing. The next Block consumes it and returns
	// immediately, preventing lost wakeups.
	wakeArmed bool

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
// ready queue and runs when the scheduler dispatches it.
func (p *Processor) NewThread(name string, prio Priority, body func(t *Thread)) *Thread {
	p.nextTID++
	t := &Thread{
		p:        p,
		id:       p.nextTID,
		name:     name,
		prio:     prio,
		resume:   make(chan struct{}),
		parked:   make(chan parkReason),
		dead:     make(chan struct{}),
		state:    stateNew,
		depth:    1,
		resident: 1,
	}
	t.computeDoneFn = func() { p.computeDone(t) }
	t.wakeFn = t.sleepWake
	p.threads = append(p.threads, t)
	p.stats.ThreadsCreated++
	if p.mx != nil {
		p.mx.threadsCreated.Inc()
	}
	go t.run(body)
	p.makeReady(t)
	return t
}

func (t *Thread) run(body func(*Thread)) {
	defer close(t.dead)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(threadKilled); !ok {
				panic(r)
			}
		}
	}()
	<-t.resume
	if t.killed {
		panic(threadKilled{})
	}
	body(t)
	t.parked <- parkDone
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

func (t *Thread) park(r parkReason) {
	t.parked <- r
	<-t.resume
	if t.killed {
		panic(threadKilled{})
	}
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
	t.computeReq = d
	t.park(parkCompute)
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
// charges elapse first. If an Unblock arrived after the caller registered
// interest but before it parked, Block returns immediately.
func (t *Thread) Block() {
	t.Flush()
	if t.wakeArmed {
		t.wakeArmed = false
		return
	}
	t.park(parkBlock)
}

// Unblock makes a blocked thread runnable. It may be called from driver
// context or from another thread's code on any processor. Calling it on a
// thread that has registered interest but not yet parked arms the wake for
// its upcoming Block instead.
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
	t.park(parkBlock)
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

func (t *Thread) kill() {
	if t.state == stateDone {
		return
	}
	t.killed = true
	select {
	case t.resume <- struct{}{}:
	case <-t.dead:
		return
	}
	<-t.dead
	t.state = stateDone
}
