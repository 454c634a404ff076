package proc

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"amoebasim/internal/model"
	"amoebasim/internal/sim"
)

// TestComputeDispatchInterruptZeroAlloc: one cycle of the processor's
// event core allocates nothing. The cycle runs an interrupt burst whose
// handler wakes a blocked thread, the dispatch after the switch cost, a
// compute stretched by an interrupt that lands mid-way (suspend and
// resume), an interrupt raised from thread context (a deferred burst
// start) and a sleep: every callback they schedule was bound at New or
// NewThread.
func TestComputeDispatchInterruptZeroAlloc(t *testing.T) {
	s, p := newProc(t)
	preempt := func() { p.Interrupt(5*time.Microsecond, nil) }
	th := p.NewThread("w", PrioNormal, func(th *Thread) {
		for {
			th.Block()
			s.Schedule(50*time.Microsecond, preempt)
			th.Compute(100 * time.Microsecond)
			p.Interrupt(10*time.Microsecond, nil)
			th.Sleep(50 * time.Microsecond)
		}
	})
	s.Run() // the thread blocks
	wake := func() { th.Unblock() }
	cycle := func() {
		p.Interrupt(20*time.Microsecond, wake)
		s.Run()
	}
	cycle() // size the queues
	before := p.Stats()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("compute/dispatch/interrupt cycle allocates %.2f objects/cycle, budget is 0", avg)
	}
	after := p.Stats()
	if after.Preemptions == before.Preemptions || after.ColdDispatches+after.WarmDispatches == before.ColdDispatches+before.WarmDispatches {
		t.Fatalf("cycle missed a path: stats before %+v, after %+v", before, after)
	}
}

// coroCtors are the coroutine constructors the handoff tests and
// benchmarks run under, with the suffix of their subtest names: NewCoro
// (iter.Pull's on Go 1.23 and later) and the channel-based one.
var coroCtors = []struct {
	suffix string
	new    func(func(*sim.Coro)) *sim.Coro
}{
	{"", sim.NewCoro},
	{"Chan", sim.NewChanCoro},
}

// withCoro runs f with threads' coroutines made by ctor.
func withCoro(ctor func(func(*sim.Coro)) *sim.Coro, f func()) {
	old := newCoro
	newCoro = ctor
	defer func() { newCoro = old }()
	f()
}

// pingPong starts pairs of threads, each pair on two processors of s,
// whose threads take turns forever: each charges charge, unblocks the
// other and blocks, so every activation is one dispatch event that
// resumes the activated thread's coroutine until it parks again. Pair i
// starts i*stagger after pair 0. Each activation increments *n, and the
// thread that brings *n to stopAt calls s.Stop.
func pingPong(s *sim.Sim, n *int, stopAt *int, pairs int, charge, stagger time.Duration) []*Processor {
	m := model.Calibrated()
	var procs []*Processor
	turn := func(th, other *Thread) {
		*n++
		if *n == *stopAt {
			s.Stop()
		}
		th.Charge(charge)
		other.Unblock()
		th.Block()
	}
	for i := 0; i < pairs; i++ {
		pa, pb := New(s, m, 2*i, fmt.Sprintf("cpu%d", 2*i)), New(s, m, 2*i+1, fmt.Sprintf("cpu%d", 2*i+1))
		procs = append(procs, pa, pb)
		// b is created first, so that it has blocked by the time a first
		// unblocks it.
		var a, b *Thread
		b = pb.NewThread("b", PrioNormal, func(th *Thread) {
			th.Block()
			for {
				turn(th, a)
			}
		})
		start := time.Duration(i) * stagger
		a = pa.NewThread("a", PrioNormal, func(th *Thread) {
			th.Compute(start)
			for {
				turn(th, b)
			}
		})
	}
	return procs
}

// handoffCases are the set-ups of TestThreadHandoffZeroAlloc and
// BenchmarkThreadHandoff. Run and Step ping-pong one pair with no
// charges, with the event loop driven by one Run call or by one Step call
// per event. RunCharged ping-pongs two pairs under Run; each thread
// charges 50 µs before it blocks, and the pairs are offset by half a
// context switch (35 µs), so the other pair's dispatch falls inside each
// flush of charges, and the flush's end blocks the thread without
// resuming it.
var handoffCases = []struct {
	name    string
	pairs   int
	charge  time.Duration
	stagger time.Duration
	step    bool
}{
	{"Run", 1, 0, 0, false},
	{"Step", 1, 0, 0, true},
	{"RunCharged", 2, 50 * time.Microsecond, 35 * time.Microsecond, false},
}

// driveHandoff runs activations until *n reaches target, with one Run
// call, or with one Step call per event if step is set.
func driveHandoff(s *sim.Sim, n, stopAt *int, target int, step bool) {
	if step {
		for *n < target {
			s.Step()
		}
		return
	}
	*stopAt = target
	s.Run()
}

// TestThreadHandoffZeroAlloc: resuming a thread's coroutine and its
// yield when the thread parks allocate nothing, whether Run or Step
// drives the loop and under either coroutine constructor, and neither
// does ending a flush of charges in Block.
func TestThreadHandoffZeroAlloc(t *testing.T) {
	for _, ctor := range coroCtors {
		for _, c := range handoffCases {
			t.Run(c.name+ctor.suffix, func(t *testing.T) {
				withCoro(ctor.new, func() {
					s := sim.New()
					var n, stopAt int
					for _, p := range pingPong(s, &n, &stopAt, c.pairs, c.charge, c.stagger) {
						t.Cleanup(p.Shutdown)
					}
					driveHandoff(s, &n, &stopAt, 10, c.step) // start the threads, size the queues
					if avg := testing.AllocsPerRun(100, func() { driveHandoff(s, &n, &stopAt, n+100, c.step) }); avg != 0 {
						t.Fatalf("100 thread handoffs allocate %.2f objects, budget is 0", avg)
					}
				})
			})
		}
	}
}

// BenchmarkThreadHandoff times one thread activation (one op): a
// dispatch event that resumes the thread's coroutine, and the yield when
// the thread parks again. Under Step the loop's goroutine returns to its
// caller after every event; under RunCharged the flush that ends each
// turn blocks the thread without resuming it. The Chan cases run the
// channel-based coroutine of Go 1.22 builds, whose switches are handoffs
// through the scheduler.
func BenchmarkThreadHandoff(b *testing.B) {
	for _, ctor := range coroCtors {
		for _, c := range handoffCases {
			b.Run(c.name+ctor.suffix, func(b *testing.B) {
				withCoro(ctor.new, func() {
					s := sim.New()
					var n, stopAt int
					for _, p := range pingPong(s, &n, &stopAt, c.pairs, c.charge, c.stagger) {
						defer p.Shutdown()
					}
					driveHandoff(s, &n, &stopAt, 10, c.step)
					b.ReportAllocs()
					b.ResetTimer()
					driveHandoff(s, &n, &stopAt, n+b.N, c.step)
				})
			})
		}
	}
}

// newThreadAllocs is NewThread's allocation budget: the thread, its Done
// channel and the two event callbacks bound to it. The coroutine is made
// at the thread's first dispatch. chanCoroAllocs budgets that dispatch
// with NewChanCoro, and pullCoroAllocs, in a file of its own, with
// NewCoro: the closure around the thread's body and the coroutine's own
// set-up, as measured on one P.
const newThreadAllocs, chanCoroAllocs = 4, 12

// TestNewThreadAllocBudget: NewThread allocates newThreadAllocs objects,
// and the first dispatch of a thread that then finishes allocates no more
// than its coroutine's budget, so a thread's set-up cannot grow unnoticed.
// It runs on one P, where the runtime's caches that channel handoffs use
// give the same count every time.
func TestNewThreadAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name   string
		new    func(func(*sim.Coro)) *sim.Coro
		budget float64
	}{
		{"NewCoro", sim.NewCoro, pullCoroAllocs},
		{"NewChanCoro", sim.NewChanCoro, chanCoroAllocs},
	} {
		t.Run(c.name, func(t *testing.T) {
			withCoro(c.new, func() {
				s, p := newProc(t)
				body := func(*Thread) {}
				created := testing.AllocsPerRun(100, func() { p.NewThread("t", PrioNormal, body) })
				s.Run() // dispatch the threads, which finish
				lived := testing.AllocsPerRun(100, func() {
					p.NewThread("t", PrioNormal, body)
					s.Run()
				})
				if created > newThreadAllocs {
					t.Errorf("NewThread allocates %.0f objects, budget is %d", created, newThreadAllocs)
				}
				if d := lived - created; d > c.budget {
					t.Errorf("a thread's first dispatch allocates %.0f objects, budget is %.0f", d, c.budget)
				}
			})
		})
	}
}

// BenchmarkNewThread times a thread's whole life (one op): NewThread, the
// first dispatch, which makes the thread's coroutine and resumes it, and
// the end of a body that returns at once.
func BenchmarkNewThread(b *testing.B) {
	m := model.Calibrated()
	for _, ctor := range coroCtors {
		b.Run("Life"+ctor.suffix, func(b *testing.B) {
			withCoro(ctor.new, func() {
				s := sim.New()
				p := New(s, m, 0, "cpu0")
				body := func(*Thread) {}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p.NewThread("t", PrioNormal, body)
					s.Run()
				}
			})
		})
	}
}
