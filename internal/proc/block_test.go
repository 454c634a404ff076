package proc

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"amoebasim/internal/model"
	"amoebasim/internal/sim"
)

// blockTwoPark is Block as it was when its flush of pending charges was a
// park of its own: the flush's end resumed the thread's code, which then
// consumed an armed wake or blocked. Block must give the same run.
func blockTwoPark(t *Thread) {
	t.Flush()
	if t.wakeArmed {
		t.wakeArmed = false
		return
	}
	t.block()
}

// withBlock runs f with Block's body replaced by blockTwoPark if ref is
// set.
func withBlock(ref bool, f func()) {
	if ref {
		twoParkBlock = blockTwoPark
		defer func() { twoParkBlock = nil }()
	}
	f()
}

// The charge the worker of displacedFlushRun flushes in Block, and the
// cost of the interrupt that displaces the flush.
const flushCharge, flushIntrCost = 100 * time.Microsecond, 20 * time.Microsecond

// displacedFlushRun is TestBlockFlushEndsByDisplacement's scenario: a
// normal-priority worker charges and blocks; an interrupt at the instant
// its flush ends, popped before the flush's compute-done, wakes a daemon,
// which displaces the worker with nothing left to compute. The worker is
// unblocked at unblockAt. It returns the worker's log, its state just
// before unblockAt and the processor's counters.
func displacedFlushRun(t *testing.T, ref bool, unblockAt sim.Time) (log []string, blockedBefore bool, st Stats) {
	s, p := newProc(t)
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", s.Now())+fmt.Sprintf(format, args...))
	}
	var worker *Thread
	daemon := p.NewThread("daemon", PrioDaemon, func(th *Thread) {
		th.Block() // before the worker first runs
		for {
			logf("daemon runs: worker state=%d remaining=%v queued=%v", worker.state, worker.remaining, worker.queued)
			th.Block()
		}
	})
	worker = p.NewThread("worker", PrioNormal, func(th *Thread) {
		logf("worker charges")
		th.Charge(flushCharge)
		s.Schedule(flushCharge, func() {
			logf("interrupt: worker state=%d", worker.state)
			p.Interrupt(flushIntrCost, daemon.Unblock)
		})
		th.Block()
		logf("worker resumes")
		th.Block()
	})
	withBlock(ref, func() {
		s.RunUntil(unblockAt - 1)
		blockedBefore = worker.Blocked()
		s.Schedule(unblockAt.Sub(s.Now()), worker.Unblock)
		s.Run()
	})
	return log, blockedBefore, p.Stats()
}

// TestBlockFlushEndsByDisplacement: Block's flush that is displaced with
// nothing left to compute never gets a compute-done event; dispatch sends
// the thread straight to activate, which must still block it. The thread
// stays blocked until an explicit Unblock and then resumes at the same
// instant, with the same counters, as with the two-park Block.
func TestBlockFlushEndsByDisplacement(t *testing.T) {
	m := model.Calibrated()
	unblockAt := sim.Time(10 * time.Millisecond)
	log, blocked, st := displacedFlushRun(t, false, unblockAt)
	refLog, refBlocked, refSt := displacedFlushRun(t, true, unblockAt)

	// Daemon dispatched at CtxSwitch and blocks; the worker is dispatched
	// a CtxSwitch later and its flush ends charge after that.
	flushEnd := sim.Time(2*m.CtxSwitch + flushCharge)
	daemonAt := flushEnd.Add(flushIntrCost + m.IntrDispatchCold)
	want := []string{
		fmt.Sprintf("%v worker charges", sim.Time(2*m.CtxSwitch)),
		fmt.Sprintf("%v interrupt: worker state=%d", flushEnd, stateComputing),
		fmt.Sprintf("%v daemon runs: worker state=%d remaining=0s queued=true", daemonAt, stateReady),
		fmt.Sprintf("%v worker resumes", unblockAt.Add(m.CtxSwitch)),
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log:\n%q\nwant:\n%q", log, want)
	}
	if !blocked {
		t.Errorf("worker not blocked before its Unblock")
	}
	if !reflect.DeepEqual(log, refLog) || blocked != refBlocked {
		t.Errorf("log %q (blocked %v), two-park Block gives %q (blocked %v)", log, blocked, refLog, refBlocked)
	}
	if st != refSt {
		t.Errorf("stats %+v, two-park Block gives %+v", st, refSt)
	}
	if st.Preemptions != 1 || st.ColdDispatches != 1 || st.CtxSwitches != 4 {
		t.Errorf("stats %+v: want 1 preemption, 1 cold dispatch, 4 context switches", st)
	}
}

// blockScenario drives one seeded random program on a few processors and
// records what happened: a log of (time, thread, action), every
// processor's counters and the number of events run. Threads of both
// priorities charge, compute, block, sleep and wake each other, and wait
// on a per-processor mutex, condition variable and semaphore; interrupts
// land at random instants and at the end of computes. Odd seeds drive the
// loop with Step, even ones with Run.
func blockScenario(seed uint64) (log []string, stats []Stats, events uint64) {
	s := sim.New()
	m := model.Calibrated()
	top := sim.NewRand(seed)
	nProcs := 2 + top.Intn(3)
	// Durations are multiples of 10 µs, like the model's switch and
	// dispatch costs, so computes, interrupts and dispatches often end at
	// the same instant.
	dur := func(r *sim.Rand) time.Duration { return time.Duration(r.Intn(12)) * 10 * time.Microsecond }
	logf := func(who, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v %s ", s.Now(), who)+fmt.Sprintf(format, args...))
	}

	type waiter struct {
		th      *Thread
		waiting bool // blocked or about to block in a plain Block; only then may it be woken
	}
	var all []*waiter
	// wake unblocks one thread waiting in a plain Block, chosen from a
	// random start, and reports whom.
	wake := func(r *sim.Rand) string {
		n := len(all)
		for i, start := 0, r.Intn(n); i < n; i++ {
			if w := all[(start+i)%n]; w.waiting {
				w.waiting = false
				w.th.Unblock()
				return w.th.Name()
			}
		}
		return "nobody"
	}

	type board struct {
		p    *Processor
		mu   *Mutex
		cond *Cond
		sem  Semaphore
	}
	var boards []*board
	var intr func(b *board, r *sim.Rand)
	handler := func(b *board, r *sim.Rand) func() {
		kind := r.Intn(4)
		return func() {
			switch kind {
			case 0:
				logf(b.p.Name(), "intr wakes %s", wake(r))
			case 1:
				logf(b.p.Name(), "intr ups sem")
				b.sem.UpFromDriver()
			case 2:
				logf(b.p.Name(), "intr chains")
				intr(b, r)
			default:
				logf(b.p.Name(), "intr")
			}
		}
	}
	intr = func(b *board, r *sim.Rand) { b.p.Interrupt(dur(r), handler(b, r)) }

	for i := 0; i < nProcs; i++ {
		p := New(s, m, i, fmt.Sprintf("cpu%d", i))
		mu := &Mutex{}
		boards = append(boards, &board{p: p, mu: mu, cond: NewCond(mu)})
	}
	for bi, b := range boards {
		nThreads := 2 + top.Intn(3)
		for j := 0; j < nThreads; j++ {
			prio := PrioNormal
			if top.Intn(3) == 0 {
				prio = PrioDaemon
			}
			r := sim.NewRand(sim.MixSeed(seed, uint64(bi*8+j)))
			w := &waiter{}
			name := fmt.Sprintf("%s/t%d", b.p.Name(), j)
			w.th = b.p.NewThread(name, prio, func(th *Thread) {
				for op := 0; op < 40; op++ {
					logf(name, "op %d", op)
					switch r.Intn(12) {
					case 0:
						th.Charge(dur(r))
					case 1:
						d := dur(r)
						logf(name, "compute %v pending %v", d, th.Pending())
						th.Compute(d)
					case 2, 3:
						w.waiting = true
						th.Charge(dur(r))
						logf(name, "block pending %v", th.Pending())
						th.Block()
					case 4:
						d := dur(r)
						logf(name, "sleep %v pending %v", d, th.Pending())
						th.Sleep(d)
					case 5:
						if r.Intn(2) == 0 {
							th.Flush()
						}
						logf(name, "wakes %s", wake(r))
					case 6:
						b.mu.Lock(th)
						logf(name, "locked")
						th.Charge(dur(r))
						if r.Intn(2) == 0 {
							th.Compute(dur(r))
						}
						b.mu.Unlock(th)
					case 7:
						b.mu.Lock(th)
						logf(name, "waits on cond")
						b.cond.Wait(th)
						logf(name, "cond returned")
						b.mu.Unlock(th)
					case 8:
						b.mu.Lock(th)
						th.Charge(dur(r))
						if r.Intn(3) == 0 {
							logf(name, "broadcasts")
							b.cond.Broadcast(th)
						} else {
							logf(name, "signals")
							b.cond.Signal(th)
						}
						b.mu.Unlock(th)
					case 9:
						if r.Intn(2) == 0 {
							logf(name, "sem down")
							b.sem.Down(th)
						} else {
							th.Charge(dur(r))
							logf(name, "sem up")
							b.sem.Up(th)
						}
					case 10:
						// An interrupt scheduled now for the instant the
						// next compute or flush would end undisturbed: its
						// event pops before that compute's end.
						d := dur(r)
						plain := r.Intn(2) == 0
						if plain {
							w.waiting = true
							d = 0
						}
						if end := th.Pending() + d; end > 0 {
							s.Schedule(end, func() { intr(b, r) })
						}
						logf(name, "compute %v pending %v, interrupt at its end (block %v)", d, th.Pending(), plain)
						if plain {
							th.Block()
						} else {
							th.Compute(d)
						}
					default:
						// An interrupt raised from thread code: its burst
						// starts once the thread parks.
						logf(name, "raises interrupt")
						intr(b, r)
					}
				}
				logf(name, "done")
			})
			all = append(all, w)
		}
	}
	// Interrupts raised by plain events at random instants, on 10 µs
	// boundaries.
	for k := 0; k < 30; k++ {
		b := boards[top.Intn(nProcs)]
		r := top.Fork()
		at := time.Duration(top.Intn(800)) * 10 * time.Microsecond
		s.Schedule(at, func() { intr(b, r) })
	}
	if seed%2 == 1 {
		for s.Step() {
		}
	} else {
		s.Run()
	}
	for _, w := range all {
		logf(w.th.Name(), "ends blocked=%v finished=%v", w.th.Blocked(), w.th.Finished())
	}
	for _, b := range boards {
		stats = append(stats, b.p.Stats())
		b.p.Shutdown()
	}
	return log, stats, s.EventsRun()
}

// TestBlockMatchesTwoParkBlock: on seeded random scenarios, Block gives
// the same run as the two-park reference: the same log of (time, thread,
// action), the same processor counters and the same number of events.
func TestBlockMatchesTwoParkBlock(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		log, stats, events := blockScenario(seed)
		var refLog []string
		var refStats []Stats
		var refEvents uint64
		withBlock(true, func() { refLog, refStats, refEvents = blockScenario(seed) })
		if !reflect.DeepEqual(log, refLog) {
			i := 0
			for i < len(log) && i < len(refLog) && log[i] == refLog[i] {
				i++
			}
			t.Fatalf("seed %d: logs differ at entry %d of %d/%d:\nBlock:   %q\ntwo-park: %q",
				seed, i, len(log), len(refLog), log[i:min(i+5, len(log))], refLog[i:min(i+5, len(refLog))])
		}
		if !reflect.DeepEqual(stats, refStats) {
			t.Fatalf("seed %d: stats %+v, two-park Block gives %+v", seed, stats, refStats)
		}
		if events != refEvents {
			t.Fatalf("seed %d: %d events, two-park Block runs %d", seed, events, refEvents)
		}
	}
}
