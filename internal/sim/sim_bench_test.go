package sim

// Scheduler micro-benchmarks and the zero-alloc steady-state budgets the
// CI bench job enforces. The *ContainerHeap benchmarks run the same
// pattern on the pre-overhaul reference scheduler so the speedup is
// always measurable in one `go test -bench Schedule` run (compare with
// benchstat, see EXPERIMENTS.md).

import (
	"testing"
	"time"
	"unsafe"
)

// benchDepth is the rolling queue depth the schedule/fire benchmarks hold:
// deep enough that sift costs resemble a busy simulation, small enough to
// stay cache-resident.
const benchDepth = 256

func BenchmarkScheduleFire(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Millisecond, fn)
		s.Step()
	}
}

func BenchmarkScheduleFireContainerHeap(b *testing.B) {
	s := &refSim{}
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Millisecond, fn)
		s.Step()
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.Schedule(time.Millisecond, fn))
	}
}

func BenchmarkScheduleCancelContainerHeap(b *testing.B) {
	s := &refSim{}
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Cancel(s.Schedule(time.Millisecond, fn))
	}
}

// BenchmarkTimerChurn is the retransmission-timer pattern every protocol
// layer runs: a far-future timer is armed, the expected event arrives
// first, the timer is canceled and re-armed — while foreground events
// keep firing.
func BenchmarkTimerChurn(b *testing.B) {
	s := New()
	fn := func() {}
	var timers [64]Event
	for i := range timers {
		timers[i] = s.Schedule(time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 63
		s.Cancel(timers[k])
		timers[k] = s.Schedule(time.Second, fn)
		s.Schedule(time.Microsecond, fn)
		s.Step()
	}
}

func BenchmarkTimerChurnContainerHeap(b *testing.B) {
	s := &refSim{}
	fn := func() {}
	var timers [64]*refEvent
	for i := range timers {
		timers[i] = s.Schedule(time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 63
		s.Cancel(timers[k])
		timers[k] = s.Schedule(time.Second, fn)
		s.Schedule(time.Microsecond, fn)
		s.Step()
	}
}

// waveWidth is the fan-out of one broadcast wave: a frame reaching every
// member of a 256-process group at the same instant.
const waveWidth = 256

// waveEvents is the number of events one wave runs: the broadcast, one
// delivery per member, and the interrupt each delivery schedules.
const waveEvents = 1 + 2*waveWidth

// wave returns a broadcast callback for the ether → interrupt cascade:
// it schedules waveWidth deliveries at one instant, and each delivery
// schedules one interrupt at a later instant.
func wave(schedule func(time.Duration, func())) func() {
	irq := func() {}
	deliver := func() { schedule(time.Microsecond, irq) }
	return func() {
		for i := 0; i < waveWidth; i++ {
			schedule(time.Microsecond, deliver)
		}
	}
}

// BenchmarkScheduleWave runs broadcast waves over a queue holding
// benchDepth far-future timers, one wave per op; ns/event divides by the
// wave's waveEvents events.
func BenchmarkScheduleWave(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Hour+time.Duration(i)*time.Microsecond, fn)
	}
	w := wave(func(d time.Duration, fn func()) { s.Schedule(d, fn) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(0, w)
		for j := 0; j < waveEvents; j++ {
			s.Step()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*waveEvents), "ns/event")
}

func BenchmarkScheduleWaveContainerHeap(b *testing.B) {
	s := &refSim{}
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Hour+time.Duration(i)*time.Microsecond, fn)
	}
	w := wave(func(d time.Duration, fn func()) { s.Schedule(d, fn) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(0, w)
		for j := 0; j < waveEvents; j++ {
			s.Step()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*waveEvents), "ns/event")
}

// ---- Zero-alloc budgets (enforced in CI) ----

// TestEventSlotBudget pins the pooled event slot at 48 bytes. One word
// more puts it in the 64-byte size class, which costs every event a
// third more memory traffic.
func TestEventSlotBudget(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 48 {
		t.Fatalf("event slot is %d bytes, budget is 48", n)
	}
}

// TestScheduleWaveZeroAlloc asserts a broadcast wave, one chain per
// instant, runs without allocating once the free list covers it.
func TestScheduleWaveZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Hour+time.Duration(i)*time.Microsecond, fn)
	}
	w := wave(func(d time.Duration, fn func()) { s.Schedule(d, fn) })
	run := func() {
		s.Schedule(0, w)
		for j := 0; j < waveEvents; j++ {
			s.Step()
		}
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("broadcast wave allocates %.2f objects/wave, budget is 0", avg)
	}
}

// TestScheduleFireZeroAlloc asserts the schedule→fire hot path allocates
// nothing in steady state: slots come from the free list and the heap
// slice stays within capacity.
func TestScheduleFireZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Millisecond, fn)
		s.Step()
	}); avg != 0 {
		t.Fatalf("schedule/fire steady state allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestScheduleCancelZeroAlloc asserts the schedule→cancel (timer churn)
// hot path is allocation-free, including tombstone collection.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < benchDepth; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	// Warm through several compaction cycles so the heap slice and free
	// list reach their steady-state capacities before measuring.
	for i := 0; i < 2000; i++ {
		s.Cancel(s.Schedule(time.Millisecond, fn))
	}
	if avg := testing.AllocsPerRun(1000, func() {
		s.Cancel(s.Schedule(time.Millisecond, fn))
	}); avg != 0 {
		t.Fatalf("schedule/cancel steady state allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestRunDrainZeroAlloc asserts a warmed simulator can absorb and drain a
// burst without allocating: the shrunk heap and free list must still
// cover the burst that fits their hysteresis band.
func TestRunDrainZeroAlloc(t *testing.T) {
	s := New()
	fn := func() {}
	warm := func() {
		for i := 0; i < minQueueCap; i++ {
			s.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		s.Run()
	}
	warm()
	if avg := testing.AllocsPerRun(100, warm); avg != 0 {
		t.Fatalf("warmed burst drain allocates %.2f objects/run, budget is 0", avg)
	}
}
