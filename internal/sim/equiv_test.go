package sim

// Old-vs-new scheduler equivalence: the pooled queue of same-instant
// chains must fire exactly the same events in exactly the same (time, seq)
// order as the container/heap implementation it replaced, under arbitrary
// interleavings of Schedule, Cancel and Step. One randomized soak and one
// fuzz harness share the same lockstep driver. A partitioned test checks
// the chains against merged cross-partition events, which the
// lone-simulator reference cannot produce.

import (
	"sort"
	"testing"
	"time"
)

// alphabet holds the delays of the chain-building ops. With three
// values, consecutive schedules made at one clock value share an instant
// about one time in three, so chains form, grow and surface often.
var alphabet = [3]time.Duration{0, time.Microsecond, 2 * time.Microsecond}

// lockstep drives the new and reference schedulers with an identical
// operation sequence and fails the test at the first divergence in fire
// order, clock, cancel result or pending count. Ops are drawn from the
// script: each byte selects an op, and the op's argument is the
// following byte.
//
//	byte%12  op
//	0–3      schedule, delay 0–255 µs
//	4–5      cancel a previously issued handle (possibly stale)
//	6–7      step
//	8–10     schedule, delay from alphabet
//	11       schedule a burst callback: when it fires it schedules 2–8
//	         events at one instant (a delay from alphabet) and cancels
//	         the burst's head, a middle member or its tail
func lockstep(t *testing.T, script []byte) {
	t.Helper()
	sNew := New()
	sRef := &refSim{}

	var gotNew, gotRef []int
	type pair struct {
		n Event
		r *refEvent
	}
	var handles []pair
	nextID := 0
	arg := func(i int) byte {
		if i < len(script) {
			return script[i]
		}
		return 0
	}
	schedule := func(d time.Duration) {
		id := nextID
		nextID++
		hn := sNew.Schedule(d, func() { gotNew = append(gotNew, id) })
		hr := sRef.Schedule(d, func() { gotRef = append(gotRef, id) })
		handles = append(handles, pair{n: hn, r: hr})
	}

	for i := 0; i < len(script); i++ {
		op, b := script[i]%12, arg(i+1)
		if op < 6 || op >= 8 {
			i++ // every op but step takes the next byte
		}
		switch {
		case op < 4:
			schedule(time.Duration(b) * time.Microsecond)
		case op < 6:
			if len(handles) == 0 || i >= len(script) {
				continue
			}
			p := handles[int(b)%len(handles)]
			cn := sNew.Cancel(p.n)
			cr := sRef.Cancel(p.r)
			if cn != cr {
				t.Fatalf("op %d: Cancel disagreed: new=%v ref=%v", i, cn, cr)
			}
		case op < 8:
			sn := sNew.Step()
			sr := sRef.Step()
			if sn != sr {
				t.Fatalf("op %d: Step disagreed: new=%v ref=%v", i, sn, sr)
			}
		case op < 11:
			schedule(alphabet[b%3])
		default:
			id, k := nextID, 2+int(b>>2)%7
			nextID += 1 + k
			at, d := alphabet[(b>>4)%3], alphabet[b%3]
			victim := [3]int{0, k / 2, k - 1}[int(b>>5)%3]
			sNew.Schedule(at, func() {
				gotNew = append(gotNew, id)
				hs := make([]Event, k)
				for j := range hs {
					hs[j] = sNew.Schedule(d, func() { gotNew = append(gotNew, id+1+j) })
				}
				sNew.Cancel(hs[victim])
			})
			sRef.Schedule(at, func() {
				gotRef = append(gotRef, id)
				hs := make([]*refEvent, k)
				for j := range hs {
					hs[j] = sRef.Schedule(d, func() { gotRef = append(gotRef, id+1+j) })
				}
				sRef.Cancel(hs[victim])
			})
		}
		if sNew.Pending() != sRef.Pending() {
			t.Fatalf("op %d: Pending diverged: new=%d ref=%d", i, sNew.Pending(), sRef.Pending())
		}
	}
	sNew.Run()
	sRef.Run()

	if sNew.Now() != sRef.now {
		t.Fatalf("clocks diverged: new=%v ref=%v", sNew.Now(), sRef.now)
	}
	if len(gotNew) != len(gotRef) {
		t.Fatalf("fired %d events, reference fired %d", len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			t.Fatalf("fire order diverged at %d: new=%v ref=%v", i, gotNew[i], gotRef[i])
		}
	}
}

// TestSchedulerEquivalenceRandomized soaks the lockstep driver with
// seed-reproducible random scripts long enough to exercise pooling,
// tombstone compaction and shrink.
func TestSchedulerEquivalenceRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRand(seed)
		script := make([]byte, 4096)
		for i := range script {
			script[i] = byte(r.Intn(256))
		}
		lockstep(t, script)
	}
}

// FuzzSchedulerEquivalence lets the fuzzer search for an interleaving
// where the pooled queue diverges from the container/heap specification.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 6, 4, 0, 6})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 0, 4, 1, 6, 6, 6})
	f.Add([]byte{1, 255, 2, 128, 3, 0, 5, 1, 7, 7, 7, 7})
	// Chains: three schedules at one instant, a step into the chain, a
	// cancel of its tail, and a schedule at the same instant behind it.
	f.Add([]byte{8, 1, 8, 1, 8, 1, 6, 4, 2, 8, 1, 6, 6, 6})
	// A popped tail's slot is recycled by the next schedule at its instant.
	f.Add([]byte{8, 0, 6, 8, 0, 8, 0, 6, 6})
	// Bursts that cancel their head, a middle member and their tail,
	// stepped into, then extended from outside.
	f.Add([]byte{11, 0x1c, 11, 0x3d, 11, 0x5e, 6, 6, 6, 9, 2, 9, 2, 7, 7})
	// Over half of a chain canceled, then one more behind it.
	f.Add([]byte{8, 0, 8, 0, 8, 0, 8, 0, 8, 0, 4, 0, 4, 1, 4, 2, 4, 4, 8, 0, 6, 6, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<14 {
			script = script[:1<<14]
		}
		lockstep(t, script)
	})
}

// TestSchedulerEquivalenceGroupChains checks chains against merged
// cross-partition events, which share a chain's instant with a gat below,
// equal to and above the chain's, and a src below and above its
// partition's. Partition 1 builds a four-event chain at gat 20 and
// schedules one more event at the same instant at gat 25, right behind
// it. Merged events at gats 20 and 22 must fire between the two; a chain
// that ignored gat would fire the gat-25 event first. The fire order must
// be the sort by (at, gat, src, seq), at any worker count.
func TestSchedulerEquivalenceGroupChains(t *testing.T) {
	us := func(n int) Time { return Time(time.Duration(n) * time.Microsecond) }
	at := us(100)
	type stamp struct {
		at, gat Time
		src     int32
		seq     uint64
		id      int
	}
	for _, workers := range []int{1, 3} {
		parts := []*Sim{New(), New(), New()}
		dst := parts[1]
		g := NewGroup(parts, time.Microsecond, workers)
		var got []int
		sent := make([][]stamp, len(parts)) // by sending partition: no sharing between workers
		send := func(from *Sim, id int) {
			from.ScheduleOn(dst, at, func() { got = append(got, id) })
			sent[from.part] = append(sent[from.part], stamp{at, from.Now(), from.part, from.seq, id})
		}
		dst.ScheduleAt(us(20), func() {
			for id := 0; id < 4; id++ {
				send(dst, id)
			}
		})
		dst.ScheduleAt(us(25), func() { send(dst, 4) })
		for i, gat := range []int{10, 20, 22, 30} {
			for j, from := range []*Sim{parts[0], parts[2]} {
				id := 5 + 2*i + j
				from.ScheduleAt(us(gat), func() { send(from, id) })
			}
		}
		g.Run()

		var want []stamp
		for _, s := range sent {
			want = append(want, s...)
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.gat != b.gat {
				return a.gat < b.gat
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: fired %d events, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].id {
				t.Fatalf("workers=%d: fire order %v diverges at %d from the (at, gat, src, seq) sort %v",
					workers, got, i, want)
			}
		}
	}
}
