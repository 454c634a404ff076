package apps

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/orca"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// TestAnswersIdenticalAcrossModesAndProcs is the core correctness check:
// every application must compute exactly the same answer regardless of
// protocol implementation and processor count — the protocols change only
// the timing.
func TestAnswersIdenticalAcrossModesAndProcs(t *testing.T) {
	for _, app := range TestScale() {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			var want int64
			first := true
			for _, mode := range panda.AllModes() {
				for _, procs := range []int{1, 2, 4} {
					res, err := RunApp(app, cluster.Config{
						Procs: procs, Mode: mode, Seed: 5,
					})
					if err != nil {
						t.Fatalf("%v procs=%d: %v", mode, procs, err)
					}
					if first {
						want = res.Answer
						first = false
						continue
					}
					if res.Answer != want {
						t.Fatalf("%v procs=%d: answer %d, want %d",
							mode, procs, res.Answer, want)
					}
				}
			}
		})
	}
}

// TestAppsSpeedUp checks that adding processors reduces simulated
// execution time for the compute-bound applications at test scale.
func TestAppsSpeedUp(t *testing.T) {
	for _, app := range []App{
		&TSP{Cities: 8, JobCost: 50 * time.Millisecond},
		&AB{Branch: 4, Depth: 5, RootMoves: 12, NodeCost: time.Millisecond},
	} {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			r1, err := RunApp(app, cluster.Config{Procs: 1, Mode: panda.UserSpace, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			r4, err := RunApp(app, cluster.Config{Procs: 4, Mode: panda.UserSpace, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if r4.Elapsed >= r1.Elapsed {
				t.Fatalf("no speedup: 1p=%v 4p=%v", r1.Elapsed, r4.Elapsed)
			}
			speedup := float64(r1.Elapsed) / float64(r4.Elapsed)
			t.Logf("%s: 1p=%v 4p=%v speedup=%.2f", app.Name(), r1.Elapsed, r4.Elapsed, speedup)
			if speedup < 1.5 {
				t.Fatalf("speedup %.2f too low for a coarse-grained app", speedup)
			}
		})
	}
}

// TestLEQNonblockingExtension runs LEQ with the §6 nonblocking broadcasts
// and verifies the answer is unchanged.
func TestLEQNonblockingExtension(t *testing.T) {
	base, err := RunApp(&LEQ{N: 48, Iters: 12}, cluster.Config{
		Procs: 4, Mode: panda.UserSpace, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := RunApp(&LEQ{N: 48, Iters: 12, NB: true}, cluster.Config{
		Procs: 4, Mode: panda.UserSpace, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nb.Answer != base.Answer {
		t.Fatalf("NB answer %d != blocking answer %d", nb.Answer, base.Answer)
	}
	t.Logf("LEQ 4p: blocking=%v nonblocking=%v", base.Elapsed, nb.Elapsed)
	if nb.Elapsed >= base.Elapsed {
		t.Fatalf("nonblocking broadcasts should reduce execution time (%v vs %v)",
			nb.Elapsed, base.Elapsed)
	}
}

// TestLEQDedicatedSequencer verifies the dedicated-sequencer configuration
// produces the same answer.
func TestLEQDedicatedSequencer(t *testing.T) {
	base, err := RunApp(&LEQ{N: 48, Iters: 12}, cluster.Config{
		Procs: 4, Mode: panda.UserSpace, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ded, err := RunApp(&LEQ{N: 48, Iters: 12}, cluster.Config{
		Procs: 4, Mode: panda.UserSpace, Seed: 5, DedicatedSequencer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ded.Answer != base.Answer {
		t.Fatalf("dedicated answer %d != member answer %d", ded.Answer, base.Answer)
	}
	if ded.Mode != "user-space-dedicated" {
		t.Fatalf("mode label = %q", ded.Mode)
	}
}

// TestAppsRunUnderPacketLoss exercises the full stack end to end with
// loss: answers must still be exact.
func TestAppsRunUnderPacketLoss(t *testing.T) {
	for _, app := range []App{
		&ASP{N: 32},
		&LEQ{N: 32, Iters: 6},
		&RL{Rows: 32, Cols: 32, Iters: 4},
	} {
		app := app
		t.Run(app.Name(), func(t *testing.T) {
			clean, err := RunApp(app, cluster.Config{Procs: 3, Mode: panda.UserSpace, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			lossy, err := RunApp(app, cluster.Config{
				Procs: 3, Mode: panda.UserSpace, Seed: 5, LossRate: 0.03,
			})
			if err != nil {
				t.Fatal(err)
			}
			if lossy.Answer != clean.Answer {
				t.Fatalf("answer changed under loss: %d vs %d", lossy.Answer, clean.Answer)
			}
			if lossy.Elapsed < clean.Elapsed {
				t.Logf("note: lossy run faster (%v vs %v); timers can shadow compute", lossy.Elapsed, clean.Elapsed)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) != 6 {
		t.Fatalf("expected 6 apps, got %d", len(All()))
	}
	for _, name := range []string{"tsp", "asp", "ab", "rl", "sor", "leq"} {
		if ByName(name) == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName should return nil for unknown apps")
	}
}

// TestSORExchangeAllocBudget checks that the boundary exchange recycles
// its rows: at 512-column rows, each extra SOR iteration must allocate
// less than one row copy per exchange, the cost of copying every put
// into a fresh row.
func TestSORExchangeAllocBudget(t *testing.T) {
	const rows, cols, procs = 64, 512, 4
	for _, mode := range panda.AllModes() {
		alloc := func(iters int) int64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := RunApp(&SOR{Rows: rows, Cols: cols, Iters: iters},
				cluster.Config{Procs: procs, Mode: mode, Seed: 5})
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc - before.TotalAlloc)
		}
		const lo, hi = 4, 24
		perIter := (alloc(hi) - alloc(lo)) / (hi - lo)
		exchanges := 2 * procs // one per worker per color phase
		budget := int64(exchanges * cols * 8)
		t.Logf("%v: %d B per extra iteration, budget %d B", mode, perIter, budget)
		if perIter >= budget {
			t.Fatalf("%v: %d B per extra iteration, want < %d B (one %d-column row per exchange)",
				mode, perIter, budget, cols)
		}
	}
}

// TestRowBufZeroAlloc checks that the bounded buffer's put and get move
// rows without allocating.
func TestRowBufZeroAlloc(t *testing.T) {
	typ := rowBufType()
	put, get := typ.Ops["put"], typ.Ops["get"]
	q := make([]any, 0, bufCap)
	var row any = make([]float64, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < bufCap; i++ {
			put.Apply(nil, &q, row)
		}
		for i := 0; i < bufCap; i++ {
			get.Apply(nil, &q, nil)
		}
	})
	if allocs != 0 {
		t.Fatalf("put and get allocate %v times per round, want 0", allocs)
	}
}

// TestStripExchangeCopiesRows checks the exchange's contract directly: a
// ghost row keeps the values its neighbor sent until the reader's next
// exchange, although the sender overwrites its own row at once and, being
// faster, sends its next row meanwhile. RL and SOR read their ghost rows
// as soon as the exchange returns, so their oracles pass even when the
// live row is sent.
func TestStripExchangeCopiesRows(t *testing.T) {
	const rounds, cols = 3 * (bufCap + 2), 8
	for _, mode := range panda.AllModes() {
		c, err := cluster.New(cluster.Config{Procs: 2, Mode: mode, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		h := NewHarness(c)
		sb := newStripBuffers(h, 2)
		h.SpawnWorkers(func(rt *orca.Runtime, th *proc.Thread) error {
			id := rt.ID()
			row := make([]float64, cols)
			for e := 0; e < rounds; e++ {
				for j := range row {
					row[j] = float64(e)
				}
				ghostTop, ghostBot, err := sb.exchange(rt, th, id, 2, row, row)
				if err != nil {
					return err
				}
				for j := range row {
					row[j] = -1
				}
				th.Compute(time.Duration(1+10*id) * time.Millisecond)
				ghost := ghostBot
				if id == 1 {
					ghost = ghostTop
				}
				for j, v := range ghost {
					if v != float64(e) {
						return fmt.Errorf("exchange %d: ghost cell %d = %v", e, j, v)
					}
				}
			}
			return nil
		})
		_, err = h.Wait()
		c.Shutdown()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
}
