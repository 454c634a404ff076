package apps

import (
	"testing"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/sim"
)

// The oracle tests validate the distributed applications against direct
// sequential computations of the same instances: the parallel runs must
// produce exactly the oracle's answer.

func TestTSPOracle(t *testing.T) {
	app := &TSP{Cities: 8, JobCost: 1e6, Seed: 3}
	res, err := RunApp(app, cluster.Config{Procs: 3, Mode: panda.UserSpace, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: the minimum greedy completion over every three-hop prefix,
	// with no pruning at all.
	cfg := app.defaults()
	dist := tspInstance(cfg.Cities, cfg.Seed)
	best := 1 << 30
	n := cfg.Cities
	for b := 1; b < n; b++ {
		for c := 1; c < n; c++ {
			if c == b {
				continue
			}
			for d := 1; d < n; d++ {
				if d == b || d == c {
					continue
				}
				if tour := tspGreedyComplete(dist, []int{0, b, c, d}); tour < best {
					best = tour
				}
			}
		}
	}
	if res.Answer != int64(best) {
		t.Fatalf("distributed TSP = %d, oracle = %d", res.Answer, best)
	}
}

// TestASPOracle runs ASP at Ns that are not a multiple of aspRelax's
// unroll width, so its one-cell tail runs too: N=39, a multiple of the
// processor count, and N=41, which is not, so strips differ in size and
// the pivot-row owner must invert the uneven strip bounds.
func TestASPOracle(t *testing.T) {
	for _, n := range []int{39, 41} {
		app := &ASP{N: n, Seed: 3}
		cfg := app.defaults()
		// Oracle: plain sequential Floyd-Warshall on the same instance.
		dist := aspInstance(n, cfg.Seed)
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if v := dist[i][k] + dist[k][j]; dist[i][k] < aspInf && v < dist[i][j] {
						dist[i][j] = v
					}
				}
			}
		}
		var want int64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dist[i][j] < aspInf {
					want += int64(dist[i][j])
				}
			}
		}
		for _, mode := range panda.AllModes() {
			res, err := RunApp(app, cluster.Config{Procs: 3, Mode: mode, Seed: 3})
			if err != nil {
				t.Fatalf("N=%d, %v: %v", n, mode, err)
			}
			if res.Answer != want {
				t.Fatalf("N=%d, %v: distributed ASP = %d, oracle = %d", n, mode, res.Answer, want)
			}
		}
	}
}

func TestABOracle(t *testing.T) {
	app := &AB{Branch: 4, Depth: 4, RootMoves: 6, NodeCost: 1e6, Seed: 3}
	res, err := RunApp(app, cluster.Config{Procs: 3, Mode: panda.UserSpace, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: full-window alpha-beta per root move (always exact).
	cfg := app.defaults()
	want := -1 << 30
	for move := 0; move < cfg.RootMoves; move++ {
		nodes := 0
		v := -abSearch(cfg.Seed, uint64(move+1), cfg.Branch, cfg.Depth,
			-(1 << 30), 1<<30, &nodes)
		if v > want {
			want = v
		}
	}
	if res.Answer != int64(want) {
		t.Fatalf("distributed AB = %d, oracle minimax = %d", res.Answer, want)
	}
}

func TestLEQOracle(t *testing.T) {
	app := &LEQ{N: 32, Iters: 10, Seed: 3}
	res, err := RunApp(app, cluster.Config{Procs: 4, Mode: panda.UserSpace, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: sequential Jacobi on the same instance.
	cfg := app.defaults()
	n := cfg.N
	rng := sim.NewRand(cfg.Seed)
	A := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		A[i] = make([]float64, n)
		var rowSum float64
		for j := 0; j < n; j++ {
			if i != j {
				A[i][j] = float64(rng.Intn(9)) / 10
				rowSum += A[i][j]
			}
		}
		A[i][i] = rowSum + 1 + float64(rng.Intn(10))
		b[i] = float64(rng.Intn(200) - 100)
	}
	x := make([]float64, n)
	next := make([]float64, n)
	for it := 0; it < cfg.Iters; it++ {
		for i := 0; i < n; i++ {
			s := b[i]
			for j := 0; j < n; j++ {
				if j != i {
					s -= A[i][j] * x[j]
				}
			}
			next[i] = s / A[i][i]
		}
		x, next = next, x
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	if want := int64(sum * 1000); res.Answer != want {
		t.Fatalf("distributed LEQ = %d, oracle = %d", res.Answer, want)
	}
}

// TestRLOracleSequential checks RL against a direct single-grid sweep.
func TestRLOracleSequential(t *testing.T) {
	app := &RL{Rows: 24, Cols: 24, Iters: 6, Seed: 3}
	res, err := RunApp(app, cluster.Config{Procs: 3, Mode: panda.KernelSpace, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := app.defaults()
	rows, cols := cfg.Rows, cfg.Cols
	rng := sim.NewRand(cfg.Seed)
	fg := make([][]bool, rows)
	cur := make([][]float64, rows)
	next := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		fg[i] = make([]bool, cols)
		cur[i] = make([]float64, cols)
		next[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			fg[i][j] = rng.Intn(100) < 65
			if fg[i][j] {
				cur[i][j] = float64(i*cols + j + 1)
			}
		}
	}
	at := func(i, j int) float64 {
		if i < 0 || i >= rows {
			return 0
		}
		return cur[i][j]
	}
	for it := 0; it < cfg.Iters; it++ {
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if !fg[i][j] {
					next[i][j] = 0
					continue
				}
				best := cur[i][j]
				if j > 0 && cur[i][j-1] > best {
					best = cur[i][j-1]
				}
				if j < cols-1 && cur[i][j+1] > best {
					best = cur[i][j+1]
				}
				if v := at(i-1, j); v > best {
					best = v
				}
				if v := at(i+1, j); v > best {
					best = v
				}
				next[i][j] = best
			}
		}
		cur, next = next, cur
	}
	var want int64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			want += int64(cur[i][j])
		}
	}
	if res.Answer != want {
		t.Fatalf("distributed RL = %d, oracle = %d", res.Answer, want)
	}
}

// TestSOROracleSequential checks SOR against a plain red/black sweep of
// one grid. With four strips of a small grid each sweep is short against
// the network latency, so producers run ahead and fill their bounded
// buffers, and 10 iterations make 20 puts per buffer: every slot of a
// row ring is rewritten several times.
func TestSOROracleSequential(t *testing.T) {
	app := &SOR{Rows: 26, Cols: 24, Iters: 10, Seed: 3}
	cfg := app.defaults()
	rows, cols := cfg.Rows, cfg.Cols
	grid := sorInstance(rows, cols, cfg.Seed)
	for it := 0; it < cfg.Iters; it++ {
		for phase := 0; phase < 2; phase++ {
			for i := 1; i < rows-1; i++ {
				up, row, down := grid[i-1], grid[i], grid[i+1]
				for j := 1 + (i+phase)%2; j < cols-1; j += 2 {
					gs := (up[j] + down[j] + row[j-1] + row[j+1]) / 4
					row[j] = row[j] + cfg.Omega*(gs-row[j])
				}
			}
		}
	}
	var sum float64
	for _, row := range grid {
		for _, v := range row {
			sum += v
		}
	}
	want := int64(sum * 1000)
	for _, mode := range panda.AllModes() {
		res, err := RunApp(app, cluster.Config{Procs: 4, Mode: mode, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Answer != want {
			t.Fatalf("%v: distributed SOR = %d, oracle = %d", mode, res.Answer, want)
		}
	}
}
