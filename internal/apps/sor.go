package apps

import (
	"time"

	"amoebasim/internal/orca"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// SOR is the Successive Overrelaxation program of §5: red/black
// Gauss-Seidel iteration over a float grid, with the same strip
// partitioning and guarded-buffer boundary exchange as Region Labeling
// (two exchanges per iteration, one per color phase).
type SOR struct {
	// Rows, Cols is the grid size (default 500×512).
	Rows, Cols int
	// Iters is the number of red+black iterations (default 200).
	Iters int
	// Omega is the overrelaxation factor (default 1.9).
	Omega float64
	// CellCost is the simulated CPU cost per cell update (default
	// calibrated to Table 3's 118 s single-processor run).
	CellCost time.Duration
	// Seed drives boundary-condition generation.
	Seed uint64
}

var _ App = (*SOR)(nil)

// Name implements App.
func (a *SOR) Name() string { return "sor" }

// NeedsGroup implements App.
func (a *SOR) NeedsGroup() bool { return false }

func (a *SOR) defaults() SOR {
	d := *a
	if d.Rows == 0 {
		// Like RL, 500 rows leave a strip imbalance that makes the
		// guarded boundary exchange block.
		d.Rows = 500
	}
	if d.Cols == 0 {
		d.Cols = 512
	}
	if d.Iters == 0 {
		d.Iters = 200
	}
	if d.Omega == 0 {
		d.Omega = 1.9
	}
	if d.CellCost == 0 {
		// 118 s / (500·512·200 ≈ 51.2M updates) ≈ 2.30 µs.
		d.CellCost = 2300 * time.Nanosecond
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
	return d
}

// Setup implements App.
func (a *SOR) Setup(h *Harness) func() int64 {
	cfg := a.defaults()
	rows, cols := cfg.Rows, cfg.Cols
	p := h.Procs

	grid := sorInstance(rows, cols, cfg.Seed)
	sb := newStripBuffers(h, p)
	lo := func(id int) int { return id * rows / p }
	hi := func(id int) int { return (id + 1) * rows / p }

	h.SpawnWorkers(func(rt *orca.Runtime, t *proc.Thread) error {
		id := rt.ID()
		myLo, myHi := lo(id), hi(id)
		for it := 0; it < cfg.Iters; it++ {
			for phase := 0; phase < 2; phase++ {
				ghostTop, ghostBot, err := sb.exchange(rt, t, id, p, grid[myLo], grid[myHi-1])
				if err != nil {
					return err
				}
				updates := 0
				for i := myLo; i < myHi; i++ {
					if i == 0 || i == rows-1 {
						continue // fixed boundary rows
					}
					up := grid[i-1]
					if i-1 < myLo {
						up = ghostTop
					}
					down := grid[i+1]
					if i+1 >= myHi {
						down = ghostBot
					}
					updates += sorSweepRow(grid[i], up, down, 1+(i+phase)%2, cfg.Omega)
				}
				t.Compute(time.Duration(updates) * cfg.CellCost)
			}
		}
		return nil
	})

	return func() int64 {
		var sum float64
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				sum += grid[i][j]
			}
		}
		return int64(sum * 1000)
	}
}

// sorInstance builds a zero grid with random fixed values on its outer
// frame.
func sorInstance(rows, cols int, seed uint64) [][]float64 {
	rng := sim.NewRand(seed)
	grid := make([][]float64, rows)
	for i := range grid {
		grid[i] = make([]float64, cols)
	}
	for j := 0; j < cols; j++ {
		grid[0][j] = float64(rng.Intn(100))
		grid[rows-1][j] = float64(rng.Intn(100))
	}
	for i := 0; i < rows; i++ {
		grid[i][0] = float64(rng.Intn(100))
		grid[i][cols-1] = float64(rng.Intn(100))
	}
	return grid
}

// sorSweepRow overrelaxes every second interior cell of row, from column
// j0 (1 or 2), against its left and right neighbors and the cells above
// (up) and below (down), and returns how many cells it updated. It works
// on windows whose index 0 is a cell's left neighbor. The loop is
// unrolled four cells wide and tests every window's length, so no cell
// pays a bounds check. Each cell's expression and operand order are the
// one-cell loop's, so every result is bit-identical.
func sorSweepRow(row, up, down []float64, j0 int, omega float64) int {
	w, u, d := row[j0-1:], up[j0-1:len(row)], down[j0-1:len(row)]
	n := 0
	for len(w) >= 9 && len(u) >= 9 && len(d) >= 9 {
		gs := (u[1] + d[1] + w[0] + w[2]) / 4
		w[1] = w[1] + omega*(gs-w[1])
		gs = (u[3] + d[3] + w[2] + w[4]) / 4
		w[3] = w[3] + omega*(gs-w[3])
		gs = (u[5] + d[5] + w[4] + w[6]) / 4
		w[5] = w[5] + omega*(gs-w[5])
		gs = (u[7] + d[7] + w[6] + w[8]) / 4
		w[7] = w[7] + omega*(gs-w[7])
		w, u, d = w[8:], u[8:], d[8:]
		n += 4
	}
	for len(w) >= 3 && len(u) >= 3 && len(d) >= 3 {
		gs := (u[1] + d[1] + w[0] + w[2]) / 4
		w[1] = w[1] + omega*(gs-w[1])
		w, u, d = w[2:], u[2:], d[2:]
		n++
	}
	return n
}
