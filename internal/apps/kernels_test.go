package apps

import (
	"math"
	"testing"

	"amoebasim/internal/sim"
)

// The reference loops below are the kernels as one-cell loops. The
// unrolled helpers must match them exactly at every row length up to
// twice the unroll width plus one, which reaches every tail length.

func aspRelaxRef(ri, rowk []int32, dik int32) {
	for j := 0; j < len(ri); j++ {
		if v := dik + rowk[j]; v < ri[j] {
			ri[j] = v
		}
	}
}

func sorSweepRowRef(row, up, down []float64, j0 int, omega float64) int {
	updates := 0
	for j := j0; j < len(row)-1; j += 2 {
		gs := (up[j] + down[j] + row[j-1] + row[j+1]) / 4
		row[j] = row[j] + omega*(gs-row[j])
		updates++
	}
	return updates
}

func TestASPRelaxMatchesLoop(t *testing.T) {
	const width = 4
	rng := sim.NewRand(7)
	cell := func() int32 {
		if rng.Intn(3) == 0 {
			return aspInf
		}
		return int32(rng.Intn(200))
	}
	for n := 0; n <= 2*width+1; n++ {
		for _, dik := range []int32{0, 1, 50, aspInf - 1} {
			ri, rowk := make([]int32, n), make([]int32, n)
			for j := range ri {
				ri[j], rowk[j] = cell(), cell()
			}
			want := append([]int32(nil), ri...)
			aspRelaxRef(want, rowk, dik)
			aspRelax(ri, rowk, dik)
			for j := range ri {
				if ri[j] != want[j] {
					t.Fatalf("n=%d dik=%d: cell %d = %d, want %d", n, dik, j, ri[j], want[j])
				}
			}
		}
	}
}

func TestSORSweepRowMatchesLoop(t *testing.T) {
	const width = 8 // four cells, every second column
	rng := sim.NewRand(7)
	randRow := func(n int) []float64 {
		r := make([]float64, n)
		for j := range r {
			r[j] = float64(rng.Intn(1000)) / 7
		}
		return r
	}
	for n := 1; n <= 2*width+1; n++ {
		for j0 := 1; j0 <= 2; j0++ {
			row, up, down := randRow(n), randRow(n), randRow(n)
			want := append([]float64(nil), row...)
			wantN := sorSweepRowRef(want, up, down, j0, 1.9)
			if got := sorSweepRow(row, up, down, j0, 1.9); got != wantN {
				t.Fatalf("n=%d j0=%d: %d updates, want %d", n, j0, got, wantN)
			}
			for j := range row {
				if math.Float64bits(row[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d j0=%d: cell %d = %v, want %v", n, j0, j, row[j], want[j])
				}
			}
		}
	}
}

// BenchmarkASPRelax relaxes one paper-size row per op. Rows come in
// Floyd-Warshall order over a paper-size instance, skipping those with no
// path to the pivot as ASP does, and the instance is rebuilt after each
// full pass, so the ops see ASP's mix of busy early pivots and settled
// late ones.
func BenchmarkASPRelax(b *testing.B) {
	n := (&ASP{}).defaults().N
	var dist [][]int32
	k, i := n, 0
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		for {
			if i++; i == n {
				i, k = 0, k+1
			}
			if k == n {
				b.StopTimer()
				dist, k = aspInstance(n, 1), 0
				b.StartTimer()
			}
			if dist[i][k] < aspInf {
				break
			}
		}
		aspRelax(dist[i], dist[k], dist[i][k])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
}

// BenchmarkSORSweep sweeps one paper-size row per op, one color per pass
// over the grid's interior rows.
func BenchmarkSORSweep(b *testing.B) {
	cfg := (&SOR{}).defaults()
	grid := sorInstance(cfg.Rows, cfg.Cols, 1)
	inner := cfg.Rows - 2
	cells := 0
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		i, phase := 1+op%inner, op/inner%2
		cells += sorSweepRow(grid[i], grid[i-1], grid[i+1], 1+(i+phase)%2, cfg.Omega)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cells), "ns/cell")
}
