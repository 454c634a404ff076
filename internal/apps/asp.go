package apps

import (
	"time"

	"amoebasim/internal/orca"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ASP is the All-Pairs Shortest Paths program of §5: Floyd-Warshall with
// the distance matrix partitioned row-wise. In iteration k the owner of
// pivot row k broadcasts it to everyone (the paper: 768 group messages of
// 3200 bytes, ≈5 ms each); every processor then relaxes its own rows. The
// moderate speedup is caused by the per-iteration broadcast latency.
type ASP struct {
	// N is the number of graph nodes (default 768, as in the paper).
	N int
	// CellCost is the simulated CPU cost of one relaxation (default
	// calibrated to Table 3's 213 s single-processor run: 213 s / 768³).
	CellCost time.Duration
	// Seed drives instance generation.
	Seed uint64
}

var _ App = (*ASP)(nil)

// Name implements App.
func (a *ASP) Name() string { return "asp" }

// NeedsGroup implements App.
func (a *ASP) NeedsGroup() bool { return true }

func (a *ASP) defaults() ASP {
	d := *a
	if d.N == 0 {
		d.N = 768
	}
	if d.CellCost == 0 {
		d.CellCost = 470 * time.Nanosecond
	}
	if d.Seed == 0 {
		d.Seed = 1
	}
	return d
}

// aspBoard is the replicated pivot-row board: publish(k,row) broadcasts a
// pivot row; await(k) is a guarded local read that blocks until row k has
// been delivered.
type aspBoard struct {
	rows map[int][]int32
}

type aspPublish struct {
	k   int
	row []int32
}

// Setup implements App.
func (a *ASP) Setup(h *Harness) func() int64 {
	cfg := a.defaults()
	n := cfg.N
	p := h.Procs

	dist := aspInstance(n, cfg.Seed)

	boardType := orca.NewType("rowboard",
		&orca.OpDef{
			Name: "publish",
			Apply: func(t *proc.Thread, s orca.State, args any) (any, int) {
				b := s.(*aspBoard)
				pub := args.(aspPublish)
				b.rows[pub.k] = pub.row
				return nil, 0
			},
		},
		&orca.OpDef{
			// await's guard references the operation parameter k, so it
			// is supplied per invocation via InvokeGuarded.
			Name: "await", ReadOnly: true,
			Apply: func(t *proc.Thread, s orca.State, args any) (any, int) {
				b := s.(*aspBoard)
				k := args.(int)
				return b.rows[k], len(b.rows[k]) * 4
			},
		},
	)
	board := h.Program.DeclareReplicated("rows", boardType, func() orca.State {
		return &aspBoard{rows: make(map[int][]int32, n)}
	})

	lo := func(id int) int { return id * n / p }
	hi := func(id int) int { return (id + 1) * n / p }
	// owner inverts lo and hi only when p divides n; otherwise a worker
	// can publish a row another worker owns.
	owner := func(k int) int { return k * p / n }

	h.SpawnWorkers(func(rt *orca.Runtime, t *proc.Thread) error {
		id := rt.ID()
		myLo, myHi := lo(id), hi(id)
		myRows := myHi - myLo
		for k := 0; k < n; k++ {
			var rowk []int32
			if owner(k) == id {
				rowk = append([]int32(nil), dist[k]...)
				if _, _, err := rt.Invoke(t, board, "publish",
					aspPublish{k: k, row: rowk}, n*4); err != nil {
					return err
				}
			} else {
				res, _, err := rt.InvokeGuarded(t, board, "await", k, 4,
					func(s orca.State) bool {
						_, ok := s.(*aspBoard).rows[k]
						return ok
					})
				if err != nil {
					return err
				}
				var okCast bool
				rowk, okCast = res.([]int32)
				if !okCast {
					return errBadRow
				}
			}
			for i := myLo; i < myHi; i++ {
				if dik := dist[i][k]; dik < aspInf {
					aspRelax(dist[i], rowk, dik)
				}
			}
			t.Compute(time.Duration(myRows*n) * cfg.CellCost)
		}
		return nil
	})

	return func() int64 {
		var sum int64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dist[i][j] < aspInf {
					sum += int64(dist[i][j])
				}
			}
		}
		return sum
	}
}

// aspInf marks a missing edge. Twice it still fits in an int32, so a
// relaxation through a missing edge cannot overflow.
const aspInf = int32(1) << 29

// aspInstance builds a deterministic sparse directed graph as a distance
// matrix.
func aspInstance(n int, seed uint64) [][]int32 {
	rng := sim.NewRand(seed)
	dist := make([][]int32, n)
	for i := range dist {
		dist[i] = make([]int32, n)
		for j := range dist[i] {
			switch {
			case i == j:
				dist[i][j] = 0
			case rng.Intn(100) < 12: // sparse edges
				dist[i][j] = int32(rng.Intn(99) + 1)
			default:
				dist[i][j] = aspInf
			}
		}
	}
	return dist
}

// aspRelax is one row of the Floyd-Warshall step for pivot k: it lowers
// ri[j] to dik+rowk[j] wherever that is shorter, with dik = ri[k]. The
// loop is unrolled four wide and tests both lengths, and the tail runs on
// rowk resliced to ri's length, so no cell pays a bounds check. Each
// cell's comparison is the one-cell loop's.
func aspRelax(ri, rowk []int32, dik int32) {
	for len(ri) >= 4 && len(rowk) >= 4 {
		if v := dik + rowk[0]; v < ri[0] {
			ri[0] = v
		}
		if v := dik + rowk[1]; v < ri[1] {
			ri[1] = v
		}
		if v := dik + rowk[2]; v < ri[2] {
			ri[2] = v
		}
		if v := dik + rowk[3]; v < ri[3] {
			ri[3] = v
		}
		ri, rowk = ri[4:], rowk[4:]
	}
	rowk = rowk[:len(ri)]
	for j, r := range ri {
		if v := dik + rowk[j]; v < r {
			ri[j] = v
		}
	}
}
