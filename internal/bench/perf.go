package bench

// Single-run performance cells: how fast the simulator itself executes,
// measured as scheduler events per second of host time on fixed
// workloads. Two cells bracket the range — a 32-processor pool (the
// paper's scale) and a 1000-processor, 128-segment pool (the scale the
// partitioned engine exists for). Each cell's simulated results (ops,
// events, final clock, per-client checksum) are a pure function of the
// configuration and must be byte-identical at every -par worker count;
// only the wall-clock and events/sec fields are host-dependent.

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// PerfSchemaVersion identifies the PERF_*.json layout. Bump it when a
// field changes meaning; the regression gate refuses to compare
// artifacts across versions.
const PerfSchemaVersion = 1

// PerfArtifact is the machine-readable single-run performance baseline
// (PERF_*.json). The per-cell simulated fields are gated with zero drift
// tolerance; the worker count and the host measurements are not.
type PerfArtifact struct {
	SchemaVersion int        `json:"schema_version"`
	GeneratedAt   string     `json:"generated_at,omitempty" gate:"host"` // RFC 3339
	Seed          uint64     `json:"seed"`
	Par           int        `json:"par" gate:"host"` // worker count the run used
	Cells         []PerfCell `json:"cells"`
}

// PerfCell is one single-run measurement.
type PerfCell struct {
	Name     string  `json:"name"`
	Procs    int     `json:"procs"`
	Segments int     `json:"segments"`
	WindowMS float64 `json:"window_ms"`

	// Deterministic results, gated against the baseline and identical at
	// every worker count. Checksum folds every client's completed-call
	// count and accumulated latency, so a single reordered interaction
	// anywhere in the run changes the cell.
	Ops      int64  `json:"ops"`
	Events   uint64 `json:"events"`
	SimNS    int64  `json:"sim_ns"`
	Checksum uint64 `json:"checksum"`

	// Host-dependent measurements, never gated.
	Partitions   int     `json:"partitions" gate:"host"`     // engaged event-queue partitions
	WallMS       float64 `json:"wall_ms" gate:"host"`        // host time for the window
	EventsPerSec float64 `json:"events_per_sec" gate:"host"` // Events / wall seconds
}

// PerfConfig parameterizes the perf run.
type PerfConfig struct {
	Par  int    // partition-engine worker count (<=1: single-queue engine)
	Seed uint64 // cluster seed, part of the gated configuration
}

// perfShapes are the fixed cells. The windows comfortably exceed the
// client start stagger (13µs per client, spreading the partitions'
// first interactions apart in simulated time).
var perfShapes = []struct {
	name     string
	procs    int
	segments int
	window   time.Duration
}{
	{"perf/32proc", 32, 0, 200 * time.Millisecond},
	{"perf/1000proc-128seg", 1000, 128, 250 * time.Millisecond},
}

// RunPerf executes every perf cell at the given worker count.
func RunPerf(cfg PerfConfig) (*PerfArtifact, error) {
	art := &PerfArtifact{
		SchemaVersion: PerfSchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Seed:          cfg.Seed,
		Par:           cfg.Par,
	}
	for _, sh := range perfShapes {
		cell, err := runPerfCell(sh.name, sh.procs, sh.segments, sh.window, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		art.Cells = append(art.Cells, cell)
	}
	return art, nil
}

// runPerfCell drives a cross-segment unicast echo-RPC workload — a
// client on each upper-half processor calling the same-index lower-half
// server — for one simulated window, and measures the host cost.
func runPerfCell(name string, procs, segments int, window time.Duration, cfg PerfConfig) (PerfCell, error) {
	ccfg := cluster.Config{
		Procs: procs, Mode: panda.UserSpace, Seed: cfg.Seed,
		WarmRoutes: true, Par: cfg.Par, Segments: segments,
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return PerfCell{}, err
	}
	defer c.Shutdown()

	for i := 0; i < procs; i++ {
		srv := c.Transports[i]
		srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
			srv.Reply(th, ctx, nil, 0)
		})
	}
	nclients := procs / 2
	ops := make([]int64, nclients)
	lat := make([]time.Duration, nclients)
	for i := 0; i < nclients; i++ {
		i := i
		cl := c.Transports[nclients+i]
		c.Procs[nclients+i].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
			th.Sleep(time.Duration(i) * 13 * time.Microsecond)
			for {
				start := th.Proc().Sim().Now()
				if _, _, err := cl.Call(th, i, nil, 128); err != nil {
					return
				}
				ops[i]++
				lat[i] += th.Proc().Sim().Now().Sub(start)
			}
		})
	}

	start := time.Now()
	c.RunUntil(sim.Time(window))
	wall := time.Since(start)

	cell := PerfCell{
		Name:       name,
		Procs:      procs,
		Segments:   c.Net.Segments(),
		WindowMS:   msFloat(window),
		Events:     c.EventsRun(),
		SimNS:      int64(c.Sim.Now()),
		Partitions: c.Partitions(),
		WallMS:     msFloat(wall),
	}
	for i := range ops {
		cell.Ops += ops[i]
		cell.Checksum = mixPerf(cell.Checksum, uint64(i))
		cell.Checksum = mixPerf(cell.Checksum, uint64(ops[i]))
		cell.Checksum = mixPerf(cell.Checksum, uint64(lat[i]))
	}
	if wall > 0 {
		cell.EventsPerSec = float64(cell.Events) / wall.Seconds()
	}
	return cell, nil
}

// mixPerf folds one value into a running FNV-1a style checksum.
func mixPerf(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037 // FNV offset basis
	}
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211 // FNV prime
	}
	return h
}

// PrintPerf renders the perf cells as a table.
func PrintPerf(w io.Writer, art *PerfArtifact) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cell\tprocs\tsegs\tparts\tops\tevents\twall\tevents/sec\n")
	for _, c := range art.Cells {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.0fms\t%.2fM\n",
			c.Name, c.Procs, c.Segments, c.Partitions, c.Ops, c.Events,
			c.WallMS, c.EventsPerSec/1e6)
	}
	tw.Flush()
}
