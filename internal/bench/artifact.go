package bench

import (
	"time"

	"amoebasim/internal/workload"
)

// ArtifactSchemaVersion identifies the BENCH_*.json layout. Bump it when
// a field changes meaning; the regression gate refuses to compare
// artifacts across versions. v2 added the kernel-bypass implementation
// column to every table.
const ArtifactSchemaVersion = 2

// Artifact is the machine-readable benchmark baseline (BENCH_*.json), and
// with only its Workload section set, the WORKLOAD_*.json artifact: every
// Table 1-3 cell in simulated time, plus the host's wall-clock
// accounting. The table cells are a pure function of (scale, seed,
// sizes, procs) — the simulation is deterministic — so the regression
// gate compares them with zero drift tolerance. The Wall section is
// host-dependent and never compared.
type Artifact struct {
	SchemaVersion int          `json:"schema_version"`
	GeneratedAt   string       `json:"generated_at,omitempty" gate:"host"` // RFC 3339
	Scale         string       `json:"scale"`
	Seed          uint64       `json:"seed"`
	Table1        []Table1Cell `json:"table1"`
	Table2        []Table2Cell `json:"table2"`
	Table3        []Table3Cell `json:"table3"`
	// Workload is the latency-vs-offered-load section, carrying its own
	// version so it can evolve independently. A BENCH sweep has none.
	Workload *WorkloadArtifact `json:"workload,omitempty"`
	Wall     WallStats         `json:"wall" gate:"host"`
}

// Table1Cell is one latency cell of Table 1.
type Table1Cell struct {
	SizeBytes int    `json:"size_bytes"`
	Column    string `json:"column"` // unicast, multicast, rpc-user, ...
	SimNS     int64  `json:"sim_ns"`
}

// Table2Cell is one throughput cell of Table 2.
type Table2Cell struct {
	Op          string  `json:"op"`   // rpc or group
	Impl        string  `json:"impl"` // user-space or kernel-space
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// Table3Cell is one application execution-time cell of Table 3, with
// the application's deterministic answer.
type Table3Cell struct {
	App    string `json:"app"`
	Impl   string `json:"impl"`
	Procs  int    `json:"procs"`
	SimNS  int64  `json:"sim_ns"`
	Answer int64  `json:"answer"`
}

// WorkloadSchemaVersion identifies the layout of the workload section.
// v2 added the multi-tenant fields: the resolved class spec on the
// section, per-class cells and the fairness index on every point. The
// gate refuses a section of another version.
const WorkloadSchemaVersion = 2

// WorkloadArtifact is the machine-readable form of a workload sweep: the
// shape that was driven, one cell per (implementation, offered load), and
// the bisected saturation point per implementation. Every field except
// the wall accounting is a pure function of the configuration and seed.
type WorkloadArtifact struct {
	Version  int     `json:"version"`
	Loop     string  `json:"loop"`
	Mix      string  `json:"mix"`
	Dist     string  `json:"dist"`
	Clients  int     `json:"clients"`
	Procs    int     `json:"procs"`
	WindowMS float64 `json:"window_ms"`
	Seed     uint64  `json:"seed"`
	// Classes is the canonical resolved multi-tenant population spec
	// (empty for a legacy single-population sweep).
	Classes string `json:"classes,omitempty"`
	// Replayed marks a sweep driven from a recorded trace: every point
	// saw the identical arrival stream.
	Replayed bool               `json:"replayed,omitempty"`
	Points   []WorkloadCell     `json:"points"`
	Knees    []WorkloadKneeCell `json:"knees,omitempty"`
}

// WorkloadCell is one point of a latency-vs-offered-load curve.
type WorkloadCell struct {
	Impl        string  `json:"impl"`
	OfferedOps  float64 `json:"offered_ops_per_sec"`
	AchievedOps float64 `json:"achieved_ops_per_sec"`
	Issued      int64   `json:"issued"`
	Completed   int64   `json:"completed"`
	P50US       int64   `json:"p50_us"`
	P90US       int64   `json:"p90_us"`
	P99US       int64   `json:"p99_us"`
	P999US      int64   `json:"p999_us"`
	MaxUS       int64   `json:"max_us"`
	SeqOccPct   float64 `json:"seq_occ_pct"`
	Saturated   bool    `json:"saturated"`
	// Fairness is Jain's index over per-class achieved/offered ratios.
	Fairness float64 `json:"fairness,omitempty"`
	// PerClass breaks the point down by client class.
	PerClass []WorkloadClassCell `json:"per_class,omitempty"`
}

// WorkloadClassCell is one client class's slice of a curve point.
type WorkloadClassCell struct {
	Name         string  `json:"name"`
	Clients      int     `json:"clients"`
	OfferedOps   float64 `json:"offered_ops_per_sec,omitempty"`
	AchievedOps  float64 `json:"achieved_ops_per_sec"`
	Issued       int64   `json:"issued"`
	Completed    int64   `json:"completed"`
	P50US        int64   `json:"p50_us"`
	P99US        int64   `json:"p99_us"`
	P999US       int64   `json:"p999_us"`
	MaxUS        int64   `json:"max_us"`
	SLOUS        int64   `json:"slo_us,omitempty"`
	SLOMet       int64   `json:"slo_met"`
	SLOAttainPct float64 `json:"slo_attain_pct"`
}

// WorkloadKneeCell is one implementation's bisected saturation point.
type WorkloadKneeCell struct {
	Impl        string  `json:"impl"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	Unsustained float64 `json:"unsustained_ops_per_sec"`
	Probes      int     `json:"probes"`
	// Bracketed distinguishes a real knee from "the doubling phase never
	// found a saturated ceiling" (there OpsPerSec is only a lower bound).
	Bracketed bool `json:"bracketed"`
}

// NewWorkloadArtifact flattens a workload sweep into the artifact section.
func NewWorkloadArtifact(res *WorkloadSweepResult) *WorkloadArtifact {
	wa := &WorkloadArtifact{Version: WorkloadSchemaVersion}
	for _, p := range res.Points {
		r := p.Result
		if r == nil {
			continue
		}
		if len(wa.Points) == 0 {
			cfg := r.Config // fully defaulted by workload.Run
			wa.Loop = cfg.Loop.String()
			wa.Mix = cfg.Mix.String()
			wa.Dist = cfg.Sizes.String()
			wa.Clients = cfg.Clients
			wa.Procs = cfg.Procs
			wa.WindowMS = msFloat(cfg.Window)
			wa.Seed = res.Config.Base.Seed
			if len(cfg.Classes) > 0 {
				wa.Classes = workload.ClassesString(cfg.ResolvedClasses())
			}
			wa.Replayed = res.Config.Replay != nil
		}
		o := r.Overall
		cell := WorkloadCell{
			Impl:        p.ModeLabel,
			OfferedOps:  p.Load,
			AchievedOps: r.Achieved,
			Issued:      r.Issued,
			Completed:   r.Completed,
			P50US:       int64(o.P50 / time.Microsecond),
			P90US:       int64(o.P90 / time.Microsecond),
			P99US:       int64(o.P99 / time.Microsecond),
			P999US:      int64(o.P999 / time.Microsecond),
			MaxUS:       int64(o.Max / time.Microsecond),
			SeqOccPct:   100 * r.SeqOccupancy,
			Saturated:   r.Saturated(),
			Fairness:    r.Fairness,
		}
		for _, cs := range r.PerClass {
			cell.PerClass = append(cell.PerClass, WorkloadClassCell{
				Name:         cs.Name,
				Clients:      cs.Clients,
				OfferedOps:   cs.Offered,
				AchievedOps:  cs.Achieved,
				Issued:       cs.Issued,
				Completed:    cs.Completed,
				P50US:        int64(cs.Latency.P50 / time.Microsecond),
				P99US:        int64(cs.Latency.P99 / time.Microsecond),
				P999US:       int64(cs.Latency.P999 / time.Microsecond),
				MaxUS:        int64(cs.Latency.Max / time.Microsecond),
				SLOUS:        int64(cs.SLO / time.Microsecond),
				SLOMet:       cs.SLOMet,
				SLOAttainPct: 100 * cs.SLOAttainment,
			})
		}
		wa.Points = append(wa.Points, cell)
	}
	for _, k := range res.Knees {
		wa.Knees = append(wa.Knees, WorkloadKneeCell{
			Impl: k.ModeLabel, OpsPerSec: k.OpsPerSec,
			Unsustained: k.Unsustained, Probes: k.Probes,
			Bracketed: k.Bracketed,
		})
	}
	return wa
}

// WallStats is the host-side cost of the sweep: total wall-clock,
// throughput in jobs per second, and the per-job breakdown in
// deterministic job order.
type WallStats struct {
	Workers    int       `json:"workers"`
	TotalMS    float64   `json:"total_ms"`
	JobsPerSec float64   `json:"jobs_per_sec"`
	PerJob     []JobWall `json:"per_job"`
}

// JobWall is one job's host wall-clock cost.
type JobWall struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

// newWallStats accounts a pool run of jobs that took wall on workers
// (<= 0: DefaultWorkers).
func newWallStats(workers int, wall time.Duration, jobs []JobResult) WallStats {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	ws := WallStats{Workers: workers, TotalMS: msFloat(wall)}
	if wall > 0 {
		ws.JobsPerSec = float64(len(jobs)) / wall.Seconds()
	}
	for _, j := range jobs {
		ws.PerJob = append(ws.PerJob, JobWall{Name: j.Name, WallMS: msFloat(j.Wall)})
	}
	return ws
}

func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// NewArtifact flattens a sweep into the baseline layout. GeneratedAt is
// stamped with the current UTC time.
func NewArtifact(res *SweepResult) *Artifact {
	a := &Artifact{
		SchemaVersion: ArtifactSchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Scale:         res.Config.Scale,
		Seed:          res.Config.Seed,
	}
	for _, r := range res.Table1 {
		cell := func(col string, d time.Duration) Table1Cell {
			return Table1Cell{SizeBytes: r.Size, Column: col, SimNS: int64(d)}
		}
		a.Table1 = append(a.Table1,
			cell("unicast", r.Unicast),
			cell("multicast", r.Multicast),
			cell("unicast-bypass", r.UnicastBypass),
			cell("multicast-bypass", r.MulticastBypass),
			cell("rpc-user", r.RPCUser),
			cell("rpc-kernel", r.RPCKernel),
			cell("rpc-bypass", r.RPCBypass),
			cell("group-user", r.GroupUser),
			cell("group-kernel", r.GroupKernel),
			cell("group-bypass", r.GroupBypass),
		)
	}
	a.Table2 = []Table2Cell{
		{Op: "rpc", Impl: "user-space", BytesPerSec: res.Table2.RPCUser},
		{Op: "rpc", Impl: "kernel-space", BytesPerSec: res.Table2.RPCKernel},
		{Op: "rpc", Impl: "bypass", BytesPerSec: res.Table2.RPCBypass},
		{Op: "group", Impl: "user-space", BytesPerSec: res.Table2.GroupUser},
		{Op: "group", Impl: "kernel-space", BytesPerSec: res.Table2.GroupKernel},
		{Op: "group", Impl: "bypass", BytesPerSec: res.Table2.GroupBypass},
	}
	for ei, e := range res.Table3 {
		for _, impl := range table3Impls(res.Config.Apps[ei]) {
			for pi, p := range e.Procs {
				run := e.Runs[impl.label][pi]
				a.Table3 = append(a.Table3, Table3Cell{
					App:    e.App,
					Impl:   impl.label,
					Procs:  p,
					SimNS:  int64(run.Elapsed),
					Answer: run.Answer,
				})
			}
		}
	}
	a.Wall = newWallStats(res.Config.Workers, res.Wall, res.Jobs)
	return a
}
