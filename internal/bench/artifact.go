package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"time"

	"amoebasim/internal/workload"
)

// ArtifactSchemaVersion identifies the BENCH_*.json layout. Bump it when
// a field changes meaning; the regression gate refuses to compare
// artifacts across versions. v2 added the kernel-bypass implementation
// column to every table.
const ArtifactSchemaVersion = 2

// Artifact is the machine-readable benchmark baseline (BENCH_*.json):
// every Table 1-3 cell in simulated time, plus the host's wall-clock
// accounting. The table cells are a pure function of (scale, seed,
// sizes, procs) — the simulation is deterministic — so the regression
// gate compares them with zero drift tolerance. The Wall section is
// host-dependent and informational; it is never diffed, only checked
// against an explicit budget.
type Artifact struct {
	SchemaVersion int          `json:"schema_version"`
	GeneratedAt   string       `json:"generated_at,omitempty"` // RFC 3339, informational
	Scale         string       `json:"scale"`
	Seed          uint64       `json:"seed"`
	Table1        []Table1Cell `json:"table1"`
	Table2        []Table2Cell `json:"table2"`
	Table3        []Table3Cell `json:"table3"`
	// Workload is the latency-vs-offered-load section, carrying its own
	// version so it can evolve independently. It is optional: schema-v1
	// baselines written before the workload engine existed load and
	// round-trip unchanged (the field is omitted when nil), and the
	// regression gate only compares it when the baseline has one.
	Workload *WorkloadArtifact `json:"workload,omitempty"`
	Wall     WallStats         `json:"wall"`
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
// section, per-class cells and the fairness index on every point. v1
// baselines still gate cleanly — the comparison falls back to the legacy
// field subset — while a baseline newer than the build refuses outright.
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
	// Fairness is Jain's index over per-class achieved/offered ratios
	// (v2; 0 in decoded v1 cells).
	Fairness float64 `json:"fairness,omitempty"`
	// PerClass breaks the point down by client class (v2).
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
	workers := res.Config.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	a.Wall = WallStats{
		Workers: workers,
		TotalMS: msFloat(res.Wall),
	}
	if res.Wall > 0 {
		a.Wall.JobsPerSec = float64(len(res.Jobs)) / res.Wall.Seconds()
	}
	for _, j := range res.Jobs {
		a.Wall.PerJob = append(a.Wall.PerJob, JobWall{Name: j.Name, WallMS: msFloat(j.Wall)})
	}
	return a
}

// WriteArtifact emits the artifact as indented JSON.
func WriteArtifact(w io.Writer, a *Artifact) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// LoadArtifact reads a BENCH_*.json baseline from disk.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return &a, nil
}

// CompareArtifacts is the regression gate: every deterministic table
// cell of current must exactly equal its baseline counterpart (zero
// drift tolerance — the simulation is deterministic, so any difference
// is a behavior change, not noise). Wall-clock is host-dependent and is
// only checked against wallBudget (0 disables the check). The returned
// error lists every drifted cell.
func CompareArtifacts(baseline, current *Artifact, wallBudget time.Duration) error {
	var drifts []string
	drift := func(format string, args ...any) {
		drifts = append(drifts, fmt.Sprintf(format, args...))
	}
	if baseline.SchemaVersion != current.SchemaVersion {
		return fmt.Errorf("baseline schema v%d != current v%d: regenerate the baseline",
			baseline.SchemaVersion, current.SchemaVersion)
	}
	if baseline.Scale != current.Scale || baseline.Seed != current.Seed {
		return fmt.Errorf("config mismatch: baseline (scale=%s seed=%d) vs current (scale=%s seed=%d)",
			baseline.Scale, baseline.Seed, current.Scale, current.Seed)
	}

	t1 := make(map[string]int64, len(baseline.Table1))
	for _, c := range baseline.Table1 {
		t1[fmt.Sprintf("%d/%s", c.SizeBytes, c.Column)] = c.SimNS
	}
	if len(baseline.Table1) != len(current.Table1) {
		drift("table1: %d cells, baseline has %d", len(current.Table1), len(baseline.Table1))
	}
	for _, c := range current.Table1 {
		key := fmt.Sprintf("%d/%s", c.SizeBytes, c.Column)
		want, ok := t1[key]
		if !ok {
			drift("table1/%s: cell missing from baseline", key)
		} else if c.SimNS != want {
			drift("table1/%s: sim %dns, baseline %dns", key, c.SimNS, want)
		}
	}

	t2 := make(map[string]float64, len(baseline.Table2))
	for _, c := range baseline.Table2 {
		t2[c.Op+"/"+c.Impl] = c.BytesPerSec
	}
	if len(baseline.Table2) != len(current.Table2) {
		drift("table2: %d cells, baseline has %d", len(current.Table2), len(baseline.Table2))
	}
	for _, c := range current.Table2 {
		key := c.Op + "/" + c.Impl
		want, ok := t2[key]
		if !ok {
			drift("table2/%s: cell missing from baseline", key)
		} else if c.BytesPerSec != want {
			drift("table2/%s: %.3f B/s, baseline %.3f B/s", key, c.BytesPerSec, want)
		}
	}

	t3 := make(map[string]Table3Cell, len(baseline.Table3))
	for _, c := range baseline.Table3 {
		t3[fmt.Sprintf("%s/%s/p=%d", c.App, c.Impl, c.Procs)] = c
	}
	if len(baseline.Table3) != len(current.Table3) {
		drift("table3: %d cells, baseline has %d", len(current.Table3), len(baseline.Table3))
	}
	for _, c := range current.Table3 {
		key := fmt.Sprintf("%s/%s/p=%d", c.App, c.Impl, c.Procs)
		want, ok := t3[key]
		if !ok {
			drift("table3/%s: cell missing from baseline", key)
			continue
		}
		if c.SimNS != want.SimNS {
			drift("table3/%s: sim %dns, baseline %dns", key, c.SimNS, want.SimNS)
		}
		if c.Answer != want.Answer {
			drift("table3/%s: answer %d, baseline %d", key, c.Answer, want.Answer)
		}
	}

	// The workload section is optional: baselines written before the
	// workload engine existed simply have none, and stay comparable.
	if baseline.Workload != nil {
		switch {
		case current.Workload == nil:
			drift("workload: baseline has a workload section, current run has none")
		case baseline.Workload.Version == current.Workload.Version:
			compareWorkload(baseline.Workload, current.Workload, false, drift)
		case baseline.Workload.Version == 1 && current.Workload.Version == WorkloadSchemaVersion:
			// v1 baselines predate the multi-tenant fields; gate the
			// legacy field subset so old baselines keep loading and
			// comparing.
			compareWorkload(baseline.Workload, current.Workload, true, drift)
		default:
			return fmt.Errorf("workload section v%d != current v%d: regenerate the baseline",
				baseline.Workload.Version, current.Workload.Version)
		}
	}

	if wallBudget > 0 && current.Wall.TotalMS > msFloat(wallBudget) {
		drift("wall-clock: sweep took %.0fms, budget %v", current.Wall.TotalMS, wallBudget)
	}
	if len(drifts) > 0 {
		return fmt.Errorf("baseline drift (%d):\n  %s", len(drifts), strings.Join(drifts, "\n  "))
	}
	return nil
}

// compareWorkload diffs two workload sections cell by cell with zero
// drift tolerance. legacy restricts the comparison to the v1 field
// subset, so a v1 baseline still gates a v2 run.
func compareWorkload(baseline, current *WorkloadArtifact, legacy bool, drift func(string, ...any)) {
	if baseline.Loop != current.Loop || baseline.Mix != current.Mix ||
		baseline.Dist != current.Dist || baseline.Clients != current.Clients ||
		baseline.Procs != current.Procs || baseline.Seed != current.Seed {
		drift("workload: shape mismatch: baseline (%s %s %s c=%d p=%d seed=%d) vs current (%s %s %s c=%d p=%d seed=%d)",
			baseline.Loop, baseline.Mix, baseline.Dist, baseline.Clients, baseline.Procs, baseline.Seed,
			current.Loop, current.Mix, current.Dist, current.Clients, current.Procs, current.Seed)
		return
	}
	if !legacy && (baseline.Classes != current.Classes || baseline.Replayed != current.Replayed) {
		drift("workload: population mismatch: baseline (classes=%q replayed=%t) vs current (classes=%q replayed=%t)",
			baseline.Classes, baseline.Replayed, current.Classes, current.Replayed)
		return
	}
	pts := make(map[string]WorkloadCell, len(baseline.Points))
	for _, c := range baseline.Points {
		pts[fmt.Sprintf("%s/load=%g", c.Impl, c.OfferedOps)] = c
	}
	if len(baseline.Points) != len(current.Points) {
		drift("workload: %d points, baseline has %d", len(current.Points), len(baseline.Points))
	}
	for _, c := range current.Points {
		key := fmt.Sprintf("%s/load=%g", c.Impl, c.OfferedOps)
		want, ok := pts[key]
		if !ok {
			drift("workload/%s: point missing from baseline", key)
			continue
		}
		if legacy {
			// A v1 baseline has no per-class data: blank the v2-only
			// fields on both sides before the exact compare.
			c.Fairness, c.PerClass = 0, nil
			want.Fairness, want.PerClass = 0, nil
		}
		if !reflect.DeepEqual(c, want) {
			drift("workload/%s: %+v, baseline %+v", key, c, want)
		}
	}
	knees := make(map[string]WorkloadKneeCell, len(baseline.Knees))
	for _, k := range baseline.Knees {
		knees[k.Impl] = k
	}
	if len(baseline.Knees) != len(current.Knees) {
		drift("workload: %d knees, baseline has %d", len(current.Knees), len(baseline.Knees))
	}
	for _, k := range current.Knees {
		if want, ok := knees[k.Impl]; !ok {
			drift("workload/knee/%s: missing from baseline", k.Impl)
		} else if k != want {
			drift("workload/knee/%s: %+v, baseline %+v", k.Impl, k, want)
		}
	}
}
