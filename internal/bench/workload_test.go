package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"amoebasim/internal/panda"
	"amoebasim/internal/workload"
)

// quickWorkloadSweep is the reduced sweep the tests run: two loads that
// straddle the user-space knee, all three modes, and a short-window
// shallow knee search so two full sweeps stay cheap.
func quickWorkloadSweep(workers int) WorkloadSweepConfig {
	return WorkloadSweepConfig{
		Base: workload.Config{
			Procs:  4,
			Window: 200_000_000, // 200ms
			Seed:   7,
		},
		Loads:      []float64{400, 1400},
		Knee:       true,
		KneeLo:     300,
		KneeHi:     1600,
		KneeProbes: 4,
		Workers:    workers,
	}
}

// TestWorkloadSweepBitIdenticalAcrossWorkers extends the pool's core
// contract to the workload engine: -jobs 1 and -jobs N produce
// byte-identical curves and knees for the same seed, because every point
// and probe owns its whole cluster and derives its seed deterministically.
func TestWorkloadSweepBitIdenticalAcrossWorkers(t *testing.T) {
	seq, err := WorkloadSweep(quickWorkloadSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := WorkloadSweep(quickWorkloadSweep(4))
	if err != nil {
		t.Fatal(err)
	}
	render := func(res *WorkloadSweepResult) string {
		var sb strings.Builder
		PrintWorkload(&sb, res)
		return sb.String()
	}
	if a, b := render(seq), render(par); a != b {
		t.Errorf("parallel workload sweep output differs from sequential:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", a, b)
	}
	aj, err := json.Marshal(NewWorkloadArtifact(seq))
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(NewWorkloadArtifact(par))
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Errorf("workload artifacts differ across worker counts:\n%s\nvs\n%s", aj, bj)
	}
}

// multiClassSweep is a 3-class population (SLO'd interactive RPC,
// heavy-tailed batch, bursty crawler) over two modes, recording its trace.
func multiClassSweep(workers int) WorkloadSweepConfig {
	return WorkloadSweepConfig{
		Base: workload.Config{
			Procs:  4,
			Window: 100_000_000, // 100ms
			Seed:   11,
			Classes: []workload.Class{
				{Name: "interactive", Clients: 6, OfferedLoad: 500, Mix: workload.MixRPC,
					SLO: 4_000_000}, // 4ms
				{Name: "batch", Clients: 4, OfferedLoad: 300, Mix: workload.MixGroup,
					Arrival: workload.ArrivalSpec{Kind: workload.WeibullArrival, Shape: 0.55}},
				{Name: "bursty", Clients: 4, OfferedLoad: 200, Mix: workload.MixMixed,
					Arrival: workload.ArrivalSpec{Kind: workload.GammaArrival, Shape: 0.5},
					Shape:   workload.LoadShape{Kind: workload.BurstyShape}},
			},
		},
		Loads:   []float64{0}, // absolute class loads; no grid
		Modes:   WorkloadModes()[:2],
		Workers: workers,
		Record:  true,
	}
}

// A multi-class recording sweep — and a replay of its trace — must both be
// bit-identical at any worker count, including the recorded trace itself.
func TestMultiClassSweepAndReplayBitIdenticalAcrossWorkers(t *testing.T) {
	seq, err := WorkloadSweep(multiClassSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := WorkloadSweep(multiClassSweep(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Trace == nil || par.Trace == nil {
		t.Fatal("recording sweep produced no trace")
	}
	if err := workload.SameArrivals(seq.Trace, par.Trace); err != nil {
		t.Fatalf("recorded trace differs across worker counts: %v", err)
	}
	aj, err := json.Marshal(NewWorkloadArtifact(seq))
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(NewWorkloadArtifact(par))
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("multi-class artifacts differ across worker counts:\n%s\nvs\n%s", aj, bj)
	}

	// Replay the recorded trace at both widths; identical again.
	replaySweep := func(workers int) *WorkloadSweepResult {
		cfg := WorkloadSweepConfig{
			Base:    workload.Config{Procs: 4},
			Modes:   WorkloadModes()[:2],
			Workers: workers,
			Replay:  seq.Trace,
			Record:  true,
		}
		res, err := WorkloadSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := replaySweep(1), replaySweep(4)
	if err := workload.SameArrivals(seq.Trace, r1.Trace); err != nil {
		t.Fatalf("replay re-record changed arrivals: %v", err)
	}
	a1, err := json.Marshal(NewWorkloadArtifact(r1))
	if err != nil {
		t.Fatal(err)
	}
	a4, err := json.Marshal(NewWorkloadArtifact(r4))
	if err != nil {
		t.Fatal(err)
	}
	if string(a1) != string(a4) {
		t.Fatalf("replay artifacts differ across worker counts:\n%s\nvs\n%s", a1, a4)
	}

	// The artifact carries the multi-tenant sections.
	art := NewWorkloadArtifact(seq)
	if art.Classes == "" {
		t.Fatal("artifact missing the classes header")
	}
	for _, cell := range art.Points {
		if len(cell.PerClass) != 3 {
			t.Fatalf("cell %s has %d per-class rows", cell.Impl, len(cell.PerClass))
		}
		if cell.Fairness <= 0 || cell.Fairness > 1 {
			t.Fatalf("cell %s fairness = %g outside (0, 1]", cell.Impl, cell.Fairness)
		}
		for _, pc := range cell.PerClass {
			if pc.Name == "interactive" && pc.SLOUS == 0 {
				t.Fatal("interactive class lost its SLO in the artifact")
			}
		}
	}
	if rart := NewWorkloadArtifact(r1); !rart.Replayed {
		t.Fatal("replay artifact not marked replayed")
	}
}

// TestWorkloadSweepShape asserts the sweep covers mode x load, the knees
// carry the mode labels, and the flattened artifact is complete.
func TestWorkloadSweepShape(t *testing.T) {
	cfg := quickWorkloadSweep(4)
	res, err := WorkloadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(WorkloadModes()) * len(cfg.Loads); len(res.Points) != want {
		t.Fatalf("points = %d, want %d", len(res.Points), want)
	}
	for i, p := range res.Points {
		if p.Result == nil {
			t.Fatalf("point %d has no result", i)
		}
		if p.Result.ModeLabel != p.ModeLabel {
			t.Errorf("point %d: result label %q != point label %q", i, p.Result.ModeLabel, p.ModeLabel)
		}
	}
	if len(res.Knees) != len(WorkloadModes()) {
		t.Fatalf("knees = %d, want %d", len(res.Knees), len(WorkloadModes()))
	}
	for i, k := range res.Knees {
		if k.ModeLabel != WorkloadModes()[i].Label {
			t.Errorf("knee %d labeled %q, want %q", i, k.ModeLabel, WorkloadModes()[i].Label)
		}
		if k.Probes == 0 {
			t.Errorf("knee %q spent no probes", k.ModeLabel)
		}
	}

	wa := NewWorkloadArtifact(res)
	if wa.Version != WorkloadSchemaVersion {
		t.Errorf("workload artifact version %d, want %d", wa.Version, WorkloadSchemaVersion)
	}
	if len(wa.Points) != len(res.Points) || len(wa.Knees) != len(res.Knees) {
		t.Errorf("artifact has %d points / %d knees, want %d / %d",
			len(wa.Points), len(wa.Knees), len(res.Points), len(res.Knees))
	}
	if wa.Seed != cfg.Base.Seed {
		t.Errorf("artifact seed %d, want base seed %d", wa.Seed, cfg.Base.Seed)
	}
	if wa.Loop == "" || wa.Mix == "" || wa.Dist == "" || wa.Clients == 0 || wa.Procs == 0 {
		t.Errorf("artifact shape fields not filled from defaulted config: %+v", wa)
	}
}

// TestBypassKneeOrdering is the tentpole's throughput claim, measured:
// with a co-located sequencer the kernel-bypass group knee lands between
// the user-space knee (the sequencer pays crossings and copies) and the
// kernel-space knee (sequencing at interrupt priority dodges the
// time-shared consumer dispatch bypass pays); giving the bypass sequencer
// its own machine removes that dispatch contention and pushes the knee
// past both.
func TestBypassKneeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("four full knee searches")
	}
	base := workload.Config{Seed: 5} // defaults: 4 procs, group mix, fixed:256, 400ms
	knee := func(m WorkloadMode) float64 {
		c := base
		c.Mode = m.Mode
		c.DedicatedSequencer = m.Dedicated
		k, err := workload.FindKnee(c, 400, 3200, 8)
		if err != nil {
			t.Fatalf("%s knee search: %v", m.Label, err)
		}
		if !k.Bracketed {
			t.Fatalf("%s never saturated below 3200 ops/sec", m.Label)
		}
		t.Logf("%-22s knee %6.0f ops/sec", m.Label, k.OpsPerSec)
		return k.OpsPerSec
	}
	user := knee(WorkloadMode{"user-space", panda.UserSpace, false})
	kern := knee(WorkloadMode{"kernel-space", panda.KernelSpace, false})
	byp := knee(WorkloadMode{"bypass", panda.Bypass, false})
	bypDed := knee(WorkloadMode{"bypass-dedicated", panda.Bypass, true})
	if !(user < byp && byp < kern) {
		t.Errorf("co-located bypass knee %.0f not between user-space %.0f and kernel-space %.0f",
			byp, user, kern)
	}
	if bypDed <= kern || bypDed <= user {
		t.Errorf("dedicated bypass knee %.0f does not exceed both kernel-space %.0f and user-space %.0f",
			bypDed, kern, user)
	}
}

// TestCompareWorkloadDetectsDrift: the gate's contract on the WORKLOAD
// artifact, whose workload section carries its own version; a nil
// per-class list gates equal to an empty one.
func TestCompareWorkloadDetectsDrift(t *testing.T) {
	base := &Artifact{
		SchemaVersion: ArtifactSchemaVersion,
		Scale:         "workload",
		Seed:          5,
		Workload: &WorkloadArtifact{
			Version: WorkloadSchemaVersion,
			Loop:    "open", Mix: "group", Dist: "fixed:256",
			Clients: 8, Procs: 4, WindowMS: 400, Seed: 7,
			Points: []WorkloadCell{
				{Impl: "kernel-space", OfferedOps: 400, AchievedOps: 398, Issued: 80, Completed: 80, P50US: 900, P99US: 2100},
				{Impl: "user-space", OfferedOps: 400, AchievedOps: 395, Issued: 80, Completed: 79, P50US: 1400, P99US: 3300},
			},
			Knees: []WorkloadKneeCell{
				{Impl: "kernel-space", OpsPerSec: 1650, Unsustained: 1700, Probes: 8},
				{Impl: "user-space", OpsPerSec: 1112, Unsustained: 1150, Probes: 8},
			},
		},
	}
	checkGate(t, base, gateEdits[Artifact]{
		drift: func(a *Artifact) string { a.Workload.Points[1].P99US = 3400; return "workload.points[1].p99_us" },
		host: func(a *Artifact) {
			a.GeneratedAt = "2026-01-01T00:00:00Z"
			a.Wall.TotalMS = 10
		},
		bump: func(a *Artifact) { a.Workload.Version++ },
		drop: func(a *Artifact) { a.Workload.Knees = a.Workload.Knees[1:] },
	})

	empty := roundTrip(t, base)
	empty.Workload.Points[0].PerClass = []WorkloadClassCell{}
	if err := Compare(base, empty); err != nil {
		t.Errorf("an empty per-class list drifted from a nil one: %v", err)
	}
	dropped := roundTrip(t, base)
	dropped.Workload = nil
	if err := Compare(base, dropped); err == nil || !strings.Contains(err.Error(), "workload: missing from the run") {
		t.Errorf("a dropped workload section not reported: %v", err)
	}
}
