package bench

import (
	"reflect"
	"testing"
	"time"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/workload"
)

// quickScalability is a test-scale sweep: one small pool, two sequencer
// strategies, a coarse knee bracket.
func quickScalability(workers int) ScalabilitySweepConfig {
	return ScalabilitySweepConfig{
		Base: workload.Config{
			Seed:   3,
			Window: 50 * time.Millisecond,
		},
		Sizes: []int{8},
		Strategies: []ScalabilityStrategy{
			{"single", 1, false, panda.UserSpace},
			{"sharded", 2, false, panda.UserSpace},
		},
		KneeLo:     400,
		KneeHi:     3200,
		KneeProbes: 2,
		Workers:    workers,
	}
}

// TestScalabilitySweepBitIdenticalAcrossWorkers: every cell owns its
// cluster and derives its seed from the cell coordinates, so the sweep is
// bit-identical at any worker-pool width.
func TestScalabilitySweepBitIdenticalAcrossWorkers(t *testing.T) {
	serial, err := ScalabilitySweep(quickScalability(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ScalabilitySweep(quickScalability(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Points, wide.Points) {
		t.Fatalf("sweep differs across worker widths:\n1: %+v\n4: %+v", serial.Points, wide.Points)
	}
	for _, p := range serial.Points {
		if p.Knee.Probes == 0 {
			t.Fatalf("cell %s/p=%d ran no probes", p.Strategy, p.Procs)
		}
		if p.Segments < 1 {
			t.Fatalf("cell %s/p=%d resolved %d segments", p.Strategy, p.Procs, p.Segments)
		}
	}
}

// TestScalabilityCompareDetectsDrift: the gate's contract on the SCALE
// artifact.
func TestScalabilityCompareDetectsDrift(t *testing.T) {
	checkGate(t, &ScalabilityArtifact{
		SchemaVersion: ScalabilitySchemaVersion,
		Seed:          5, Mix: "group", Dist: "fixed:256",
		WindowMS: 200, SwitchFanIn: 8,
		Cells: []ScalabilityCell{
			{Strategy: "single", Procs: 16, Shards: 1, Segments: 2, KneeOps: 1000, Unsustained: 1100, Probes: 7, Bracketed: true},
			{Strategy: "sharded", Procs: 16, Shards: 8, Segments: 2, KneeOps: 1500, Unsustained: 1600, Probes: 7, Bracketed: true},
		},
	}, gateEdits[ScalabilityArtifact]{
		drift: func(a *ScalabilityArtifact) string { a.Cells[1].KneeOps = 1450; return "cells[1].knee_ops_per_sec" },
		host: func(a *ScalabilityArtifact) {
			a.GeneratedAt = "2026-01-01T00:00:00Z"
			a.Wall = WallStats{Workers: 4, TotalMS: 99}
		},
		bump: func(a *ScalabilityArtifact) { a.SchemaVersion++ },
		drop: func(a *ScalabilityArtifact) { a.Cells = a.Cells[:1] },
	})
}

// TestCommittedScalabilityBaselineShardedScaling is the PR's acceptance
// invariant, read from the committed baseline: at the largest cluster
// size, sharding the sequencer moves the knee past the single sequencer's,
// and every cell of the curve is a genuine bracketed knee. The baseline is
// regenerated with
// `go run ./cmd/amoebasim -scalability -scalability-json SCALE_baseline.json`.
func TestCommittedScalabilityBaselineShardedScaling(t *testing.T) {
	a := new(ScalabilityArtifact)
	loadBaseline(t, "SCALE_baseline.json", a)
	if a.SchemaVersion != ScalabilitySchemaVersion {
		t.Fatalf("baseline schema v%d, want v%d", a.SchemaVersion, ScalabilitySchemaVersion)
	}
	knee := make(map[string]map[int]ScalabilityCell)
	maxProcs := 0
	for _, c := range a.Cells {
		if knee[c.Strategy] == nil {
			knee[c.Strategy] = make(map[int]ScalabilityCell)
		}
		knee[c.Strategy][c.Procs] = c
		if c.Procs > maxProcs {
			maxProcs = c.Procs
		}
		if !c.Bracketed {
			t.Errorf("cell %s/p=%d is not a bracketed knee: %+v", c.Strategy, c.Procs, c)
		}
		if c.KneeOps <= 0 {
			t.Errorf("cell %s/p=%d saturated at the floor: %+v", c.Strategy, c.Procs, c)
		}
	}
	if maxProcs < 256 {
		t.Fatalf("baseline's largest cluster is %d processors, want >= 256", maxProcs)
	}
	single, ok := knee["single"][maxProcs]
	if !ok {
		t.Fatalf("baseline lacks single/p=%d", maxProcs)
	}
	for _, strategy := range []string{"sharded", "sharded-dedicated", "bypass-sharded-dedicated"} {
		c, ok := knee[strategy][maxProcs]
		if !ok {
			t.Fatalf("baseline lacks %s/p=%d", strategy, maxProcs)
		}
		if c.KneeOps <= single.KneeOps {
			t.Errorf("%s knee %.0f does not exceed the single-sequencer knee %.0f at %d processors",
				strategy, c.KneeOps, single.KneeOps, maxProcs)
		}
	}
	// The bypass column's scalability claim: dedicated + sharded bypass
	// sequencers beat the best user-space strategy at the largest cluster.
	bypDed, ok := knee["bypass-sharded-dedicated"][maxProcs]
	if !ok {
		t.Fatalf("baseline lacks bypass-sharded-dedicated/p=%d", maxProcs)
	}
	userDed := knee["sharded-dedicated"][maxProcs]
	if bypDed.KneeOps <= userDed.KneeOps {
		t.Errorf("bypass-sharded-dedicated knee %.0f does not exceed sharded-dedicated %.0f at %d processors",
			bypDed.KneeOps, userDed.KneeOps, maxProcs)
	}
}

// TestHugeShardedClusterDeterministic: a 1024-processor, 128-segment,
// 8-shard pool completes and produces identical results on repeated runs
// and at any job-pool width.
func TestHugeShardedClusterDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-processor pool")
	}
	cfg := workload.Config{
		Procs: 1024, Mode: panda.UserSpace, SeqShards: 8,
		Window: 40 * time.Millisecond, OfferedLoad: 400, Seed: 11,
		Topology: &cluster.Topology{Segments: 128, SwitchFanIn: 8},
	}
	run := func() *workload.Result {
		r, err := workload.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	results := make([]*workload.Result, 2)
	for width := 1; width <= 2; width++ {
		width := width
		jobs := []Job{
			{Name: "huge", Run: func() error { results[0] = run(); return nil }},
			{Name: "huge-again", Run: func() error { results[1] = run(); return nil }},
		}
		if err := PoolErrors(RunPool(jobs, width)); err != nil {
			t.Fatal(err)
		}
		if results[0].Completed == 0 {
			t.Fatalf("width %d: no operations completed", width)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Fatalf("width %d: repeated 1024-processor runs differ", width)
		}
	}
}
