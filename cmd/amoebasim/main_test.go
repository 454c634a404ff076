package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"amoebasim/internal/bench"
	"amoebasim/internal/causal"
	"amoebasim/internal/panda"
	"amoebasim/internal/workload"
)

// TestParseProcsRejectsMalformedValues: -procs must be whole positive
// integers; fmt.Sscanf used to accept trailing junk ("8x" ran with 8).
func TestParseProcsRejectsMalformedValues(t *testing.T) {
	good, err := parseProcs(" 1, 8 ,16,32")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(good, []int{1, 8, 16, 32}) {
		t.Errorf("parseProcs = %v", good)
	}
	if procs, err := parseProcs(""); err != nil || procs != nil {
		t.Errorf("empty flag should mean defaults, got %v, %v", procs, err)
	}
	for _, bad := range []string{"8x", "1,8x", "0", "-4", "1,,8", "eight"} {
		if _, err := parseProcs(bad); err == nil {
			t.Errorf("parseProcs(%q) accepted a malformed value", bad)
		}
	}
}

// TestResolveAppsQuickScale: the quick-scale swap must be exact — an app
// without a quick variant is an error, never a silent paper-scale run.
func TestResolveAppsQuickScale(t *testing.T) {
	appList, err := resolveApps("sor, leq", "quick")
	if err != nil {
		t.Fatal(err)
	}
	if len(appList) != 2 || appList[0].Name() != "sor" || appList[1].Name() != "leq" {
		t.Fatalf("resolveApps = %v", appList)
	}
	full, err := resolveApps("", "quick")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 6 {
		t.Errorf("empty -apps should mean the full quick list, got %d apps", len(full))
	}
	if _, err := resolveApps("nosuch", "quick"); err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Errorf("unknown app not rejected: %v", err)
	}
	if _, err := resolveApps("nosuch", "paper"); err == nil {
		t.Error("unknown app not rejected at paper scale")
	}
}

// TestWorkloadSweepConfigAssembly: the -workload flag family parses into
// the sweep configuration; malformed values are rejected before any
// cluster is built.
func TestWorkloadSweepConfigAssembly(t *testing.T) {
	cfg, err := workloadSweepConfig(workloadArgs{
		loop: "open", loads: "400, 1300", clients: 6, mix: "mixed",
		dist: "uniform:64-1024", arrival: "fixed", procs: 8,
		window: 250 * time.Millisecond, knee: true, seed: 9, jobs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Base.Loop != workload.OpenLoop || cfg.Base.Clients != 6 ||
		cfg.Base.Procs != 8 || cfg.Base.Seed != 9 ||
		cfg.Base.Arrival != workload.FixedArrival ||
		cfg.Base.Mix != workload.MixMixed ||
		cfg.Base.Sizes != (workload.SizeDist{Kind: "uniform", Lo: 64, Hi: 1024}) {
		t.Errorf("base config not assembled from flags: %+v", cfg.Base)
	}
	if !reflect.DeepEqual(cfg.Loads, []float64{400, 1300}) {
		t.Errorf("loads = %v", cfg.Loads)
	}
	if !cfg.Knee || cfg.Workers != 2 {
		t.Errorf("knee/workers not carried: %+v", cfg)
	}

	// -workload-json alone implies the open-loop curve sweep.
	open, err := workloadSweepConfig(workloadArgs{mix: "group", dist: "fixed:256", knee: true})
	if err != nil {
		t.Fatal(err)
	}
	if open.Base.Loop != workload.OpenLoop || !open.Knee {
		t.Errorf("empty -workload should default to the open-loop sweep: %+v", open)
	}

	// Closed loop collapses the default grid to one point per mode and
	// never runs a knee search.
	closed, err := workloadSweepConfig(workloadArgs{loop: "closed", mix: "group", dist: "fixed:256", knee: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(closed.Loads, []float64{0}) || closed.Knee {
		t.Errorf("closed loop should run one point per mode, no knee: loads=%v knee=%v",
			closed.Loads, closed.Knee)
	}

	for _, bad := range []workloadArgs{
		{loop: "spiral", mix: "group", dist: "fixed:256"},
		{loop: "open", mix: "group,nope=1", dist: "fixed:256"},
		{loop: "open", mix: "group", dist: "fixed:-1"},
		{loop: "open", mix: "group", dist: "fixed:256", arrival: "bursty"},
		{loop: "open", mix: "group", dist: "fixed:256", loads: "400,zero"},
		{loop: "open", mix: "group", dist: "fixed:256", loads: "-5"},
	} {
		if _, err := workloadSweepConfig(bad); err == nil {
			t.Errorf("workloadSweepConfig(%+v) accepted a malformed value", bad)
		}
	}
}

// TestWorkloadSweepConfigMixRejections: the -mix flag family must reject
// malformed mixes with the named sentinel and the offending token intact
// through the CLI assembly path.
func TestWorkloadSweepConfigMixRejections(t *testing.T) {
	cases := []struct {
		name, mix string
		token     string
	}{
		{"empty element", ",", "stray comma"},
		{"trailing comma", "rpc=1,", "stray comma"},
		{"negative weight", "rpc=1,group=-2", "group=-2"},
		{"all-zero mix", "rpc=0,group=0", "rpc=0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := workloadSweepConfig(workloadArgs{loop: "open", mix: c.mix, dist: "fixed:256"})
			if err == nil {
				t.Fatalf("-mix %q accepted", c.mix)
			}
			if !errors.Is(err, workload.ErrInvalidMix) {
				t.Errorf("-mix %q error %q does not wrap ErrInvalidMix", c.mix, err)
			}
			if !strings.Contains(err.Error(), c.token) {
				t.Errorf("-mix %q error %q does not name %q", c.mix, err, c.token)
			}
		})
	}
}

// TestWorkloadSweepConfigMultiTenant: -classes / -shape / -record-trace /
// -replay-trace assemble into the sweep configuration.
func TestWorkloadSweepConfigMultiTenant(t *testing.T) {
	spec := "fe:clients=6,load=500,mix=rpc,dist=fixed:128,slo=4ms;" +
		"batch:clients=4,load=300,mix=group,arrival=weibull:0.55;" +
		"crawl:clients=4,load=200,mix=mixed,arrival=gamma:0.5,shape=bursty"
	cfg, err := workloadSweepConfig(workloadArgs{
		mix: "group", dist: "fixed:256",
		classes: spec, shape: "diurnal", recordTrace: "TRACE_x.json",
		knee: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Base.Classes) != 3 || cfg.Base.Classes[0].SLO != 4*time.Millisecond {
		t.Fatalf("classes not assembled: %+v", cfg.Base.Classes)
	}
	if cfg.Base.Shape.Kind != workload.DiurnalShape {
		t.Fatalf("shape not assembled: %+v", cfg.Base.Shape)
	}
	if !cfg.Record {
		t.Fatal("-record-trace did not enable recording")
	}
	// Absolute class loads with no -load grid: one population point per
	// mode, knee disabled (bisection would rescale the absolute loads).
	if !reflect.DeepEqual(cfg.Loads, []float64{0}) || cfg.Knee {
		t.Fatalf("absolute class loads should pin one point per mode, no knee: loads=%v knee=%v",
			cfg.Loads, cfg.Knee)
	}

	// An explicit -load grid keeps the grid (class loads become shares).
	grid, err := workloadSweepConfig(workloadArgs{
		mix: "group", dist: "fixed:256", classes: spec, loads: "400,1400", knee: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grid.Loads, []float64{400, 1400}) || !grid.Knee {
		t.Fatalf("explicit grid lost: loads=%v knee=%v", grid.Loads, grid.Knee)
	}

	// Heavy-tailed arrivals via the legacy single-population flag.
	hv, err := workloadSweepConfig(workloadArgs{
		mix: "group", dist: "fixed:256", arrival: "weibull:0.55",
	})
	if err != nil {
		t.Fatal(err)
	}
	if hv.Base.Arrival != workload.WeibullArrival || hv.Base.ArrivalShape != 0.55 {
		t.Fatalf("-arrival weibull:0.55 not assembled: %+v", hv.Base)
	}

	// Replay: record a tiny trace, then load it through the flag path.
	rec, err := workload.Run(workload.Config{
		Mode: panda.UserSpace, Window: 50 * time.Millisecond, Seed: 3,
		OfferedLoad: 400, Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/TRACE_t.json"
	if err := workload.SaveTrace(path, rec.Trace); err != nil {
		t.Fatal(err)
	}
	rp, err := workloadSweepConfig(workloadArgs{
		mix: "group", dist: "fixed:256", replayTrace: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Replay == nil || rp.ReplaySource == nil {
		t.Fatal("-replay-trace did not open the trace stream")
	}
	// The flag path streams: the header carries no materialized events;
	// the factory yields exactly the recorded stream.
	if len(rp.Replay.Events) != 0 {
		t.Fatalf("streamed replay materialized %d events in the header", len(rp.Replay.Events))
	}
	if rp.Replay.Seed != rec.Trace.Seed || rp.Replay.Procs != rec.Trace.Procs {
		t.Fatalf("trace header mismatch: %+v", rp.Replay)
	}
	src, err := rp.ReplaySource()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		e, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e != rec.Trace.Events[n] {
			t.Fatalf("streamed event %d = %+v, want %+v", n, e, rec.Trace.Events[n])
		}
		n++
	}
	if n != len(rec.Trace.Events) {
		t.Fatalf("streamed %d events, recorded %d", n, len(rec.Trace.Events))
	}

	for _, bad := range []workloadArgs{
		{mix: "group", dist: "fixed:256", classes: "fe:clients=0"},
		{mix: "group", dist: "fixed:256", classes: "fe:mix=rpc=0"},
		{mix: "group", dist: "fixed:256", shape: "bursty:1s:2"},
		{mix: "group", dist: "fixed:256", replayTrace: "/nonexistent/TRACE.json"},
		{mix: "group", dist: "fixed:256", arrival: "gamma:-1"},
	} {
		if _, err := workloadSweepConfig(bad); err == nil {
			t.Errorf("workloadSweepConfig(%+v) accepted a malformed value", bad)
		}
	}
}

// sampleArtifacts returns one small artifact of each kind, each stamped
// with the host field stamp and seed 5.
func sampleArtifacts(stamp string) []artifact {
	return []artifact{
		{"BENCH", &bench.Artifact{SchemaVersion: bench.ArtifactSchemaVersion, GeneratedAt: stamp,
			Scale: "quick", Seed: 5,
			Table3: []bench.Table3Cell{{App: "sor", Impl: "user-space", Procs: 4, SimNS: 200, Answer: 7}}}},
		{"WORKLOAD", &bench.Artifact{SchemaVersion: bench.ArtifactSchemaVersion, GeneratedAt: stamp,
			Scale: "workload", Seed: 5,
			Workload: &bench.WorkloadArtifact{Version: bench.WorkloadSchemaVersion, Loop: "open",
				Points: []bench.WorkloadCell{{Impl: "user-space", OfferedOps: 400, Completed: 80}}}}},
		{"DECOMP", &causal.Artifact{SchemaVersion: causal.SchemaVersion, GeneratedAt: stamp,
			Seed: 5, Rounds: 50, Procs: 2,
			Cells: []causal.Cell{{Impl: "kernel-space", Op: "rpc", Ops: 50, TotalNS: 1000,
				Phases: causal.PhasesNS{WireNS: 1000}}}}},
		{"SCALE", &bench.ScalabilityArtifact{SchemaVersion: bench.ScalabilitySchemaVersion, GeneratedAt: stamp,
			Seed: 5, Mix: "group",
			Cells: []bench.ScalabilityCell{{Strategy: "single", Procs: 16, KneeOps: 1000}}}},
		{"PERF", &bench.PerfArtifact{SchemaVersion: bench.PerfSchemaVersion, GeneratedAt: stamp,
			Seed: 5, Par: 1,
			Cells: []bench.PerfCell{{Name: "perf/32proc", Procs: 32, Ops: 100, Checksum: 14926440533338159846}}}},
	}
}

// TestFinishGatesEveryKind: main writes and gates each artifact kind in
// one place. A run gates clean against its own output file, whatever the
// host fields say; a drifted field fails and is named with the file; a
// run that builds no artifact of the baseline's kind, though its mode
// names that kind, fails and names the file; a run over the wall budget
// fails.
func TestFinishGatesEveryKind(t *testing.T) {
	const stamp = "2026-01-01T00:00:00Z"
	for _, a := range sampleArtifacts(stamp) {
		t.Run(a.kind, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, a.kind+".json")
			kinds := []string{a.kind}
			built := func() ([]artifact, error) { return []artifact{a}, nil }
			if err := finish(kinds, built, map[string]string{a.kind: out}, "", 0); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			edited := func(old, new string) string {
				if !strings.Contains(string(b), old) {
					t.Fatalf("%s lacks %s", out, old)
				}
				path := filepath.Join(dir, "edited.json")
				if err := os.WriteFile(path, []byte(strings.Replace(string(b), old, new, 1)), 0o666); err != nil {
					t.Fatal(err)
				}
				return path
			}

			if err := finish(kinds, built, nil, edited(stamp, "2027-07-07T00:00:00Z"), 0); err != nil {
				t.Errorf("a host field gated: %v", err)
			}
			drifted := edited(`"seed": 5`, `"seed": 6`)
			err = finish(kinds, built, nil, drifted, 0)
			if err == nil || !strings.Contains(err.Error(), drifted) || !strings.Contains(err.Error(), "seed: 5, baseline 6") {
				t.Errorf("drifted seed not reported with the file: %v", err)
			}
			var other any = &bench.PerfArtifact{}
			if a.kind == "PERF" {
				other = &causal.Artifact{}
			}
			for _, arts := range [][]artifact{nil, {{"OTHER", other}}} {
				elsewhere := func() ([]artifact, error) { return arts, nil }
				if err := finish(kinds, elsewhere, nil, out, 0); err == nil || !strings.Contains(err.Error(), out) {
					t.Errorf("a run that built no artifact of the baseline's kind: %v", err)
				}
			}
			slow := func() ([]artifact, error) { time.Sleep(2 * time.Millisecond); return built() }
			if err := finish(kinds, slow, nil, out, time.Millisecond); err == nil || !strings.Contains(err.Error(), "wall-clock") {
				t.Errorf("a run over the wall budget passed: %v", err)
			}
			if err := finish(kinds, slow, nil, out, time.Hour); err != nil {
				t.Errorf("a run inside the wall budget failed: %v", err)
			}
		})
	}
}

// TestFinishRefusesBaselineBeforeRun: a -baseline file of a kind the
// selected mode does not build, or no artifact at all, is refused before
// the mode runs, and the error names the file and its kind.
func TestFinishRefusesBaselineBeforeRun(t *testing.T) {
	dir := t.TempDir()
	refused := func() ([]artifact, error) {
		t.Error("the run started under a baseline it cannot gate")
		return nil, nil
	}
	arts := sampleArtifacts("2026-01-01T00:00:00Z")
	for i, a := range arts {
		path := filepath.Join(dir, a.kind+".json")
		b, err := writeJSON(path, a.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := artifactKind(b); got != a.kind {
			t.Errorf("%s reads as a %q artifact", path, got)
		}
		other := arts[(i+1)%len(arts)].kind
		for _, builds := range [][]string{nil, {other}} {
			err := finish(builds, refused, nil, path, 0)
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "a "+a.kind+" artifact") {
				t.Errorf("a %s baseline under a run that builds %v: %v", a.kind, builds, err)
			}
		}
	}
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte(`{"kind": "none"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := finish([]string{"BENCH"}, refused, nil, junk, 0); err == nil || !strings.Contains(err.Error(), junk) {
		t.Errorf("a baseline that is no artifact: %v", err)
	}
}
