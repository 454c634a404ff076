package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// quickSweep is the reduced configuration the artifact tests run: small
// Table 1 sizes and a 2-app, 2-proc-count quick-scale Table 3, so two
// full sweeps stay cheap.
func quickSweep(workers int) SweepConfig {
	apps := Table3Apps("quick")
	return SweepConfig{
		Scale:   "quick",
		Apps:    apps[:2],
		Procs:   []int{1, 4},
		Sizes:   []int{0, 2048},
		Seed:    5,
		Workers: workers,
	}
}

// TestSweepBitIdenticalAcrossWorkers is the engine's core contract:
// -jobs 1 and -jobs N produce byte-identical Table 1/2/3 output for the
// same seed, because every cell owns its whole cluster.
func TestSweepBitIdenticalAcrossWorkers(t *testing.T) {
	render := func(res *SweepResult) string {
		var sb strings.Builder
		PrintTable1(&sb, res.Table1)
		PrintTable2(&sb, res.Table2)
		PrintTable3(&sb, res.Table3)
		return sb.String()
	}
	seq, err := RunSweep(quickSweep(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweep(quickSweep(4))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(seq), render(par); a != b {
		t.Errorf("parallel sweep output differs from sequential:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", a, b)
	}
	if !reflect.DeepEqual(seq.Table1, par.Table1) {
		t.Error("Table 1 rows differ across worker counts")
	}
	if seq.Table2 != par.Table2 {
		t.Errorf("Table 2 differs across worker counts: %+v vs %+v", seq.Table2, par.Table2)
	}
	for i := range seq.Table3 {
		if !reflect.DeepEqual(seq.Table3[i], par.Table3[i]) {
			t.Errorf("Table 3 entry %s differs across worker counts", seq.Table3[i].App)
		}
	}
	// And the flattened artifacts must gate cleanly against each other.
	if err := Compare(roundTrip(t, NewArtifact(seq)), roundTrip(t, NewArtifact(par))); err != nil {
		t.Errorf("artifacts drift across worker counts: %v", err)
	}
}

// TestArtifactSchema asserts the BENCH_*.json layout: required keys,
// one cell per table data point, and a lossless write/load round trip.
func TestArtifactSchema(t *testing.T) {
	cfg := quickSweep(4)
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	art := NewArtifact(res)
	if art.SchemaVersion != ArtifactSchemaVersion {
		t.Errorf("schema version %d, want %d", art.SchemaVersion, ArtifactSchemaVersion)
	}
	if want := len(cfg.Sizes) * 10; len(art.Table1) != want {
		t.Errorf("table1 cells = %d, want %d", len(art.Table1), want)
	}
	if len(art.Table2) != 6 {
		t.Errorf("table2 cells = %d, want 6", len(art.Table2))
	}
	// 2 apps x 3 implementations x 2 processor counts (no LEQ in the
	// reduced list, so no dedicated columns).
	if want := 2 * 3 * 2; len(art.Table3) != want {
		t.Errorf("table3 cells = %d, want %d", len(art.Table3), want)
	}
	if len(art.Wall.PerJob) != len(res.Jobs) {
		t.Errorf("wall per-job entries = %d, want %d", len(art.Wall.PerJob), len(res.Jobs))
	}
	for _, c := range art.Table1 {
		if c.SimNS <= 0 {
			t.Errorf("table1 %d/%s: non-positive sim time %d", c.SizeBytes, c.Column, c.SimNS)
		}
	}

	var buf bytes.Buffer
	if err := Write(&buf, art); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"schema_version", "scale", "seed", "table1", "table2", "table3", "wall"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("artifact JSON missing key %q", k)
		}
	}

	back := new(Artifact)
	if err := Decode(buf.Bytes(), back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, back) {
		t.Error("artifact did not round-trip losslessly")
	}
	if err := Compare(back, art); err != nil {
		t.Errorf("self-comparison must be drift-free: %v", err)
	}
}

// TestCompareArtifactsDetectsDrift: the gate's contract on the BENCH
// artifact.
func TestCompareArtifactsDetectsDrift(t *testing.T) {
	checkGate(t, &Artifact{
		SchemaVersion: ArtifactSchemaVersion,
		Scale:         "quick",
		Seed:          5,
		Table1:        []Table1Cell{{SizeBytes: 0, Column: "unicast", SimNS: 100}},
		Table2:        []Table2Cell{{Op: "rpc", Impl: "user-space", BytesPerSec: 1000}},
		Table3:        []Table3Cell{{App: "sor", Impl: "user-space", Procs: 4, SimNS: 200, Answer: 7}},
		Wall:          WallStats{TotalMS: 50},
	}, gateEdits[Artifact]{
		drift: func(a *Artifact) string { a.Table3[0].Answer = 8; return "table3[0].answer" },
		host: func(a *Artifact) {
			a.GeneratedAt = "2026-01-01T00:00:00Z"
			a.Wall = WallStats{Workers: 8, TotalMS: 10_000, PerJob: []JobWall{{Name: "x", WallMS: 1}}}
		},
		bump: func(a *Artifact) { a.SchemaVersion++ },
		drop: func(a *Artifact) { a.Table1 = nil },
	})
}

// TestCommittedBaselineHasNoDrift is the regression gate in test form:
// the committed quick-scale BENCH baseline must exactly match a fresh
// sweep. If a deliberate protocol or cost-model change moved the
// numbers, regenerate the baseline with
// `go run ./cmd/amoebasim -scale quick -bench-json BENCH_baseline.json`.
func TestCommittedBaselineHasNoDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale sweep")
	}
	base := new(Artifact)
	loadBaseline(t, "BENCH_baseline.json", base)
	res, err := RunSweep(SweepConfig{Scale: base.Scale, Seed: base.Seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(base, roundTrip(t, NewArtifact(res))); err != nil {
		t.Errorf("drift against committed baseline:\n%v", err)
	}
}
