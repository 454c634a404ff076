package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amoebasim/internal/causal"
)

// committedBaselines names each committed baseline with a fresh value of
// the artifact type it decodes into.
var committedBaselines = map[string]func() any{
	"BENCH_baseline.json":  func() any { return new(Artifact) },
	"DECOMP_baseline.json": func() any { return new(causal.Artifact) },
	"SCALE_baseline.json":  func() any { return new(ScalabilityArtifact) },
	"PERF_baseline.json":   func() any { return new(PerfArtifact) },
}

// readBaseline returns the bytes of a committed baseline.
func readBaseline(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		tb.Fatalf("committed baseline missing: %v", err)
	}
	return b
}

// loadBaseline decodes a committed baseline into v.
func loadBaseline(tb testing.TB, name string, v any) {
	tb.Helper()
	if err := Decode(readBaseline(tb, name), v); err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
}

// roundTrip returns v as a run writes it and the gate reads it back.
func roundTrip[T any](tb testing.TB, v *T) *T {
	tb.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		tb.Fatal(err)
	}
	back := new(T)
	if err := Decode(buf.Bytes(), back); err != nil {
		tb.Fatal(err)
	}
	return back
}

// gateEdits are the changes the gate tests make to a copy of one kind's
// sample artifact.
type gateEdits[T any] struct {
	drift func(*T) string // changes one gated field and returns its JSON path
	host  func(*T)        // changes every host field
	bump  func(*T)        // bumps the schema or a section version
	drop  func(*T)        // removes one cell
}

// checkGate asserts the gate's contract on one artifact kind: a copy
// gates clean, a changed gated field fails and is named, host fields
// never fail, a version bump is refused and a missing cell fails.
func checkGate[T any](t *testing.T, base *T, e gateEdits[T]) {
	t.Helper()
	if err := Compare(base, roundTrip(t, base)); err != nil {
		t.Fatalf("a copy drifted: %v", err)
	}

	cur := roundTrip(t, base)
	path := e.drift(cur)
	if err := Compare(base, cur); err == nil || !strings.Contains(err.Error(), "\n  "+path+": ") {
		t.Errorf("drift at %s not reported by path: %v", path, err)
	}

	cur = roundTrip(t, base)
	e.host(cur)
	var was, now bytes.Buffer
	if err := Write(&was, base); err != nil {
		t.Fatal(err)
	}
	if err := Write(&now, cur); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(was.Bytes(), now.Bytes()) {
		t.Fatal("the host edit changed nothing")
	}
	if err := Compare(base, cur); err != nil {
		t.Errorf("host fields gated: %v", err)
	}

	cur = roundTrip(t, base)
	e.bump(cur)
	if err := Compare(base, cur); err == nil || !strings.Contains(err.Error(), "regenerate the baseline") {
		t.Errorf("version bump not refused: %v", err)
	}

	cur = roundTrip(t, base)
	e.drop(cur)
	if err := Compare(base, cur); err == nil {
		t.Error("missing cell not detected")
	}
}

// TestArtifactDecodeReadsKind: each committed baseline decodes into its
// own artifact type and is refused by every other, which is how
// -baseline reads a file's kind; trailing data is refused too.
func TestArtifactDecodeReadsKind(t *testing.T) {
	for name := range committedBaselines {
		b := readBaseline(t, name)
		for other, fresh := range committedBaselines {
			err := Decode(b, fresh())
			if other == name && err != nil {
				t.Errorf("%s does not decode as its own kind: %v", name, err)
			}
			if other != name && err == nil {
				t.Errorf("%s decodes as the kind of %s", name, other)
			}
		}
		if err := Decode(append(b, "{}"...), committedBaselines[name]()); err == nil {
			t.Errorf("%s with trailing data decoded", name)
		}
	}
}

// TestDecompArtifactCompare: the gate's contract on the DECOMP artifact.
func TestDecompArtifactCompare(t *testing.T) {
	checkGate(t, &causal.Artifact{
		SchemaVersion: causal.SchemaVersion, GeneratedAt: "2026-01-01T00:00:00Z",
		Seed: 1, Rounds: 50, Procs: 2,
		Cells: []causal.Cell{{Impl: "kernel-space", Op: "rpc", Ops: 50, TotalNS: 1000,
			Phases: causal.PhasesNS{WireNS: 1000}}},
		Workload: []causal.LoadCell{{Impl: "user-space", OfferedOps: 400, Op: "group",
			Ops: 10, TotalNS: 500, Phases: causal.PhasesNS{SeqServiceNS: 500}}},
	}, gateEdits[causal.Artifact]{
		drift: func(a *causal.Artifact) string {
			a.Workload[0].Phases.SeqServiceNS--
			return "workload[0].phases.seq_service_ns"
		},
		host: func(a *causal.Artifact) { a.GeneratedAt = "2026-02-02T00:00:00Z" },
		bump: func(a *causal.Artifact) { a.SchemaVersion++ },
		drop: func(a *causal.Artifact) { a.Cells = nil },
	})
}

// FuzzArtifactGate feeds arbitrary bytes to the strict loader as every
// artifact type: no input may panic, and whatever loads gates clean
// against the bytes the writer makes of it.
func FuzzArtifactGate(f *testing.F) {
	for name := range committedBaselines {
		f.Add(readBaseline(f, name))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, fresh := range committedBaselines {
			v := fresh()
			if Decode(b, v) != nil {
				continue
			}
			var out bytes.Buffer
			if err := Write(&out, v); err != nil {
				t.Fatalf("loaded %T does not write: %v", v, err)
			}
			if ok, err := Gate(b, out.Bytes(), v); !ok || err != nil {
				t.Fatalf("loaded %T does not gate clean against itself: %t, %v", v, ok, err)
			}
		}
	})
}
