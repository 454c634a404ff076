package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amoebasim/internal/panda"
)

// TestObservabilityDeterministic guards the simulator's determinism
// contract at the metrics boundary: two runs with the same seed must
// produce byte-identical JSON snapshots, in every implementation.
func TestObservabilityDeterministic(t *testing.T) {
	for _, mode := range panda.AllModes() {
		runA, err := ObservabilityRun(mode, 42)
		if err != nil {
			t.Fatalf("%v: run: %v", mode, err)
		}
		a, err := json.Marshal(runA)
		if err != nil {
			t.Fatalf("%v: marshal: %v", mode, err)
		}
		runB, err := ObservabilityRun(mode, 42)
		if err != nil {
			t.Fatalf("%v: run: %v", mode, err)
		}
		b, err := json.Marshal(runB)
		if err != nil {
			t.Fatalf("%v: marshal: %v", mode, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v: same-seed runs produced different metrics JSON:\n%s\n---\n%s", mode, a, b)
		}
	}
}

// TestObservabilityRoundTrip checks that the JSON dump parses back into
// an equivalent appendix.
func TestObservabilityRoundTrip(t *testing.T) {
	runs, err := ObservabilityAppendix(7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, runs); err != nil {
		t.Fatalf("write: %v", err)
	}
	var back []ModeObservability
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back) != 3 || back[0].Mode != "kernel-space" || back[1].Mode != "user-space" || back[2].Mode != "bypass" {
		t.Fatalf("unexpected modes: %+v", back)
	}
	again, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	again = append(again, '\n')
	if !bytes.Equal(buf.Bytes(), again) {
		t.Error("JSON did not round-trip byte-identically")
	}
}

// TestObservabilityRecordsAllLayers asserts the instrumented workload
// actually exercises every layer of the stack that each implementation
// runs: kernel space's protocols publish under akernel, user space's and
// bypass's under panda, and bypass's queue pair passes by the kernel's
// FLIP layer.
func TestObservabilityRecordsAllLayers(t *testing.T) {
	for mode, layers := range map[panda.Mode][]string{
		panda.KernelSpace: {"ether", "flip", "akernel", "proc"},
		panda.UserSpace:   {"ether", "flip", "panda", "proc"},
		panda.Bypass:      {"ether", "panda", "proc"},
	} {
		run, err := ObservabilityRun(mode, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen, nonzero := map[string]bool{}, map[string]bool{}
		for _, c := range run.Metrics.Counters {
			layer, _, _ := strings.Cut(c.Name, ".")
			seen[layer] = true
			if c.Value > 0 {
				nonzero[layer] = true
			}
		}
		for _, layer := range layers {
			if !seen[layer] {
				t.Errorf("%v: no counters registered for layer %q", mode, layer)
			}
			if !nonzero[layer] {
				t.Errorf("%v: all counters zero for layer %q — workload does not exercise it", mode, layer)
			}
		}
	}
}

// TestObservabilityGolden pins the bytes `amoebasim -metrics-json` writes
// for seed 5: every series, its labels in canonical order, its value and
// its percentiles. Regenerate testdata/metrics_seed5.json only for a
// deliberate change to the metrics the stack publishes.
func TestObservabilityGolden(t *testing.T) {
	runs, err := ObservabilityAppendix(5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, runs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_seed5.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wnt := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wnt); i++ {
			if got[i] != wnt[i] {
				t.Fatalf("metrics appendix differs from testdata/metrics_seed5.json at line %d:\n got %s\nwant %s", i+1, got[i], wnt[i])
			}
		}
		t.Fatalf("metrics appendix has %d lines, testdata/metrics_seed5.json %d", len(got), len(wnt))
	}
}
