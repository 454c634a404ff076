package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"amoebasim/internal/panda"
)

// TestObservabilityDeterministic guards the simulator's determinism
// contract at the metrics boundary: two runs with the same seed must
// produce byte-identical JSON snapshots, in both modes.
func TestObservabilityDeterministic(t *testing.T) {
	for _, mode := range []panda.Mode{panda.KernelSpace, panda.UserSpace} {
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
	if len(back) != 2 || back[0].Mode != "kernel-space" || back[1].Mode != "user-space" {
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
// actually exercises every layer of the stack.
func TestObservabilityRecordsAllLayers(t *testing.T) {
	run, err := ObservabilityRun(panda.KernelSpace, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"ether": false, "flip": false, "akernel": false, "proc": false}
	nonzero := map[string]bool{}
	for _, c := range run.Metrics.Counters {
		layer, _, _ := strings.Cut(c.Name, ".")
		if _, ok := want[layer]; ok {
			want[layer] = true
			if c.Value > 0 {
				nonzero[layer] = true
			}
		}
	}
	for layer, seen := range want {
		if !seen {
			t.Errorf("no counters registered for layer %q", layer)
		}
		if !nonzero[layer] {
			t.Errorf("all counters zero for layer %q — workload does not exercise it", layer)
		}
	}
}
