package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

type testInner struct {
	sends Counter `metric:"t.sends"`
	local Counter `metric:"-"`
}

type testMetrics struct {
	calls   Counter   `metric:"t.calls"`
	depth   Gauge     `metric:"t.depth"`
	latency Histogram `metric:"t.latency_us"`
	lost    Counter   `metric:"t.dropped,cause=loss"`
	down    Counter   `metric:"t.dropped,cause=down,a=first"`
	inner   testInner
}

// TestRegisterMatchesSingleSeries: a registered struct publishes exactly
// the series, labels and values that the same series made one at a time
// publish; its extra tag labels merge into the canonical label order, a
// field tagged "-" publishes nothing, and a nested struct's fields are
// published as the outer struct's.
func TestRegisterMatchesSingleSeries(t *testing.T) {
	structs := NewRegistry()
	singles := NewRegistry()
	for _, proc := range []string{"cpu1", "cpu0"} {
		mx := new(testMetrics)
		structs.Register(mx, L("proc", proc), L("gid", "3"))
		ls := []Label{L("proc", proc), L("gid", "3")}
		mx.calls.Add(4)
		singles.Counter("t.calls", ls...).Add(4)
		mx.depth.Set(9)
		mx.depth.Set(2)
		singles.Gauge("t.depth", ls...).Set(9)
		singles.Gauge("t.depth", ls...).Set(2)
		mx.latency.Observe(30 * time.Microsecond)
		singles.Histogram("t.latency_us", ls...).Observe(30 * time.Microsecond)
		mx.lost.Inc()
		singles.Counter("t.dropped", append(ls, L("cause", "loss"))...).Inc()
		singles.Counter("t.dropped", append(ls, L("cause", "down"), L("a", "first"))...)
		mx.inner.sends.Add(2)
		mx.inner.local.Add(5)
		singles.Counter("t.sends", ls...).Add(2)
	}
	a, err := json.Marshal(structs.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(singles.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("registered struct and single series differ:\n%s\n%s", a, b)
	}
	if n := len(structs.Snapshot().Counters); n != 8 {
		t.Fatalf("snapshot has %d counters, want 8 (4 per struct)", n)
	}
}

// TestSnapshotPanicsOnDuplicate: two registrations that name one series
// (two structs, or a struct and a single series) are a programming error
// that Snapshot reports with the series' identity.
func TestSnapshotPanicsOnDuplicate(t *testing.T) {
	for name, build := range map[string]func(r *Registry){
		"two structs": func(r *Registry) {
			r.Register(new(testMetrics), L("proc", "cpu0"))
			r.Register(new(testMetrics), L("proc", "cpu1"))
			r.Register(new(testMetrics), L("proc", "cpu0"))
		},
		"struct and single": func(r *Registry) {
			r.Register(new(testMetrics), L("proc", "cpu0"))
			r.Counter("t.calls", L("proc", "cpu0"))
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			build(r)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "t.calls{proc=cpu0} registered twice") {
					t.Fatalf("Snapshot panicked with %q, want it to name t.calls{proc=cpu0}", msg)
				}
			}()
			r.Snapshot()
		})
	}
}

// TestRegisterRejectsMalformed: Register takes a pointer to a struct
// whose every field is a tagged metric, a struct of them, or tagged "-".
func TestRegisterRejectsMalformed(t *testing.T) {
	type untagged struct {
		calls Counter
	}
	type foreign struct {
		calls Counter `metric:"t.calls"`
		n     int     `metric:"t.n"`
	}
	type badLabel struct {
		calls Counter `metric:"t.calls,cause"`
	}
	for name, mx := range map[string]any{
		"untagged metric": new(untagged),
		"non-metric":      new(foreign),
		"bad label":       new(badLabel),
		"not a pointer":   testMetrics{},
		"nil pointer":     (*testMetrics)(nil),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%T) accepted a malformed struct", mx)
				}
			}()
			NewRegistry().Register(mx)
		})
	}
	var nilReg *Registry
	nilReg.Register(new(testMetrics)) // a nil registry does nothing
}

// TestRegisterBudget: a registration is one record appended to the
// registry (and its labels to one arena), so registering 1000 structs
// allocates only the amortized growth of those two slices.
func TestRegisterBudget(t *testing.T) {
	const n, budget = 1000, 40
	structs := make([]testMetrics, n)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("cpu%d", i)
	}
	avg := testing.AllocsPerRun(5, func() {
		r := NewRegistry()
		for i := range structs {
			r.Register(&structs[i], L("proc", names[i]))
		}
	})
	if avg > budget {
		t.Fatalf("registering %d structs allocates %.0f objects, budget %d", n, avg, budget)
	}
}
