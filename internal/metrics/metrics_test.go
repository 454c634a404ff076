package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("layer.things", L("proc", "cpu0"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("layer.things", L("proc", "cpu0")); again != c {
		t.Fatal("same (name, labels) must return the same counter")
	}
	if other := r.Counter("layer.things", L("proc", "cpu1")); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("layer.depth")
	g.Set(3)
	g.Set(7)
	g.Set(2)
	g.Add(1)
	if g.Value() != 3 || g.Max() != 7 {
		t.Fatalf("gauge = (%d, max %d), want (3, max 7)", g.Value(), g.Max())
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All operations on nil handles are no-ops, not panics.
	c.Inc()
	c.Add(2)
	g.Set(5)
	g.Add(1)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Percentile(50) != 0 {
		t.Fatal("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramPercentilesExact(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rpc.latency_us")
	// 4 samples at 10µs, 1 at 100µs — all on bucket boundaries, so the
	// nearest-rank answers are exact.
	for i := 0; i < 4; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(100 * time.Microsecond)

	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 140*time.Microsecond {
		t.Fatalf("sum = %v, want 140µs", h.Sum())
	}
	if h.Min() != 10*time.Microsecond || h.Max() != 100*time.Microsecond {
		t.Fatalf("min/max = %v/%v, want 10µs/100µs", h.Min(), h.Max())
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 10 * time.Microsecond},   // p<=0 → min
		{50, 10 * time.Microsecond},  // rank 3 of 5 → 10µs bucket
		{80, 10 * time.Microsecond},  // rank 4 of 5 → 10µs bucket
		{90, 100 * time.Microsecond}, // rank 5 of 5 → 100µs bucket
		{99, 100 * time.Microsecond},
		{100, 100 * time.Microsecond}, // p>=100 → max
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestHistogramClampAndOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	// 3µs lands in the ≤5µs bucket; the bucket bound (5µs) must be
	// clamped down to the exact max (3µs).
	h.Observe(3 * time.Microsecond)
	if got := h.Percentile(50); got != 3*time.Microsecond {
		t.Fatalf("P50 of single 3µs sample = %v, want 3µs (clamped)", got)
	}

	// Overflow bucket: beyond the last bound, percentiles report the
	// exact max.
	h2 := r.Histogram("h2")
	h2.Observe(2 * time.Second)
	if got := h2.Percentile(99); got != 2*time.Second {
		t.Fatalf("P99 of overflow sample = %v, want 2s", got)
	}

	// Empty histogram.
	h3 := r.Histogram("h3")
	if h3.Percentile(50) != 0 || h3.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// Regression: with all mass in the top unbounded bucket, every percentile
// must clamp to the observed max — never report the (infinite) bucket bound —
// and stay monotone in p.
func TestHistogramAllOverflowPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("overflow")
	maxBound := time.Duration(BucketBoundsUS[len(BucketBoundsUS)-1]) * time.Microsecond
	samples := []time.Duration{
		maxBound + time.Millisecond,
		2 * maxBound,
		10 * maxBound,
	}
	var max time.Duration
	for _, s := range samples {
		h.Observe(s)
		if s > max {
			max = s
		}
	}
	ps := []float64{50, 99, 99.9}
	var prev time.Duration
	for _, p := range ps {
		got := h.Percentile(p)
		if got > max {
			t.Errorf("P%v = %v exceeds observed max %v", p, got, max)
		}
		if got < prev {
			t.Errorf("P%v = %v < P(previous) = %v; percentiles must be monotone", p, got, prev)
		}
		prev = got
	}
	if got := h.Percentile(100); got != max {
		t.Errorf("P100 = %v, want exact max %v", got, max)
	}
	if h.Max() != max {
		t.Errorf("Max() = %v, want %v", h.Max(), max)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(flip bool) []byte {
		r := NewRegistry()
		// Register in different orders and with label orders swapped; the
		// snapshot must come out identical.
		if flip {
			r.Counter("b.second", L("z", "1"), L("a", "2")).Add(7)
			r.Counter("a.first").Inc()
			r.Gauge("a.depth", L("proc", "cpu1")).Set(4)
			r.Gauge("a.depth", L("proc", "cpu0")).Set(3)
		} else {
			r.Gauge("a.depth", L("proc", "cpu0")).Set(3)
			r.Gauge("a.depth", L("proc", "cpu1")).Set(4)
			r.Counter("a.first").Inc()
			r.Counter("b.second", L("a", "2"), L("z", "1")).Add(7)
		}
		r.Histogram("c.lat").Observe(20 * time.Microsecond)
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	x, y := build(false), build(true)
	if !bytes.Equal(x, y) {
		t.Fatalf("snapshots differ by registration order:\n%s\n%s", x, y)
	}

	// Round-trip through encoding/json.
	var snap Snapshot
	if err := json.Unmarshal(x, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	z, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(x, z) {
		t.Fatalf("round-trip changed JSON:\n%s\n%s", x, z)
	}
}

func TestWriteTableGroupsByLayer(t *testing.T) {
	r := NewRegistry()
	r.Counter("ether.frames_sent").Add(12)
	r.Counter("flip.packets_sent", L("proc", "cpu0")).Add(3)
	r.Gauge("akernel.seq_history", L("proc", "cpu0")).Set(5)
	r.Histogram("akernel.rpc_latency_us", L("proc", "cpu1")).Observe(500 * time.Microsecond)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteTable(&buf); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"[akernel]", "[ether]", "[flip]",
		"ether.frames_sent", "flip.packets_sent{proc=cpu0}",
		"akernel.seq_history{proc=cpu0}", "akernel.rpc_latency_us{proc=cpu1}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "[akernel]") > strings.Index(out, "[ether]") {
		t.Errorf("layers not sorted:\n%s", out)
	}
}

// TestHistogramPercentileEdges pins the contract at the edges of the
// percentile domain: an empty histogram answers 0 for every p (including
// the extremes and NaN), and a populated one answers the exact Min/Max —
// not a bucket bound — for p ≤ 0 / p ≥ 100 and treats NaN as p = 0.
func TestHistogramPercentileEdges(t *testing.T) {
	r := NewRegistry()

	empty := r.Histogram("empty")
	for _, p := range []float64{math.Inf(-1), -1, 0, 50, 100, 101, math.Inf(1), math.NaN()} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty.Percentile(%v) = %v, want 0", p, got)
		}
	}

	h := r.Histogram("edges")
	// Samples chosen off the bucket boundaries so the exact extremes are
	// distinguishable from the bucket upper bounds (5µs, 500µs).
	h.Observe(3 * time.Microsecond)
	h.Observe(40 * time.Microsecond)
	h.Observe(333 * time.Microsecond)
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{math.Inf(-1), 3 * time.Microsecond},
		{-5, 3 * time.Microsecond},
		{0, 3 * time.Microsecond},     // exact min, not the 5µs bucket bound
		{100, 333 * time.Microsecond}, // exact max, not the 500µs bound
		{250, 333 * time.Microsecond},
		{math.Inf(1), 333 * time.Microsecond},
		{math.NaN(), 3 * time.Microsecond}, // NaN ≡ p = 0
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}

	one := r.Histogram("one")
	one.Observe(7 * time.Microsecond)
	for _, p := range []float64{0, 50, 99.9, 100} {
		if got := one.Percentile(p); got != 7*time.Microsecond {
			t.Errorf("single-sample Percentile(%v) = %v, want 7µs", p, got)
		}
	}
}
