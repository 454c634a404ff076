// Package metrics is the unified observability substrate of the simulated
// stack: a registry of labeled counters, gauges and fixed-bucket latency
// histograms that every protocol layer (ether, flip, akernel, panda, orca,
// proc) publishes into.
//
// The registry is attached to a simulation via sim.Sim.SetMetrics and is
// nil by default. A layer keeps its series of one processor (or segment,
// or scenario) in one struct of Counter, Gauge and Histogram values, each
// field naming its series in a `metric:"name"` tag, and registers that
// struct once with Register. The values hold no pointers, so a
// registration is one pointer-free allocation by the layer and one record
// appended by the registry; series identities are built only when a
// Snapshot runs. When metrics are disabled the layer's struct pointer is
// nil and every hot-path site is guarded by that single branch (the same
// pattern as sim.Trace) and allocates nothing. When enabled,
// Counter.Inc / Gauge.Set / Histogram.Observe are plain field updates —
// the simulation is single-threaded, so no atomics or locks are needed.
//
// Snapshots are deterministic: series are exported sorted by name and
// canonical label order, never by map iteration, so two same-seed runs
// produce byte-identical JSON.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"
	"unsafe"
)

// Label is one key=value dimension attached to a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// sortLabels orders ls by (Key, Value) in place with a closure-free
// insertion sort: label sets are tiny and usually already sorted, so this
// is one comparison per label.
func sortLabels(ls []Label) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && (ls[j].Key < ls[j-1].Key ||
			(ls[j].Key == ls[j-1].Key && ls[j].Value < ls[j-1].Value)); j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// appendID appends the canonical series identity "name{k=v,...}" of name
// and its labels, already in canonical order, to b.
func appendID(b []byte, name string, sorted []Label) []byte {
	b = append(b, name...)
	if len(sorted) > 0 {
		b = append(b, '{')
		for i, l := range sorted {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l.Key...)
			b = append(b, '=')
			b = append(b, l.Value...)
		}
		b = append(b, '}')
	}
	return b
}

// Counter is a monotonically increasing count. The nil Counter is a valid
// no-op, so call sites need no extra guard beyond their layer's own.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n (negative deltas are a programming error and ignored).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v += n
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level (queue depth, history occupancy). It
// remembers the high-water mark, which is usually the number the analysis
// wants. The nil Gauge is a valid no-op.
type Gauge struct {
	v, max int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the current level by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value reports the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max reports the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// BucketBoundsUS are the fixed histogram bucket upper bounds in
// microseconds: a 1-2-5 ladder from 1 µs to 1 s, matching the µs-to-ms
// scale of the paper's measurements. Observations above the last bound
// land in an overflow bucket.
var BucketBoundsUS = [...]int64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000,
	1000000,
}

// Histogram is a fixed-bucket latency histogram. Percentile queries return
// the upper bound of the bucket holding the requested rank, clamped to the
// exactly-tracked [Min, Max] range, so distributions built on bucket
// boundaries yield exact percentiles. The nil Histogram is a valid no-op.
type Histogram struct {
	counts   [len(BucketBoundsUS) + 1]int64 // last is overflow
	count    int64
	sum      time.Duration
	min, max time.Duration
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	us := int64(d / time.Microsecond)
	for i, le := range &BucketBoundsUS {
		if us <= le {
			h.counts[i]++
			return
		}
	}
	h.counts[len(BucketBoundsUS)]++
}

// Count reports the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the exact total of all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min reports the exact smallest sample (0 when empty).
func (h *Histogram) Min() time.Duration {
	if h == nil {
		return 0
	}
	return h.min
}

// Max reports the exact largest sample (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return h.max
}

// Percentile answers a percentile query for p in [0, 100] using
// nearest-rank on the fixed buckets: the result is the upper bound of the
// bucket containing sample number ceil(p/100 * Count), clamped to
// [Min, Max]. The extremes are exact, not bucket estimates: p ≤ 0 returns
// Min and p ≥ 100 returns Max. An empty histogram returns 0 for every p,
// and a NaN p is treated as 0 (it is not a meaningful rank).
func (h *Histogram) Percentile(p float64) time.Duration {
	if h == nil || h.count == 0 {
		return 0
	}
	if p <= 0 || math.IsNaN(p) {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range &h.counts {
		cum += c
		if cum >= rank {
			if i == len(BucketBoundsUS) {
				return h.max
			}
			est := time.Duration(BucketBoundsUS[i]) * time.Microsecond
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
	}
	return h.max
}

// kind is what a series holds.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	numKinds
)

var kindOf = map[reflect.Type]kind{
	reflect.TypeFor[Counter]():   kindCounter,
	reflect.TypeFor[Gauge]():     kindGauge,
	reflect.TypeFor[Histogram](): kindHistogram,
}

// field is one series of a registered struct type: its name, the fixed
// labels its tag adds, what it holds and its offset in the struct.
type field struct {
	name  string
	extra []Label
	kind  kind
	off   uintptr
}

// appendFields appends to fs the series of struct type t, which sits at
// offset base of the registered struct. A Counter, Gauge or Histogram
// field is named by its tag, `metric:"name"` or `metric:"name,k=v,..."`
// with fixed extra labels; a field tagged "-" is left out; an untagged
// field of another struct type is walked into. Anything else is a
// programming error.
func appendFields(fs []field, t reflect.Type, base uintptr) []field {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, tagged := sf.Tag.Lookup("metric")
		k, isMetric := kindOf[sf.Type]
		switch {
		case tag == "-":
		case isMetric && tag != "":
			name, rest, _ := strings.Cut(tag, ",")
			f := field{name: name, kind: k, off: base + sf.Offset}
			for rest != "" {
				var kv string
				kv, rest, _ = strings.Cut(rest, ",")
				key, value, ok := strings.Cut(kv, "=")
				if !ok {
					panic(fmt.Sprintf("metrics: %v.%s: label %q is not key=value", t, sf.Name, kv))
				}
				f.extra = append(f.extra, L(key, value))
			}
			fs = append(fs, f)
		case !isMetric && !tagged && sf.Type.Kind() == reflect.Struct:
			fs = appendFields(fs, sf.Type, base+sf.Offset)
		default:
			panic(fmt.Sprintf("metrics: %v.%s is neither a tagged Counter, Gauge or Histogram nor a struct of them", t, sf.Name))
		}
	}
	return fs
}

// Registry holds every metric series of one simulation. The nil Registry
// is valid and hands out nil handles, so disabled-metrics call sites cost
// one branch and zero allocations.
type Registry struct {
	recs   []record
	labels []Label                  // every record's labels, each a contiguous run
	tables map[reflect.Type][]field // each registered struct type's fields, read once

	// single indexes the series made one at a time (Counter, Gauge,
	// Histogram) by kind and canonical identity into recs, so
	// re-resolving one allocates nothing; keyBuf and lblBuf are its
	// reused scratch.
	single map[string]int
	keyBuf []byte
	lblBuf []Label
}

// record is one registration: the pointer to the struct (or single
// series) that was registered, its field table, and its labels,
// labels[lo:hi]. The pointer is kept typed, so reflect.DeepEqual compares
// two registries by their values.
type record struct {
	mx     any
	fields []field
	lo, hi int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds the series of mx, a pointer to a struct of Counter, Gauge
// and Histogram values, under labels; each field names its series in a
// `metric` tag (see appendFields). The layer updates the values in place
// and the registry reads them at each Snapshot. Registering two structs
// that name the same series is a programming error that Snapshot reports.
// A nil registry does nothing.
func (r *Registry) Register(mx any, labels ...Label) {
	if r == nil {
		return
	}
	v := reflect.ValueOf(mx)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: Register(%T): want a non-nil pointer to a struct", mx))
	}
	t := v.Type().Elem()
	fields, ok := r.tables[t]
	if !ok {
		fields = appendFields(nil, t, 0)
		if r.tables == nil {
			r.tables = make(map[reflect.Type][]field)
		}
		r.tables[t] = fields
	}
	r.add(mx, fields, labels)
}

func (r *Registry) add(mx any, fields []field, labels []Label) {
	lo := len(r.labels)
	r.labels = append(r.labels, labels...)
	r.recs = append(r.recs, record{mx: mx, fields: fields, lo: lo, hi: len(r.labels)})
}

// Counter returns the counter for (name, labels), creating it on first
// use: a series made while a run goes, outside any registered struct.
// Resolving an existing counter is allocation-free. A nil registry
// returns a nil (no-op) handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(kindCounter, name, labels).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
// Resolving an existing gauge is allocation-free.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(kindGauge, name, labels).(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it on
// first use. Resolving an existing histogram is allocation-free.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(kindHistogram, name, labels).(*Histogram)
}

// lookup returns the single series of kind k for (name, labels), making
// it on first use. The key is built in reused scratch and probed with the
// compiler's no-copy map[string] lookup.
func (r *Registry) lookup(k kind, name string, labels []Label) any {
	ls := append(r.lblBuf[:0], labels...)
	sortLabels(ls)
	r.lblBuf = ls
	key := appendID(append(r.keyBuf[:0], byte(k)), name, ls)
	r.keyBuf = key
	if i, ok := r.single[string(key)]; ok {
		return r.recs[i].mx
	}
	var mx any
	switch k {
	case kindCounter:
		mx = new(Counter)
	case kindGauge:
		mx = new(Gauge)
	default:
		mx = new(Histogram)
	}
	if r.single == nil {
		r.single = make(map[string]int)
	}
	r.single[string(key)] = len(r.recs)
	r.add(mx, []field{{name: name, kind: k}}, ls)
	return mx
}

// ---- Snapshots ----

// CounterSnap is one counter series in a snapshot.
type CounterSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeSnap is one gauge series in a snapshot.
type GaugeSnap struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
	Max    int64   `json:"max"`
}

// BucketSnap is one non-empty histogram bucket.
type BucketSnap struct {
	LEUS  int64 `json:"le_us"` // upper bound in µs; -1 marks the overflow bucket
	Count int64 `json:"count"`
}

// HistogramSnap is one histogram series in a snapshot. Times are µs.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Labels  []Label      `json:"labels,omitempty"`
	Count   int64        `json:"count"`
	SumUS   int64        `json:"sum_us"`
	MinUS   int64        `json:"min_us"`
	MaxUS   int64        `json:"max_us"`
	P50US   int64        `json:"p50_us"`
	P90US   int64        `json:"p90_us"`
	P99US   int64        `json:"p99_us"`
	P999US  int64        `json:"p999_us"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of a registry, deterministically
// ordered by series identity.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

func us(d time.Duration) int64 { return int64(d / time.Microsecond) }

// series is one series while a snapshot is built: its value, name and
// canonical labels, and its identity, ids[lo:hi] of the snapshot's
// identity buffer.
type series struct {
	p      unsafe.Pointer
	name   string
	labels []Label
	lo, hi int
}

// Snapshot exports the registry's current state, each kind sorted by
// series identity. Two series with one identity mean a series was
// registered twice, and Snapshot panics naming it. A nil registry
// exports an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	var ids []byte
	var byKind [numKinds][]series
	for _, rec := range r.recs {
		p := reflect.ValueOf(rec.mx).UnsafePointer()
		// The record's labels in canonical order, shared by its fields
		// that add none of their own.
		var base []Label
		if rec.hi > rec.lo {
			base = append(base, r.labels[rec.lo:rec.hi]...)
			sortLabels(base)
		}
		for _, f := range rec.fields {
			ls := base
			if len(f.extra) > 0 {
				ls = append(append(make([]Label, 0, len(base)+len(f.extra)), base...), f.extra...)
				sortLabels(ls)
			}
			lo := len(ids)
			ids = appendID(ids, f.name, ls)
			byKind[f.kind] = append(byKind[f.kind], series{
				p: unsafe.Add(p, f.off), name: f.name, labels: ls, lo: lo, hi: len(ids)})
		}
	}
	for _, ss := range byKind {
		slices.SortFunc(ss, func(a, b series) int { return bytes.Compare(ids[a.lo:a.hi], ids[b.lo:b.hi]) })
		for i := 1; i < len(ss); i++ {
			if id := ids[ss[i].lo:ss[i].hi]; bytes.Equal(id, ids[ss[i-1].lo:ss[i-1].hi]) {
				panic(fmt.Sprintf("metrics: series %s registered twice", id))
			}
		}
	}

	for _, s := range byKind[kindCounter] {
		snap.Counters = append(snap.Counters, CounterSnap{Name: s.name, Labels: s.labels, Value: (*Counter)(s.p).v})
	}
	for _, s := range byKind[kindGauge] {
		g := (*Gauge)(s.p)
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: s.name, Labels: s.labels, Value: g.v, Max: g.max})
	}
	for _, s := range byKind[kindHistogram] {
		h := (*Histogram)(s.p)
		hs := HistogramSnap{
			Name: s.name, Labels: s.labels,
			Count: h.count, SumUS: us(h.sum), MinUS: us(h.min), MaxUS: us(h.max),
			P50US: us(h.Percentile(50)), P90US: us(h.Percentile(90)),
			P99US: us(h.Percentile(99)), P999US: us(h.Percentile(99.9)),
		}
		for i, c := range &h.counts {
			if c == 0 {
				continue
			}
			le := int64(-1)
			if i < len(BucketBoundsUS) {
				le = BucketBoundsUS[i]
			}
			hs.Buckets = append(hs.Buckets, BucketSnap{LEUS: le, Count: c})
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	return snap
}

// MarshalJSONIndent renders the snapshot as stable, human-diffable JSON.
func (s Snapshot) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// layerOf groups series by the conventional "layer.metric" naming.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

func labelSuffix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// WriteTable renders the snapshot as a per-layer text table (the
// `amoebasim -metrics` output).
func (s Snapshot) WriteTable(w io.Writer) error {
	type row struct {
		layer, text string
	}
	var rows []row
	for _, c := range s.Counters {
		rows = append(rows, row{layerOf(c.Name),
			fmt.Sprintf("  %-52s %12d", c.Name+labelSuffix(c.Labels), c.Value)})
	}
	for _, g := range s.Gauges {
		rows = append(rows, row{layerOf(g.Name),
			fmt.Sprintf("  %-52s %12d  (max %d)", g.Name+labelSuffix(g.Labels), g.Value, g.Max)})
	}
	for _, h := range s.Histograms {
		rows = append(rows, row{layerOf(h.Name),
			fmt.Sprintf("  %-52s n=%-7d p50=%dµs p90=%dµs p99=%dµs max=%dµs",
				h.Name+labelSuffix(h.Labels), h.Count, h.P50US, h.P90US, h.P99US, h.MaxUS)})
	}
	// Rows arrive sorted within each kind; group by layer preserving the
	// counter/gauge/histogram ordering inside a layer.
	layers := make([]string, 0)
	seen := make(map[string]bool)
	for _, r := range rows {
		if !seen[r.layer] {
			seen[r.layer] = true
			layers = append(layers, r.layer)
		}
	}
	sort.Strings(layers)
	for _, layer := range layers {
		if _, err := fmt.Fprintf(w, "[%s]\n", layer); err != nil {
			return err
		}
		for _, r := range rows {
			if r.layer != layer {
				continue
			}
			if _, err := fmt.Fprintln(w, r.text); err != nil {
				return err
			}
		}
	}
	return nil
}
