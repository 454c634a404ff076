package causal

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"amoebasim/internal/sim"
	"amoebasim/internal/trace"
)

func ms(d int) sim.Time { return sim.Time(time.Duration(d) * time.Millisecond) }

// record feeds one operation through the collector's entry points and
// returns its completed record.
func record(c *Collector, id uint64, begin, end sim.Time, spans []span) *Op {
	c.OpBegin(begin, id, "rpc")
	rec := c.live[id]
	for _, s := range spans {
		c.OpSpan(id, s.ph, s.from, s.to)
	}
	c.OpEnd(end, id, false)
	return rec
}

// TestDecomposeConservation: whatever the span soup looks like —
// overlapping, out of order, sticking out past the operation window —
// the phase durations partition the window exactly.
func TestDecomposeConservation(t *testing.T) {
	o := record(NewCollector(0), 1, ms(10), ms(30), []span{
		{ph: sim.PhaseWire, from: ms(12), to: ms(18)},
		{ph: sim.PhaseProtoRecv, from: ms(16), to: ms(20)}, // overlaps wire
		{ph: sim.PhaseCrossing, from: ms(5), to: ms(11)},   // clipped at begin
		{ph: sim.PhaseSched, from: ms(28), to: ms(40)},     // clipped at end
		{ph: sim.PhaseFrag, from: ms(22), to: ms(22)},      // empty, ignored
	})
	d := o.Decompose()
	var sum int64
	for _, ns := range d {
		sum += ns
	}
	if sum != o.Latency() {
		t.Fatalf("phases sum %d != latency %d", sum, o.Latency())
	}
	// Overlap [16,18) goes to proto-recv (higher priority than wire).
	if want := int64(4 * time.Millisecond); d[sim.PhaseWire] != want {
		t.Errorf("wire = %v, want %v", d[sim.PhaseWire], want)
	}
	if want := int64(4 * time.Millisecond); d[sim.PhaseProtoRecv] != want {
		t.Errorf("proto-recv = %v, want %v", d[sim.PhaseProtoRecv], want)
	}
	if want := int64(1 * time.Millisecond); d[sim.PhaseCrossing] != want {
		t.Errorf("crossing = %v, want %v", d[sim.PhaseCrossing], want)
	}
	if want := int64(2 * time.Millisecond); d[sim.PhaseSched] != want {
		t.Errorf("sched = %v, want %v", d[sim.PhaseSched], want)
	}
	// The uncovered instants [11,12) and [20,28) land in the client bucket.
	if want := int64(9 * time.Millisecond); d[sim.PhaseClient] != want {
		t.Errorf("client = %v, want %v", d[sim.PhaseClient], want)
	}
}

// TestDecomposeSequencerPriority: the sequencer's own service outranks
// every passive phase covering the same instant.
func TestDecomposeSequencerPriority(t *testing.T) {
	o := record(NewCollector(0), 2, 0, ms(10), []span{
		{ph: sim.PhaseWire, from: 0, to: ms(10)},
		{ph: sim.PhaseSeqQueue, from: ms(2), to: ms(6)},
		{ph: sim.PhaseSeqService, from: ms(4), to: ms(8)},
	})
	d := o.Decompose()
	// Service [4,8) outranks both passive covers; queue wait [2,4) is
	// passive and loses the overlap to wire occupancy (it only claims
	// instants nothing active or physical covers); wire keeps the rest.
	if want := int64(4 * time.Millisecond); d[sim.PhaseSeqService] != want {
		t.Errorf("seq-service = %v, want %v", d[sim.PhaseSeqService], want)
	}
	if d[sim.PhaseSeqQueue] != 0 {
		t.Errorf("seq-queue = %v, want 0 (wire covers it)", d[sim.PhaseSeqQueue])
	}
	if want := int64(6 * time.Millisecond); d[sim.PhaseWire] != want {
		t.Errorf("wire = %v, want %v", d[sim.PhaseWire], want)
	}
}

// TestCollectorFlightRecorder: with maxOps set, only the most recent
// completed operations are retained, oldest first, and evictions are
// counted — bounded memory for arbitrarily long runs.
func TestCollectorFlightRecorder(t *testing.T) {
	c := NewCollector(2)
	for i := uint64(1); i <= 5; i++ {
		c.OpBegin(ms(int(i)), i, "rpc")
		c.OpSpan(i, sim.PhaseWire, ms(int(i)), ms(int(i)+1))
		c.OpEnd(ms(int(i)+2), i, false)
	}
	if got := c.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	ops := c.Completed()
	if len(ops) != 2 || ops[0].ID != 4 || ops[1].ID != 5 {
		t.Fatalf("completed = %+v, want ids [4 5] oldest first", ops)
	}
	// Recycled records must not leak spans from their previous life.
	for _, o := range ops {
		d := o.Decompose()
		if ms1 := int64(time.Millisecond); d[sim.PhaseWire] != ms1 || d[sim.PhaseClient] != ms1 {
			t.Fatalf("op %d: wire %d, client %d, want 1ms each", o.ID, d[sim.PhaseWire], d[sim.PhaseClient])
		}
	}
	if c.Began() != 5 || c.Ended() != 5 || c.Live() != 0 {
		t.Fatalf("began=%d ended=%d live=%d", c.Began(), c.Ended(), c.Live())
	}
}

// TestCollectorOrphansAndLateSpans: edges for unknown operations are
// counted, never silently merged or invented.
func TestCollectorOrphansAndLateSpans(t *testing.T) {
	c := NewCollector(0)
	c.OpEnd(ms(1), 99, false) // never began
	if c.OrphanEnds() != 1 {
		t.Fatalf("orphanEnds = %d, want 1", c.OrphanEnds())
	}
	c.OpBegin(ms(1), 1, "rpc")
	c.OpEnd(ms(2), 1, false)
	c.OpSpan(1, sim.PhaseWire, ms(1), ms(2)) // after end: off the critical path
	if c.LateSpans() != 1 {
		t.Fatalf("lateSpans = %d, want 1", c.LateSpans())
	}
	ops := c.Completed()
	if len(ops) != 1 || ops[0].Decompose()[sim.PhaseClient] != ops[0].Latency() {
		t.Fatalf("late span leaked into completed op")
	}
}

// TestCollectorReusedSpansStartEmpty: an operation's span slice goes back
// to the collector when it ends, and the next operation starts with it
// empty, so an operation with no spans is all client time even though the
// previous operation's span reaches into its window.
func TestCollectorReusedSpansStartEmpty(t *testing.T) {
	c := NewCollector(0)
	record(c, 1, 0, ms(4), []span{{ph: sim.PhaseWire, from: ms(1), to: ms(6)}})
	o := record(c, 2, ms(4), ms(8), nil)
	want := [sim.NumPhases]int64{sim.PhaseClient: int64(4 * time.Millisecond)}
	if d := o.Decompose(); d != want {
		t.Fatalf("op without spans decomposed to %v, want all client", d)
	}
}

// TestAggregateSkipsFailed: failed operations are counted but excluded
// from the sums, so conservation is judged over successes only.
func TestAggregateSkipsFailed(t *testing.T) {
	c := NewCollector(0)
	c.OpBegin(0, 1, "rpc")
	c.OpEnd(ms(2), 1, false)
	c.OpBegin(0, 2, "rpc")
	c.OpEnd(ms(50), 2, true)
	aggs := Aggregate(c.Completed())
	if len(aggs) != 1 {
		t.Fatalf("aggs = %+v", aggs)
	}
	a := aggs[0]
	if a.Ops != 1 || a.Failed != 1 || a.TotalNS != int64(2*time.Millisecond) {
		t.Fatalf("agg = %+v", a)
	}
}

// TestArtifactConservationGate: a cell whose phases do not sum to its
// total is rejected.
func TestArtifactConservationGate(t *testing.T) {
	a := &Artifact{Cells: []Cell{{Impl: "kernel-space", Op: "rpc", Ops: 1,
		TotalNS: 100, Phases: PhasesNS{WireNS: 60, ClientNS: 40}}}}
	if err := a.CheckConservation(); err != nil {
		t.Fatalf("conserved artifact rejected: %v", err)
	}
	a.Cells[0].Phases.WireNS = 61
	if err := a.CheckConservation(); err == nil {
		t.Fatal("violated artifact accepted")
	}
}

// TestArtifactCompare: the zero-drift gate flags any cell change but
// ignores the informational GeneratedAt stamp.
func TestArtifactCompare(t *testing.T) {
	mk := func() *Artifact {
		return &Artifact{SchemaVersion: SchemaVersion, Seed: 1, Rounds: 50, Procs: 2,
			Cells: []Cell{{Impl: "kernel-space", Op: "rpc", Ops: 50, TotalNS: 1000,
				Phases: PhasesNS{WireNS: 1000}}},
			Workload: []LoadCell{{Impl: "user-space", OfferedOps: 400, Op: "group",
				Ops: 10, TotalNS: 500, Phases: PhasesNS{SeqServiceNS: 500}}},
		}
	}
	base, cur := mk(), mk()
	base.GeneratedAt, cur.GeneratedAt = "2026-01-01T00:00:00Z", "2026-02-02T00:00:00Z"
	if err := Compare(base, cur); err != nil {
		t.Fatalf("identical artifacts drifted: %v", err)
	}
	cur.Cells[0].TotalNS++
	if err := Compare(base, cur); err == nil {
		t.Fatal("cell drift not detected")
	}
	cur = mk()
	cur.Workload[0].Phases.SeqServiceNS--
	if err := Compare(base, cur); err == nil {
		t.Fatal("workload drift not detected")
	}
	cur = mk()
	cur.SchemaVersion++
	if err := Compare(base, cur); err == nil {
		t.Fatal("schema mismatch not detected")
	}
}

// TestChromeExportWellFormed: a clean span log exports to parseable
// Chrome trace-event JSON with one process per source, paired slices,
// and a flow chain following the correlation id across sources, ordered
// forward in time.
func TestChromeExportWellFormed(t *testing.T) {
	log := trace.NewLog(64)
	log.TraceSpan(ms(1), sim.PhaseBegin, 7, "cpu1", "rpc.req", "seq=1")
	log.TraceSpan(ms(2), sim.PhaseBegin, 7, "cpu0", "rpc.serve", "seq=1")
	log.Trace(ms(3), "cpu0", "rpc.rep", "seq=1")
	log.TraceSpan(ms(4), sim.PhaseEnd, 7, "cpu0", "rpc.serve", "seq=1")
	log.TraceSpan(ms(5), sim.PhaseEnd, 7, "cpu1", "rpc.req", "seq=1")

	var buf bytes.Buffer
	st, err := ExportChromeTrace(&buf, log)
	if err != nil {
		t.Fatal(err)
	}
	if st.Slices != 2 || st.OrphanEnds != 0 || st.Unclosed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	var flowTS []float64
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			pids[e.PID] = true
		}
		if e.Cat == "flow" {
			flowTS = append(flowTS, e.TS)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("got %d process tracks, want 2", len(pids))
	}
	if len(flowTS) != 2 {
		t.Fatalf("got %d flow events, want 2 (s and f)", len(flowTS))
	}
	if flowTS[0] >= flowTS[1] {
		t.Fatalf("flow arrow runs backwards in time: %v", flowTS)
	}
}

// TestChromeExportToleratesRingWrap is the ring-buffer satellite: when
// the trace ring overwrites span-begin edges mid-flight, the exporter
// counts the orphaned ends instead of mispairing them, and the output is
// still valid JSON.
func TestChromeExportToleratesRingWrap(t *testing.T) {
	log := trace.NewLog(4)
	log.TraceSpan(ms(1), sim.PhaseBegin, 1, "cpu0", "rpc.req", "")
	for i := 0; i < 8; i++ { // wrap the ring: the begin edge is lost
		log.Trace(ms(2+i), "cpu0", "noise", "")
	}
	log.TraceSpan(ms(20), sim.PhaseEnd, 1, "cpu0", "rpc.req", "")
	if log.Dropped() == 0 {
		t.Fatal("ring did not wrap; the test is vacuous")
	}

	var buf bytes.Buffer
	st, err := ExportChromeTrace(&buf, log)
	if err != nil {
		t.Fatal(err)
	}
	if st.OrphanEnds != 1 {
		t.Fatalf("orphanEnds = %d, want 1", st.OrphanEnds)
	}
	if st.Slices != 0 {
		t.Fatalf("slices = %d, want 0 (the begin was overwritten)", st.Slices)
	}
	if st.Dropped == 0 {
		t.Fatal("exporter did not surface the ring drop count")
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("export is not valid JSON")
	}

	// The converse cut: a begin whose end is outside the log is closed
	// synthetically so every emitted slice is well formed.
	log2 := trace.NewLog(64)
	log2.TraceSpan(ms(1), sim.PhaseBegin, 2, "cpu0", "rpc.req", "")
	log2.Trace(ms(5), "cpu0", "last", "")
	buf.Reset()
	st, err = ExportChromeTrace(&buf, log2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unclosed != 1 || st.Slices != 1 {
		t.Fatalf("stats = %+v, want 1 unclosed slice", st)
	}
}
