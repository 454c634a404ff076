package trace_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
	"amoebasim/internal/trace"
)

func runTracedRPC(t *testing.T, mode panda.Mode) *trace.Log {
	t.Helper()
	c, err := cluster.New(cluster.Config{Procs: 2, Mode: mode, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	log := trace.NewLog(0)
	c.Sim.SetTracer(log)
	srv := c.Transports[0]
	srv.HandleRPC(func(th *proc.Thread, ctx *panda.RPCContext, req any, n int) {
		srv.Reply(th, ctx, req, n)
	})
	c.Procs[1].NewThread("client", proc.PrioNormal, func(th *proc.Thread) {
		if _, _, err := c.Transports[1].Call(th, 0, "x", 8); err != nil {
			t.Error(err)
		}
	})
	c.Run()
	return log
}

func TestTraceKernelRPCTimeline(t *testing.T) {
	log := runTracedRPC(t, panda.KernelSpace)
	if log.Len() == 0 {
		t.Fatal("no events recorded")
	}
	for _, want := range []string{"rpc.req", "rpc.serve", "rpc.rep", "flip.locate"} {
		if len(log.Filter(want)) == 0 {
			t.Errorf("missing %s events", want)
		}
	}
	// Causality: the request precedes the serve upcall precedes the reply.
	evs := log.Events()
	order := map[string]int{}
	for i, e := range evs {
		if _, seen := order[e.Kind]; !seen {
			order[e.Kind] = i
		}
	}
	if !(order["rpc.req"] < order["rpc.serve"] && order["rpc.serve"] < order["rpc.rep"]) {
		t.Fatalf("timeline out of order: %v", order)
	}
}

// TestTraceUserRPCTimeline: user space and bypass run one RPC core, each
// under its own trace names.
func TestTraceUserRPCTimeline(t *testing.T) {
	for mode, prefix := range map[panda.Mode]string{panda.UserSpace: "prpc", panda.Bypass: "brpc"} {
		log := runTracedRPC(t, mode)
		for _, ev := range []string{".req", ".upcall", ".rep"} {
			if len(log.Filter(prefix+ev)) == 0 {
				t.Errorf("%s: missing %s events", mode, prefix+ev)
			}
		}
	}
}

func TestTraceWriteTo(t *testing.T) {
	log := runTracedRPC(t, panda.KernelSpace)
	var sb strings.Builder
	if _, err := log.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rpc.req") {
		t.Fatal("timeline output missing events")
	}
}

func TestTraceBounded(t *testing.T) {
	log := trace.NewLog(3)
	for i := 0; i < 10; i++ {
		log.Trace(0, "x", "k", "d")
	}
	if log.Len() != 3 || log.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d", log.Len(), log.Dropped())
	}
}

func TestTraceRingKeepsNewest(t *testing.T) {
	log := trace.NewLog(3)
	for i := 0; i < 10; i++ {
		log.Trace(sim.Time(i), "x", "k", fmt.Sprintf("ev%d", i))
	}
	evs := log.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	// A ring buffer keeps the most recent events, in order.
	for i, want := range []string{"ev7", "ev8", "ev9"} {
		if evs[i].Detail != want {
			t.Errorf("events[%d] = %q, want %q", i, evs[i].Detail, want)
		}
	}
	if log.Dropped() != 7 {
		t.Errorf("dropped = %d, want 7", log.Dropped())
	}
}

func TestTraceFilterAcrossWrap(t *testing.T) {
	log := trace.NewLog(4)
	for i := 0; i < 6; i++ {
		kind := "a.one"
		if i%2 == 1 {
			kind = "b.two"
		}
		log.Trace(sim.Time(i), "x", kind, fmt.Sprintf("ev%d", i))
	}
	// Buffer holds ev2..ev5; kinds alternate so "a." matches ev2, ev4.
	got := log.Filter("a.")
	if len(got) != 2 || got[0].Detail != "ev2" || got[1].Detail != "ev4" {
		t.Fatalf("Filter(a.) = %v", got)
	}
	if len(log.Filter("nope")) != 0 {
		t.Fatal("Filter with no matches must return empty")
	}
}

func TestTraceWriteToDropped(t *testing.T) {
	log := trace.NewLog(2)
	for i := 0; i < 5; i++ {
		log.Trace(sim.Time(i), "x", "k", fmt.Sprintf("ev%d", i))
	}
	var sb strings.Builder
	if _, err := log.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "3 older events dropped") {
		t.Errorf("missing dropped notice:\n%s", out)
	}
	if !strings.Contains(out, "ev3") || !strings.Contains(out, "ev4") {
		t.Errorf("missing surviving tail events:\n%s", out)
	}
	if strings.Contains(out, "ev0") {
		t.Errorf("overwritten event still present:\n%s", out)
	}
}

func TestTraceSpansAndJSON(t *testing.T) {
	s := sim.New()
	log := trace.NewLog(0)
	s.SetTracer(log)
	id := s.SpanBegin("cpu0", "rpc.call", "dest=%d", 1)
	if id == 0 {
		t.Fatal("SpanBegin with tracer installed must allocate an id")
	}
	s.Trace("cpu0", "misc", "plain")
	s.SpanEnd(id, "cpu0", "rpc.call", "done")

	evs := log.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Span != id || evs[0].Phase != sim.PhaseBegin {
		t.Errorf("begin edge wrong: %+v", evs[0])
	}
	if evs[1].Span != 0 || evs[1].Phase != sim.PhaseInstant {
		t.Errorf("plain event wrong: %+v", evs[1])
	}
	if evs[2].Span != id || evs[2].Phase != sim.PhaseEnd {
		t.Errorf("end edge wrong: %+v", evs[2])
	}

	var sb strings.Builder
	if err := log.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dropped int `json:"dropped"`
		Events  []struct {
			Kind  string `json:"kind"`
			Span  uint64 `json:"span"`
			Phase string `json:"phase"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Events) != 3 || doc.Events[0].Phase != "B" || doc.Events[2].Phase != "E" {
		t.Fatalf("JSON span edges wrong: %+v", doc.Events)
	}
}

func TestSpanNoTracerIsNoop(t *testing.T) {
	s := sim.New()
	if id := s.SpanBegin("x", "k", "d"); id != 0 {
		t.Fatalf("SpanBegin without tracer = %d, want 0", id)
	}
	s.SpanEnd(0, "x", "k", "d") // must not panic
}

func TestTracingDisabledByDefault(t *testing.T) {
	c, err := cluster.New(cluster.Config{Procs: 1, Mode: panda.UserSpace, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if c.Sim.Tracing() {
		t.Fatal("tracing should be off by default")
	}
	c.Sim.Trace("x", "y", "should be a no-op %d", 1)
}
