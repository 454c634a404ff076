package bench

import (
	"testing"
	"time"
)

// TestPerfCellParIdentity: the perf cell's deterministic fields are
// identical whether the run used the single-queue engine or the
// partitioned engine with 4 workers (a short window keeps this fast; the
// full-size cells are gated in CI through the PERF baseline).
func TestPerfCellParIdentity(t *testing.T) {
	seq, err := runPerfCell("perf/32proc", 32, 0, 20*time.Millisecond, PerfConfig{Par: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runPerfCell("perf/32proc", 32, 0, 20*time.Millisecond, PerfConfig{Par: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if par.Partitions <= 1 {
		t.Fatalf("partitioned engine did not engage: %d partitions", par.Partitions)
	}
	if seq.Ops != par.Ops || seq.Events != par.Events ||
		seq.SimNS != par.SimNS || seq.Checksum != par.Checksum {
		t.Fatalf("par=4 diverged from sequential:\nseq %+v\npar %+v", seq, par)
	}
}

// TestComparePerfCatchesDrift: the gate's contract on the PERF artifact,
// whose host fields include the worker count and every cell's timing.
func TestComparePerfCatchesDrift(t *testing.T) {
	checkGate(t, &PerfArtifact{
		SchemaVersion: PerfSchemaVersion, Seed: 5, Par: 1,
		Cells: []PerfCell{{
			Name: "perf/32proc", Procs: 32, Segments: 4, WindowMS: 200,
			Ops: 100, Events: 5000, SimNS: 42, Checksum: 14926440533338159846,
			Partitions: 1, WallMS: 12, EventsPerSec: 1e6,
		}},
	}, gateEdits[PerfArtifact]{
		drift: func(a *PerfArtifact) string { a.Cells[0].Checksum--; return "cells[0].checksum" },
		host: func(a *PerfArtifact) {
			a.GeneratedAt, a.Par = "2026-01-01T00:00:00Z", 4
			a.Cells[0].Partitions, a.Cells[0].WallMS, a.Cells[0].EventsPerSec = 4, 99, 5e6
		},
		bump: func(a *PerfArtifact) { a.SchemaVersion++ },
		drop: func(a *PerfArtifact) { a.Cells = a.Cells[:0] },
	})
}

// BenchmarkBigRun1000Procs is the macro benchmark: the 1000-processor,
// 128-segment perf cell on the single-queue engine, reporting simulator
// throughput as scheduler events per second of host time.
func BenchmarkBigRun1000Procs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cell, err := runPerfCell("perf/1000proc-128seg", 1000, 128,
			250*time.Millisecond, PerfConfig{Par: 1, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.EventsPerSec, "events/sec")
	}
}
