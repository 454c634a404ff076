package causal

import (
	"fmt"
	"strings"

	"amoebasim/internal/sim"
)

// SchemaVersion identifies the decomposition artifact layout
// (DECOMP_*.json). Bump it when a field changes meaning; the comparison
// gate refuses to diff artifacts across versions. v2 added the
// kernel-bypass phases (doorbell, poll-spin) and the bypass cells.
const SchemaVersion = 2

// PhasesNS is the closed phase set in nanoseconds of simulated time. The
// comparison gate diffs every phase with zero drift tolerance.
type PhasesNS struct {
	ClientNS     int64 `json:"client_ns"`
	CrossingNS   int64 `json:"crossing_ns"`
	SchedNS      int64 `json:"sched_ns"`
	ProtoSendNS  int64 `json:"proto_send_ns"`
	ProtoRecvNS  int64 `json:"proto_recv_ns"`
	FragNS       int64 `json:"frag_ns"`
	WireNS       int64 `json:"wire_ns"`
	SeqQueueNS   int64 `json:"seq_queue_ns"`
	SeqServiceNS int64 `json:"seq_service_ns"`
	RecvQueueNS  int64 `json:"recv_queue_ns"`
	RetransNS    int64 `json:"retrans_ns"`
	DoorbellNS   int64 `json:"doorbell_ns,omitempty"`
	PollSpinNS   int64 `json:"poll_spin_ns,omitempty"`
}

// Sum totals the phase durations; conservation requires it to equal the
// cell's TotalNS exactly.
func (p PhasesNS) Sum() int64 {
	return p.ClientNS + p.CrossingNS + p.SchedNS + p.ProtoSendNS + p.ProtoRecvNS +
		p.FragNS + p.WireNS + p.SeqQueueNS + p.SeqServiceNS + p.RecvQueueNS +
		p.RetransNS + p.DoorbellNS + p.PollSpinNS
}

// NewPhasesNS flattens a resolver output array into the artifact form.
func NewPhasesNS(d [sim.NumPhases]int64) PhasesNS {
	return PhasesNS{
		ClientNS:     d[sim.PhaseClient],
		CrossingNS:   d[sim.PhaseCrossing],
		SchedNS:      d[sim.PhaseSched],
		ProtoSendNS:  d[sim.PhaseProtoSend],
		ProtoRecvNS:  d[sim.PhaseProtoRecv],
		FragNS:       d[sim.PhaseFrag],
		WireNS:       d[sim.PhaseWire],
		SeqQueueNS:   d[sim.PhaseSeqQueue],
		SeqServiceNS: d[sim.PhaseSeqService],
		RecvQueueNS:  d[sim.PhaseRecvQueue],
		RetransNS:    d[sim.PhaseRetrans],
		DoorbellNS:   d[sim.PhaseDoorbell],
		PollSpinNS:   d[sim.PhasePollSpin],
	}
}

// Cell is one (implementation, operation kind) decomposition: phase sums
// over Ops successful operations. TotalNS is the summed end-to-end
// latency; Phases.Sum() == TotalNS is asserted by CheckConservation.
type Cell struct {
	Impl    string   `json:"impl"` // kernel-space, user-space, user-space-dedicated, bypass, ...
	Op      string   `json:"op"`   // rpc, group, orca.read, orca.write
	Ops     int64    `json:"ops"`
	Failed  int64    `json:"failed,omitempty"`
	TotalNS int64    `json:"total_ns"`
	Phases  PhasesNS `json:"phases"`
}

// MeanNS is the mean end-to-end latency per operation.
func (c Cell) MeanNS() int64 {
	if c.Ops == 0 {
		return 0
	}
	return c.TotalNS / c.Ops
}

// LoadCell is one load point of a workload sweep with its per-phase
// decomposition: the latency-vs-load curve gains a breakdown per point.
type LoadCell struct {
	Impl       string   `json:"impl"`
	OfferedOps float64  `json:"offered_ops_per_sec"`
	Op         string   `json:"op"`
	Ops        int64    `json:"ops"`
	TotalNS    int64    `json:"total_ns"`
	Phases     PhasesNS `json:"phases"`
}

// Artifact is the machine-readable latency decomposition (DECOMP_*.json):
// the §4.2/§4.3 tables in simulated time. Every cell is a pure function
// of (seed, rounds, size, procs) — the simulation is deterministic — so
// the regression gate compares them with zero drift tolerance.
// GeneratedAt is host data and never compared.
type Artifact struct {
	SchemaVersion int        `json:"schema_version"`
	GeneratedAt   string     `json:"generated_at,omitempty" gate:"host"`
	Seed          uint64     `json:"seed"`
	Rounds        int        `json:"rounds"`
	SizeBytes     int        `json:"size_bytes"`
	Procs         int        `json:"procs"`
	Cells         []Cell     `json:"cells"`
	Workload      []LoadCell `json:"workload,omitempty"`
}

// CheckConservation verifies that every cell's phases sum exactly to its
// total end-to-end latency — the stitcher attributed every nanosecond.
func (a *Artifact) CheckConservation() error {
	var bad []string
	for _, c := range a.Cells {
		if got := c.Phases.Sum(); got != c.TotalNS {
			bad = append(bad, fmt.Sprintf("%s/%s: phases sum %dns != total %dns", c.Impl, c.Op, got, c.TotalNS))
		}
	}
	for _, c := range a.Workload {
		if got := c.Phases.Sum(); got != c.TotalNS {
			bad = append(bad, fmt.Sprintf("workload %s/load=%g/%s: phases sum %dns != total %dns",
				c.Impl, c.OfferedOps, c.Op, got, c.TotalNS))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("causal: conservation violated (%d):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
