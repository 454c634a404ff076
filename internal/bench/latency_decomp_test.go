package bench

import (
	"bytes"
	"testing"

	"amoebasim/internal/apps"
	"amoebasim/internal/causal"
	"amoebasim/internal/cluster"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
)

// quickDecomp keeps the sweep CI-sized; results are deterministic so a
// small round count loses nothing.
var quickDecomp = DecompConfig{Rounds: 20, Seed: 1}

func cellOf(t *testing.T, a *causal.Artifact, impl, op string) causal.Cell {
	t.Helper()
	for _, c := range a.Cells {
		if c.Impl == impl && c.Op == op {
			return c
		}
	}
	t.Fatalf("no %s/%s cell in artifact", impl, op)
	return causal.Cell{}
}

// TestDecompositionQualitativeOrdering asserts the artifact reproduces
// the paper's §4.2/§4.3 explanations, not just its totals:
//   - the kernel-space path crosses the user/kernel boundary fewer times
//     per RPC, so its crossing share is strictly smaller (§4.2);
//   - the user-space group send funnels through the PAN daemon acting as
//     sequencer, so sequencer time (queueing + service) dominates the
//     breakdown relative to kernel-space (§4.3).
func TestDecompositionQualitativeOrdering(t *testing.T) {
	a, err := RunDecomposition(quickDecomp)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	kRPC := cellOf(t, a, "kernel-space", "rpc")
	uRPC := cellOf(t, a, "user-space", "rpc")
	if kRPC.Phases.CrossingNS >= uRPC.Phases.CrossingNS {
		t.Errorf("kernel rpc crossing %dns !< user rpc crossing %dns (§4.2 ordering)",
			kRPC.Phases.CrossingNS, uRPC.Phases.CrossingNS)
	}
	if kRPC.MeanNS() >= uRPC.MeanNS() {
		t.Errorf("kernel rpc mean %dns !< user rpc mean %dns",
			kRPC.MeanNS(), uRPC.MeanNS())
	}

	kGrp := cellOf(t, a, "kernel-space", "group")
	uGrp := cellOf(t, a, "user-space", "group")
	kSeq := kGrp.Phases.SeqQueueNS + kGrp.Phases.SeqServiceNS
	uSeq := uGrp.Phases.SeqQueueNS + uGrp.Phases.SeqServiceNS
	if uSeq <= kSeq {
		t.Errorf("user group sequencer time %dns !> kernel %dns (§4.3 ordering)", uSeq, kSeq)
	}
	// And as a share of the breakdown, not just absolutely.
	if float64(uSeq)/float64(uGrp.TotalNS) <= float64(kSeq)/float64(kGrp.TotalNS) {
		t.Errorf("user group sequencer share %.3f !> kernel %.3f",
			float64(uSeq)/float64(uGrp.TotalNS), float64(kSeq)/float64(kGrp.TotalNS))
	}
	if kGrp.Phases.CrossingNS >= uGrp.Phases.CrossingNS {
		t.Errorf("kernel group crossing %dns !< user group crossing %dns",
			kGrp.Phases.CrossingNS, uGrp.Phases.CrossingNS)
	}
}

// TestDecompositionBypassNoCrossing is the kernel-bypass column's
// defining decomposition signature: with the kernel off the data path
// there are no user/kernel crossings at all — the crossing phase is
// exactly zero, not merely small — while the costs that replaced them
// (doorbell writes, completion-ring polls) are present, and the total
// still beats both paper implementations.
func TestDecompositionBypassNoCrossing(t *testing.T) {
	a, err := RunDecomposition(quickDecomp)
	if err != nil {
		t.Fatal(err)
	}
	uRPC := cellOf(t, a, "user-space", "rpc")
	for _, op := range []string{"rpc", "group"} {
		c := cellOf(t, a, "bypass", op)
		if c.Phases.CrossingNS != 0 {
			t.Errorf("bypass %s crossing = %dns, want exactly 0", op, c.Phases.CrossingNS)
		}
		if c.Phases.DoorbellNS <= 0 {
			t.Errorf("bypass %s doorbell = %dns, want > 0", op, c.Phases.DoorbellNS)
		}
	}
	bRPC := cellOf(t, a, "bypass", "rpc")
	if bRPC.Phases.PollSpinNS <= 0 {
		t.Errorf("bypass rpc poll-spin = %dns, want > 0", bRPC.Phases.PollSpinNS)
	}
	if bRPC.MeanNS() >= uRPC.MeanNS() {
		t.Errorf("bypass rpc mean %dns !< user-space %dns", bRPC.MeanNS(), uRPC.MeanNS())
	}
}

// TestDecompositionJobsInvariance: the artifact is byte-identical at any
// -jobs width — cells land in job-order slots, so worker scheduling can
// never reorder or perturb them.
func TestDecompositionJobsInvariance(t *testing.T) {
	cfgs := []int{1, 4}
	var blobs [][]byte
	for _, workers := range cfgs {
		cfg := quickDecomp
		cfg.Workers = workers
		a, err := RunDecomposition(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.GeneratedAt = "" // the only non-deterministic field
		var buf bytes.Buffer
		if err := Write(&buf, a); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("artifact differs between -jobs %d and -jobs %d", cfgs[0], cfgs[1])
	}
}

// TestDecompositionPerOpConservation: conservation holds per operation,
// not merely in aggregate — every stitched op's phase durations sum
// exactly to its own end-to-end latency in sim ns.
func TestDecompositionPerOpConservation(t *testing.T) {
	col := causal.NewCollector(0)
	c, err := newCluster(cluster.Config{Procs: 3, Mode: panda.UserSpace, Group: true, Seed: 1, Causal: col})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	srv := c.Transports[0]
	srv.HandleRPC(func(t *proc.Thread, ctx *panda.RPCContext, req any, sz int) {
		srv.Reply(t, ctx, nil, 0)
	})
	c.Procs[1].NewThread("client", proc.PrioNormal, func(t *proc.Thread) {
		for i := 0; i < 10; i++ {
			if _, _, err := c.Transports[1].Call(t, 0, nil, 128); err != nil {
				return
			}
			if err := c.Transports[1].GroupSend(t, nil, 64); err != nil {
				return
			}
		}
	})
	c.Run()
	ops := col.Completed()
	if len(ops) != 20 {
		t.Fatalf("completed %d ops, want 20", len(ops))
	}
	for _, o := range ops {
		d := o.Decompose()
		var sum int64
		for _, ns := range d {
			sum += ns
		}
		if sum != o.Latency() {
			t.Errorf("op %d (%s): phases sum %dns != latency %dns", o.ID, o.Kind, sum, o.Latency())
		}
		if o.Latency() <= 0 {
			t.Errorf("op %d (%s): non-positive latency %d", o.ID, o.Kind, o.Latency())
		}
	}
	if col.Live() != 0 {
		t.Errorf("%d operations never ended", col.Live())
	}
}

// TestDecompositionOrcaOps: Orca object invocations stitch as
// "orca.read"/"orca.write" operations — the nested transport spans
// attribute to the invocation, conservation holds per op, and every
// invocation the app made reached its end edge.
func TestDecompositionOrcaOps(t *testing.T) {
	app := apps.TestScale()[0]
	col := causal.NewCollector(0)
	if _, err := apps.RunApp(app, cluster.Config{
		Procs: 4, Mode: panda.UserSpace, Seed: 1, Causal: col,
	}); err != nil {
		t.Fatal(err)
	}
	var reads, writes int
	for _, o := range col.Completed() {
		switch o.Kind {
		case "orca.read":
			reads++
		case "orca.write":
			writes++
		}
		d := o.Decompose()
		var sum int64
		for _, ns := range d {
			sum += ns
		}
		if sum != o.Latency() {
			t.Fatalf("op %d (%s): phases sum %dns != latency %dns", o.ID, o.Kind, sum, o.Latency())
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("app %s traced %d reads, %d writes; want both > 0", app.Name(), reads, writes)
	}
	if col.Live() != 0 {
		t.Errorf("%d orca operations never ended", col.Live())
	}
}
