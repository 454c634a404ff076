package bypass

import (
	"testing"
	"time"

	"amoebasim/internal/ether"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// TestReassemblerSingleFragmentZeroAlloc: the steady-state receive path —
// one frame per message, by far the common case at the paper's sizes —
// must not touch the partial-message pool or allocate at all.
func TestReassemblerSingleFragmentZeroAlloc(t *testing.T) {
	s := sim.New()
	r := newReassembler(s, 500*time.Millisecond)
	w := &bwire{kind: bgDATA, from: 1, size: 256}
	f := &bfrag{w: w, src: 1, msgID: 7, frag: 0, nfrags: 1, length: 256}
	avg := testing.AllocsPerRun(1000, func() {
		if !r.add(f) {
			t.Fatal("single-fragment message did not complete")
		}
	})
	if avg != 0 {
		t.Fatalf("single-fragment add allocates %.2f objects/op, budget is 0", avg)
	}
	if len(r.partial) != 0 {
		t.Fatalf("single-fragment messages left %d partials", len(r.partial))
	}
}

// TestSeqTrafficClassifierZeroAlloc: the NIC-side discard filter runs on
// every frame a dedicated sequencer machine receives; it must be free.
func TestSeqTrafficClassifierZeroAlloc(t *testing.T) {
	seq := &bfrag{w: &bwire{kind: bgREQ, gid: 3}}
	data := &bfrag{w: &bwire{kind: bgDATA, gid: 3}}
	avg := testing.AllocsPerRun(1000, func() {
		if gid, ok := seqTraffic(seq); !ok || gid != 3 {
			t.Fatal("sequencer-bound frame not classified")
		}
		if _, ok := seqTraffic(data); ok {
			t.Fatal("data frame misclassified as sequencer-bound")
		}
	})
	if avg != 0 {
		t.Fatalf("seqTraffic allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestBlockingReceiveZeroAlloc: a warm completion-queue consumer that
// blocks in receive until its fragment arrives reuses its waiter, so a
// polled pickup allocates nothing per fragment.
func TestBlockingReceiveZeroAlloc(t *testing.T) {
	s := sim.New()
	m := model.Calibrated()
	net := ether.New(s, m, 1, 1)
	p := proc.New(s, m, 0, "cpu0")
	t.Cleanup(p.Shutdown)
	e, err := New(p, net, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var received int
	e.HandleRaw(func(*proc.Thread, int, any, int) { received++ })
	s.Run() // the consumer blocks on the empty completion queue
	f := &bfrag{w: &bwire{kind: bRAW, from: 1, size: 64}, src: 1, dst: 0, msgID: 7, nfrags: 1, length: 64}
	deliver := func() {
		e.deliver(f)
		s.Run()
	}
	deliver() // warm the waiter list and free list
	if avg := testing.AllocsPerRun(200, deliver); avg != 0 {
		t.Fatalf("a blocking receive allocates %.2f objects/fragment, budget is 0", avg)
	}
	if received != 202 {
		t.Fatalf("consumer picked up %d fragments, want 202", received)
	}
}
