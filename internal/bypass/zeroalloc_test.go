package bypass

import (
	"testing"
	"time"

	"amoebasim/internal/ether"
	"amoebasim/internal/flip"
	"amoebasim/internal/model"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// TestReassemblerSingleFragmentZeroAlloc: the steady-state receive path —
// one frame per message, by far the common case at the paper's sizes —
// must not touch the partial-message pool or allocate at all.
func TestReassemblerSingleFragmentZeroAlloc(t *testing.T) {
	s := sim.New()
	r := flip.NewReassembler(s, 500*time.Millisecond)
	w := &panda.Wire{Kind: panda.WireGrpDATA, From: 1, Size: 256}
	f := &bfrag{w: w, src: 1, msgID: 7, frag: 0, nfrags: 1, length: 256}
	avg := testing.AllocsPerRun(1000, func() {
		if !reassemble(r, f) {
			t.Fatal("single-fragment message did not complete")
		}
	})
	if avg != 0 {
		t.Fatalf("single-fragment add allocates %.2f objects/op, budget is 0", avg)
	}
	if r.Pending() != 0 {
		t.Fatalf("single-fragment messages left %d partials", r.Pending())
	}
}

// TestSeqTrafficClassifierZeroAlloc: the NIC-side discard filter runs on
// every frame a dedicated sequencer machine receives. It must keep the
// sequencer traffic of the groups the machine sequences, drop the rest,
// and be free. A member endpoint installs none.
func TestSeqTrafficClassifierZeroAlloc(t *testing.T) {
	s := sim.New()
	m := model.Calibrated()
	net := ether.New(s, m, 1, 1)
	spec := panda.GroupSpec{GID: 3, Members: []int{0}, Sequencer: 1}
	var eps [2]*Endpoint
	for i := range eps {
		p := proc.New(s, m, i, "cpu")
		t.Cleanup(p.Shutdown)
		e, err := New(p, net, 0, Config{Groups: []panda.GroupSpec{spec}})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = e
	}
	if eps[0].discard != nil {
		t.Fatal("a member endpoint installed a discard filter")
	}
	drop := eps[1].discard
	if drop == nil {
		t.Fatal("the dedicated sequencer machine installed no discard filter")
	}
	seq := &panda.Wire{Kind: panda.WireGrpREQ, GID: 3}
	foreign := &panda.Wire{Kind: panda.WireGrpREQ, GID: 4}
	data := &panda.Wire{Kind: panda.WireGrpDATA, GID: 3}
	avg := testing.AllocsPerRun(1000, func() {
		if drop(seq) {
			t.Fatal("sequencer-bound frame dropped")
		}
		if !drop(foreign) {
			t.Fatal("another group's sequencer frame kept")
		}
		if !drop(data) {
			t.Fatal("data frame kept")
		}
	})
	if avg != 0 {
		t.Fatalf("the discard filter allocates %.2f objects/op, budget is 0", avg)
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
	f := &bfrag{w: &panda.Wire{Kind: panda.WireRAW, From: 1, Size: 64}, src: 1, dst: 0, msgID: 7, nfrags: 1, length: 64}
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

// TestMultiFragmentReassemblyBudget: a warm consumer reassembles a
// three-fragment message without allocating. The reassembler recycles
// each message's state and bitset (bypass's own copy made a map and a
// state per message).
func TestMultiFragmentReassemblyBudget(t *testing.T) {
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
	s.Run()
	w := &panda.Wire{Kind: panda.WireRAW, From: 1, Size: 3000}
	var frags [3]bfrag
	var msgID uint64
	deliver := func() {
		msgID++
		for i := range frags {
			frags[i] = bfrag{w: w, src: 1, dst: 0, msgID: msgID, frag: i, nfrags: len(frags), length: 1000}
			e.deliver(&frags[i])
			s.Run()
		}
	}
	deliver() // warm the reassembler's state pool
	if avg := testing.AllocsPerRun(200, deliver); avg != 0 {
		t.Fatalf("a warm three-fragment reassembly allocates %.2f objects/message, budget is 0", avg)
	}
	if received != 202 {
		t.Fatalf("consumer completed %d messages, want 202", received)
	}
}
