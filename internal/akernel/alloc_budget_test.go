package akernel

import (
	"testing"

	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
)

// TestRawReceiveMatchZeroAlloc: a warm RawReceiveMatch that blocks until
// its packet arrives reuses its waiter, so the receive path allocates
// nothing per packet.
func TestRawReceiveMatchZeroAlloc(t *testing.T) {
	r := newRig(t, 1, 1)
	k := r.kernels[0]
	k.RawRegister()
	var received int
	k.Processor().NewThread("daemon", proc.PrioDaemon, func(th *proc.Thread) {
		for {
			pk := k.RawReceiveMatch(th, nil)
			received++
			k.RawRelease(pk)
		}
	})
	r.sim.Run() // the daemon blocks
	// An unpooled packet: releasing it is a no-op, so it can be delivered
	// again and again.
	pk := &flip.Packet{Length: 64}
	deliver := func() {
		k.raw.onPacket(pk)
		r.sim.Run()
	}
	deliver() // warm the waiter list and free list
	if avg := testing.AllocsPerRun(200, deliver); avg != 0 {
		t.Fatalf("a blocking RawReceiveMatch allocates %.2f objects/packet, budget is 0", avg)
	}
	if received != 202 {
		t.Fatalf("daemon received %d packets, want 202", received)
	}
}
