package ether

import (
	"testing"

	"amoebasim/internal/model"
	"amoebasim/internal/sim"
)

// benchSegment builds one segment with n silent receivers.
func benchSegment(tb testing.TB, nics int) (*sim.Sim, *Network) {
	tb.Helper()
	s := sim.New()
	n := New(s, model.Calibrated(), 1, 1)
	for i := 0; i < nics; i++ {
		if _, err := n.AddNIC(0, func(fr Frame) {}); err != nil {
			tb.Fatal(err)
		}
	}
	return s, n
}

// broadcastDeliveryBudget bounds the allocations of one broadcast
// delivered to a 32-station segment. Batched delivery walks every NIC
// from a single event, whose pooled record is recycled on the segment,
// so the cost is independent of the station count — not one scheduled
// event per NIC.
const broadcastDeliveryBudget = 0

// TestBroadcastBatchDeliveryBudget: delivering a broadcast frame to 32
// stations stays within the per-frame budget (pre-batching it cost one
// event allocation per station).
func TestBroadcastBatchDeliveryBudget(t *testing.T) {
	s, n := benchSegment(t, 32)
	send := func() {
		n.NIC(0).Send(Frame{Dst: Broadcast, Size: 128})
		s.Run()
	}
	send() // warm the event queue
	if avg := testing.AllocsPerRun(200, send); avg > broadcastDeliveryBudget {
		t.Fatalf("broadcast to 32 stations allocates %.2f objects/frame, budget is %d",
			avg, broadcastDeliveryBudget)
	}
}

// TestUnicastForwardZeroAlloc: a unicast frame switched to a station on
// another segment, and its reply, allocate nothing once the segments'
// record pools are warm — the forward and the delivery each reuse a
// pooled record, and the frame stays off the heap.
func TestUnicastForwardZeroAlloc(t *testing.T) {
	s := sim.New()
	n := New(s, model.Calibrated(), 2, 1)
	var a, b *NIC
	var err error
	if a, err = n.AddNIC(0, func(fr Frame) {}); err != nil {
		t.Fatal(err)
	}
	if b, err = n.AddNIC(1, func(fr Frame) {}); err != nil {
		t.Fatal(err)
	}
	payload := &struct{}{}
	exchange := func() {
		a.Send(Frame{Dst: b.ID(), Size: 128, Payload: payload})
		b.Send(Frame{Dst: a.ID(), Size: 64, Payload: payload})
		s.Run()
	}
	exchange() // warm the pools
	if avg := testing.AllocsPerRun(200, exchange); avg != 0 {
		t.Fatalf("unicast forward and reply allocate %.2f objects/exchange, budget is 0", avg)
	}
	if _, _, rx, _ := b.Stats(); rx != 202 {
		t.Fatalf("station b received %d frames, want 202", rx)
	}
}

// BenchmarkSegmentBatchDelivery measures one broadcast frame delivered
// to a 32-station segment end to end.
func BenchmarkSegmentBatchDelivery(b *testing.B) {
	s, n := benchSegment(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.NIC(0).Send(Frame{Dst: Broadcast, Size: 128})
		s.Run()
	}
}
