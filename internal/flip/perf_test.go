package flip

import (
	"runtime"
	"testing"
	"time"

	"amoebasim/internal/ether"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ---- Bounded pending-locate queue ----

// TestPendingLocateQueueBounded: the per-address pending queue holds at
// most MaxPendingLocate messages; overflow evicts the oldest message
// deterministically and counts it as dropped.
func TestPendingLocateQueueBounded(t *testing.T) {
	r := newRig(t, 2)
	const addr Address = 777 // never registered: the locate stays pending
	st := r.stacks[0]
	const extra = 5
	firstID := st.msgSeq + 1
	for i := 0; i < MaxPendingLocate+extra; i++ {
		st.SendFromInterrupt(Message{
			Src: 1, Dst: addr, Proto: ProtoSystem,
			MsgID: st.NextMsgID(), Size: 10,
		})
	}
	// Long enough for every send to reach the queue, short enough that
	// the locate has not yet given up.
	r.sim.RunUntil(sim.Time(2 * time.Millisecond))
	q := st.pending[addr]
	if len(q) != MaxPendingLocate {
		t.Fatalf("pending queue holds %d messages, cap is %d", len(q), MaxPendingLocate)
	}
	if st.DroppedPending != extra {
		t.Fatalf("DroppedPending = %d, want %d", st.DroppedPending, extra)
	}
	// Oldest-drop: the survivors are exactly the newest MaxPendingLocate.
	if want := firstID + extra; q[0].MsgID != want {
		t.Fatalf("oldest surviving MsgID = %d, want %d (oldest-drop order)", q[0].MsgID, want)
	}
	// The failed locate still cleans up everything it queued.
	r.sim.Run()
	if len(st.pending) != 0 {
		t.Fatal("pending queue not cleaned up after locate failure")
	}
}

// ---- Zero-alloc budgets (enforced in CI) ----

// TestPacketPoolZeroAlloc: the allocate/release cycle of a pooled packet
// is allocation-free in steady state.
func TestPacketPoolZeroAlloc(t *testing.T) {
	r := newRig(t, 1)
	st := r.stacks[0]
	cycle := func() {
		pk := st.allocPacket()
		pk.poolable = true
		pk.refs = 1
		st.ReleasePacket(pk)
	}
	cycle() // mint the pooled packet
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("packet pool cycle allocates %.2f objects/op, budget is 0", avg)
	}
}

// TestReassemblerStateReuseZeroAlloc: completing a multi-fragment
// message recycles its bitset state, so a steady stream of reassemblies
// allocates nothing.
func TestReassemblerStateReuseZeroAlloc(t *testing.T) {
	s := sim.New()
	re := NewReassembler(s, time.Hour)
	pks := [3]*Packet{}
	for i := range pks {
		pks[i] = &Packet{Src: 1, MsgID: 1, Frag: i, NFrags: 3}
	}
	feed := func() {
		for _, pk := range pks {
			re.Add(pk)
		}
	}
	feed() // mint the pooled state
	if avg := testing.AllocsPerRun(1000, feed); avg != 0 {
		t.Fatalf("reassembly steady state allocates %.2f objects/msg, budget is 0", avg)
	}
}

// unicastSteadyStateBudget is the allocation budget for one complete
// warm-routed unicast send+receive, at its measured value. The ether
// hops, the interrupt items, the queued transmit and the receive are
// allocation-free, and so is the packet: the sender and the receiver
// share their simulator's free list, so the receiver's release hands
// the packet back to the sender.
const unicastSteadyStateBudget = 0

// TestUnicastSteadyStateBudget: a warm-routed single-fragment unicast
// from send to delivered handler stays within the allocation budget —
// pooled delivery records, bound callbacks and the receive FIFO leave no
// per-message event garbage.
func TestUnicastSteadyStateBudget(t *testing.T) {
	r := newRig(t, 2)
	const addr Address = 9
	r.stacks[1].Register(addr)
	r.stacks[1].Handle(ProtoSystem, func(pk *Packet) {})
	WarmRoutes(r.stacks)
	send := func() {
		r.stacks[0].SendFromInterrupt(Message{
			Src: 1, Dst: addr, Proto: ProtoSystem,
			MsgID: r.stacks[0].NextMsgID(), Size: 128,
		})
		r.sim.Run()
	}
	send() // warm pools and queues
	if avg := testing.AllocsPerRun(200, send); avg > unicastSteadyStateBudget {
		t.Fatalf("warm unicast allocates %.2f objects/msg, budget is %d",
			avg, unicastSteadyStateBudget)
	}
}

// TestOneWayStreamPoolBudget: a one-way unicast stream returns each
// packet to the free list the two stacks share, which holds at most
// maxPooledPackets.
func TestOneWayStreamPoolBudget(t *testing.T) {
	r := newRig(t, 2)
	const addr Address = 9
	r.stacks[1].Register(addr)
	r.stacks[1].Handle(ProtoSystem, func(pk *Packet) {})
	WarmRoutes(r.stacks)
	for i := 0; i < 10+1001; i++ { // 10 to warm up
		r.stacks[0].SendFromInterrupt(Message{
			Src: 1, Dst: addr, Proto: ProtoSystem,
			MsgID: r.stacks[0].NextMsgID(), Size: 128,
		})
		r.sim.Run()
	}
	if r.stacks[0].pool != r.stacks[1].pool {
		t.Fatal("two stacks on one simulator keep separate packet free lists")
	}
	if n := len(r.stacks[1].pool.free); n > maxPooledPackets {
		t.Fatalf("the shared list pools %d packets after 1011 one-way messages, cap is %d", n, maxPooledPackets)
	}
	if r.stacks[1].RecvPackets != 1011 {
		t.Fatalf("receiver got %d packets, want 1011", r.stacks[1].RecvPackets)
	}
}

// TestPacketPoolPerSimulator: under partitioned execution the stacks of
// one partition share a packet free list and never touch another
// partition's.
func TestPacketPoolPerSimulator(t *testing.T) {
	m := model.Calibrated()
	a, b := sim.New(), sim.New()
	net := ether.New(a, m, 2, 1)
	net.Partition([]*sim.Sim{a, b}, nil)
	var stacks []*Stack
	for i, s := range []*sim.Sim{a, a, b} {
		p := proc.New(s, m, i, "cpu")
		t.Cleanup(p.Shutdown)
		st, err := NewStack(p, net, i/2)
		if err != nil {
			t.Fatal(err)
		}
		stacks = append(stacks, st)
	}
	if stacks[0].pool != stacks[1].pool {
		t.Fatal("two stacks of one partition keep separate packet free lists")
	}
	if stacks[0].pool == stacks[2].pool {
		t.Fatal("stacks of two partitions share a packet free list")
	}
}

// warmPool builds n stacks with two registered addresses each, the shape
// of a 1000-processor pool: every kernel has its RPC reply address and
// one service port.
func warmPool(tb testing.TB, n int) []*Stack {
	r := newRig(tb, n)
	for i, st := range r.stacks {
		st.Register(Address(2*i + 1))
		st.Register(Address(2*i + 2))
	}
	return r.stacks
}

// rewarm runs WarmRoutes on stacks as if for the first time: it drops
// the directory an earlier call installed, so the measurement never
// includes the fold a repeated call makes.
func rewarm(stacks []*Stack) {
	for _, st := range stacks {
		st.dir = nil
	}
	WarmRoutes(stacks)
}

// Route warm-up budgets for 1000 stacks with two addresses each. The
// shared directory is one map of 2000 entries: 10 objects (its tables)
// and 73 B per stack measured with Go 1.24's maps, which Go 1.22's
// bucketed maps stay under. The all-pairs warm-up it replaced wrote 2M
// entries into 1000 maps, about 148 KB per stack.
const (
	warmRoutesAllocBudget         = 10
	warmRoutesBytesPerStackBudget = 96
)

// TestWarmRoutesBudget: warming 1000 stacks allocates O(N) bytes in a
// few objects and leaves every stack's own route map empty.
func TestWarmRoutesBudget(t *testing.T) {
	const n = 1000
	stacks := warmPool(t, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rewarm(stacks)
	runtime.ReadMemStats(&after)
	if perStack := (after.TotalAlloc - before.TotalAlloc) / n; perStack > warmRoutesBytesPerStackBudget {
		t.Fatalf("WarmRoutes allocates %d B/stack over %d stacks, budget is %d",
			perStack, n, warmRoutesBytesPerStackBudget)
	}
	if avg := testing.AllocsPerRun(20, func() { rewarm(stacks) }); avg > warmRoutesAllocBudget {
		t.Fatalf("WarmRoutes allocates %.0f objects over %d stacks, budget is %d",
			avg, n, warmRoutesAllocBudget)
	}
	for i, st := range stacks {
		if len(st.routes) != 0 {
			t.Fatalf("stack %d holds %d routes of its own after WarmRoutes, want 0", i, len(st.routes))
		}
		if _, ok := st.route(Address(1)); ok != (i != 0) {
			t.Fatalf("stack %d: route to address 1 present = %v", i, ok)
		}
	}
}

// ---- Micro-benchmarks ----

// BenchmarkWarmRoutes measures the route warm-up of a 1000-stack pool
// with two addresses per stack.
func BenchmarkWarmRoutes(b *testing.B) {
	stacks := warmPool(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewarm(stacks)
	}
}

// BenchmarkPacketPool measures the pooled packet allocate/release cycle.
func BenchmarkPacketPool(b *testing.B) {
	r := newRig(b, 1)
	st := r.stacks[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk := st.allocPacket()
		pk.poolable = true
		pk.refs = 1
		st.ReleasePacket(pk)
	}
}

// BenchmarkUnicastSteadyState measures one warm-routed unicast message
// end to end (send, wire, receive interrupt, dispatch, recycle).
func BenchmarkUnicastSteadyState(b *testing.B) {
	r := newRig(b, 2)
	const addr Address = 9
	r.stacks[1].Register(addr)
	r.stacks[1].Handle(ProtoSystem, func(pk *Packet) {})
	WarmRoutes(r.stacks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.stacks[0].SendFromInterrupt(Message{
			Src: 1, Dst: addr, Proto: ProtoSystem,
			MsgID: r.stacks[0].NextMsgID(), Size: 128,
		})
		r.sim.Run()
	}
}
