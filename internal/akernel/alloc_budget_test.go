package akernel

import (
	"runtime"
	"testing"

	"amoebasim/internal/flip"
	"amoebasim/internal/proc"
)

// groupSendAllocs runs a kernel-space group of n members on one segment,
// with kernel 0 as sequencer and kernel 1 as the sender. Every member
// runs a receiver blocked in GrpReceive. It makes warm sends past seqno
// 256, so any boxed trace argument would allocate, then returns the
// objects one send allocates, delivery to every member included, averaged
// over 16 sends: one ack batch of every pure receiver.
func groupSendAllocs(t *testing.T, n int) float64 {
	r := newRig(t, n, 1)
	const gid GroupID = 1
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	for _, k := range r.kernels {
		if err := k.GroupConfigure(gid, members, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range r.kernels {
		k := k
		k.Processor().NewThread("recv", proc.PrioDaemon, func(th *proc.Thread) {
			for {
				if _, err := k.GrpReceive(th, gid); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	var batchGo proc.Semaphore
	sender := r.kernels[1]
	sender.Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
		for {
			batchGo.Down(th)
			for i := 0; i < 16; i++ {
				if err := sender.GrpSend(th, gid, nil, 64); err != nil {
					t.Error(err)
					return
				}
			}
		}
	})
	batch := func() {
		batchGo.UpFromDriver()
		r.sim.Run()
	}
	for sender.GrpDelivered(gid) < 320 {
		batch() // warm the pools and queues, past seqno 256
	}
	avg := testing.AllocsPerRun(20, batch) / 16
	if got := r.kernels[n-1].GrpDelivered(gid); got != 320+21*16 {
		t.Fatalf("member %d delivered up to seqno %d, want %d", n-1, got, 320+21*16)
	}
	return avg
}

// fanoutBudget bounds what one more member adds to a warm group send, in
// objects. Delivery allocates nothing: each member reuses its receive
// waiter, hands the Delivery over by value, finds its wire in its inbox,
// and boxes no argument for an untraced hook. What a member may add is
// its share of the watermark reports: a pure receiver sends a status wire
// per 16 deliveries, which travels in a packet and is not recycled, and
// the sequencer's watchdog probes the ones behind. Before the receive
// records were reused, each member cost at least 3 objects per send.
const fanoutBudget = 0.25

// TestGroupReceiveFanoutBudget: a warm kernel-space group send allocates
// the same with 8 members as with 2, but for the watermark reports.
func TestGroupReceiveFanoutBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	two, eight := groupSendAllocs(t, 2), groupSendAllocs(t, 8)
	if per := (eight - two) / 6; per > fanoutBudget {
		t.Fatalf("a warm group send allocates %.2f objects with 8 members and %.2f with 2: %.2f per extra member, budget is %.2f",
			eight, two, per, fanoutBudget)
	}
}

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

// configureBytesPerMember configures one group of n members on n kernels
// and returns the bytes GroupConfigure allocated per member.
func configureBytesPerMember(t *testing.T, n int) float64 {
	r := newRig(t, n, 1)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range r.kernels {
		if err := k.GroupConfigure(1, members, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestGroupConfigureBudget: the set-up a group costs each member does not
// grow with the group's size, because every member keeps the caller's
// member list instead of a copy of its own: 2048 copies of a 256-entry
// list were 4 MiB of a 256-processor cluster's set-up.
func TestGroupConfigureBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small, large := configureBytesPerMember(t, 16), configureBytesPerMember(t, 256)
	if large > small {
		t.Fatalf("GroupConfigure allocates %.0f B per member of a 256-member group and %.0f B of a 16-member one: set-up grows with the group",
			large, small)
	}
}
