package akernel_test

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"amoebasim/internal/akernel"
	"amoebasim/internal/ether"
	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// The kernel's totally-ordered group protocol is Panda's group core run
// in the kernel's interrupt handler; these tests drive it through that
// placement, panda.Kernel, with no cluster around it.

// kernelGID is the kernel group id of Panda group 0.
const kernelGID = "7"

type groupRig struct {
	sim     *sim.Sim
	net     *ether.Network
	reg     *metrics.Registry
	kernels []*akernel.Kernel
	trs     []*panda.Kernel
	// got lists, per kernel, the payloads delivered to it in order.
	got [][]any
}

// newGroupRig boots n kernels, processor i on segment i%segments, and
// runs kernel-space Panda on each for one group of the given members
// sequenced by kernel 0. Every member records what it delivers.
func newGroupRig(t testing.TB, n, segments int, seed uint64, members []int) *groupRig {
	t.Helper()
	s := sim.New()
	r := &groupRig{sim: s, reg: metrics.NewRegistry(), got: make([][]any, n)}
	s.SetMetrics(r.reg)
	m := model.Calibrated()
	r.net = ether.New(s, m, segments, seed)
	for i := 0; i < n; i++ {
		k, err := akernel.New(proc.New(s, m, i, "cpu"+strconv.Itoa(i)), r.net, i%segments)
		if err != nil {
			t.Fatal(err)
		}
		r.kernels = append(r.kernels, k)
	}
	t.Cleanup(func() {
		for _, k := range r.kernels {
			k.Processor().Shutdown()
		}
	})
	spec := []panda.GroupSpec{{Members: members, Sequencer: 0}}
	for i, k := range r.kernels {
		i := i
		w := panda.NewKernel(k, panda.KernelConfig{Groups: spec})
		w.HandleGroup(func(_ *proc.Thread, _ int, _ uint64, payload any, _ int) {
			r.got[i] = append(r.got[i], payload)
		})
		r.trs = append(r.trs, w)
	}
	return r
}

func (r *groupRig) send(i int, f func(th *proc.Thread, w *panda.Kernel)) {
	r.kernels[i].Processor().NewThread("send", proc.PrioNormal, func(th *proc.Thread) { f(th, r.trs[i]) })
}

// counter reads kernel i's group counter name from a snapshot.
func (r *groupRig) counter(i int, name string) int64 {
	want := []metrics.Label{metrics.L("gid", kernelGID), metrics.L("proc", "cpu"+strconv.Itoa(i))}
	for _, c := range r.reg.Snapshot().Counters {
		if c.Name == name && slices.Equal(c.Labels, want) {
			return c.Value
		}
	}
	panic(fmt.Sprintf("no counter %s of kernel %d", name, i))
}

func allMembers(n int) []int {
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return members
}

// checkTotalOrder fails unless every kernel delivered want messages in
// the order kernel 0 did, and each sender's in the order it sent them.
func (r *groupRig) checkTotalOrder(t *testing.T, want int) {
	t.Helper()
	for i, got := range r.got {
		if len(got) != want {
			t.Fatalf("member %d received %d, want %d", i, len(got), want)
		}
		last := map[int]int{}
		for j, v := range got {
			if v != r.got[0][j] {
				t.Fatalf("total order violated at %d: member %d saw %v, member 0 saw %v", j, i, got, r.got[0])
			}
			n := v.(int)
			if prev, ok := last[n/1000]; ok && n <= prev {
				t.Fatalf("per-sender FIFO violated at member %d: %d after %d", i, n, prev)
			}
			last[n/1000] = n
		}
	}
}

func TestGroupBasicTotalOrder(t *testing.T) {
	r := newGroupRig(t, 3, 1, 1, allMembers(3))
	const perSender = 10
	// Kernels 1 and 2 send concurrently.
	for s := 1; s <= 2; s++ {
		s := s
		r.send(s, func(th *proc.Thread, w *panda.Kernel) {
			for j := 0; j < perSender; j++ {
				if err := w.GroupSend(th, s*1000+j, 100); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	r.sim.Run()
	r.checkTotalOrder(t, 2*perSender)
}

func TestGroupSenderBlocksUntilOwnDelivery(t *testing.T) {
	r := newGroupRig(t, 2, 1, 1, allMembers(2))
	var sendDone sim.Time
	r.send(1, func(th *proc.Thread, w *panda.Kernel) {
		if err := w.GroupSend(th, "x", 10); err != nil {
			t.Error(err)
		}
		sendDone = r.sim.Now()
	})
	r.sim.Run()
	if sendDone == 0 || len(r.got[1]) != 1 {
		t.Fatalf("send done at %v, %d deliveries", sendDone, len(r.got[1]))
	}
	// The send completes only after the sequencer round trip: at least
	// two wire crossings.
	if sendDone < sim.Time(500*time.Microsecond) {
		t.Fatalf("send completed suspiciously fast: %v", sendDone)
	}
}

func TestGroupLargeMessageUsesBBMethod(t *testing.T) {
	r := newGroupRig(t, 3, 1, 1, allMembers(3))
	r.send(2, func(th *proc.Thread, w *panda.Kernel) {
		if err := w.GroupSend(th, "big", 8000); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	for i, got := range r.got {
		if len(got) != 1 || got[0] != "big" {
			t.Fatalf("member %d got %v", i, got)
		}
	}
	if bb, pb := r.counter(2, "akernel.grp_bb_sends"), r.counter(2, "akernel.grp_pb_sends"); bb != 1 || pb != 0 {
		t.Fatalf("sender made %d BB and %d PB sends, want 1 and 0", bb, pb)
	}
}

// lossySenders has kernels 1 to 3 of a 4-member group each send 8
// messages of 200 bytes with 10% of the frames lost, and returns the
// number of sends that failed.
func lossySenders(t *testing.T, r *groupRig) int {
	sendErrs := 0
	for s := 1; s <= 3; s++ {
		s := s
		r.send(s, func(th *proc.Thread, w *panda.Kernel) {
			for j := 0; j < 8; j++ {
				if err := w.GroupSend(th, s*1000+j, 200); err != nil {
					t.Logf("sender %d msg %d at %v: %v", s, j, r.sim.Now(), err)
					sendErrs++
					return
				}
			}
		})
	}
	return sendErrs
}

func TestGroupTotalOrderUnderLoss(t *testing.T) {
	r := newGroupRig(t, 4, 1, 1, allMembers(4))
	r.net.SetLossRate(0.10)
	errs := lossySenders(t, r)
	r.sim.Run()
	if r.net.Dropped() == 0 {
		t.Fatal("no packets dropped; loss test is vacuous")
	}
	if errs > 0 {
		t.Fatalf("%d senders gave up", errs)
	}
	r.checkTotalOrder(t, 24)
}

// TestGroupLossRecoveryBounded runs the loss scenario to a bounded
// horizon and reports where delivery stalls, to guard against protocol
// livelock.
func TestGroupLossRecoveryBounded(t *testing.T) {
	r := newGroupRig(t, 4, 1, 1, allMembers(4))
	r.net.SetLossRate(0.10)
	errs := lossySenders(t, r)
	r.sim.RunUntil(sim.Time(60 * time.Second))
	if errs > 0 {
		t.Fatalf("%d senders gave up; %d send retransmissions, %d events pending",
			errs, r.counter(1, "akernel.grp_send_retrans")+r.counter(2, "akernel.grp_send_retrans")+r.counter(3, "akernel.grp_send_retrans"), r.sim.Pending())
	}
	for i, got := range r.got {
		if len(got) != 24 {
			t.Errorf("member %d stalled at %d/24 (%d retransmission requests)", i, len(got), r.counter(i, "akernel.grp_retrans_requests"))
		}
	}
}

// TestGroupSingleSendHeavyLoss: one send with 40% of the frames lost
// completes, under 20 loss seeds.
func TestGroupSingleSendHeavyLoss(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := newGroupRig(t, 2, 1, seed, allMembers(2))
		r.net.SetLossRate(0.4)
		var sendErr error
		sent := false
		r.send(1, func(th *proc.Thread, w *panda.Kernel) {
			sendErr = w.GroupSend(th, "x", 100)
			sent = true
		})
		r.sim.RunUntil(sim.Time(30 * time.Second))
		if !sent || sendErr != nil {
			t.Fatalf("seed %d: sent=%v err=%v | sender retransmitted %d times, delivered %d | dropped=%d",
				seed, sent, sendErr, r.counter(1, "akernel.grp_send_retrans"), len(r.got[1]), r.net.Dropped())
		}
	}
}

func TestGroupHistoryTrimming(t *testing.T) {
	r := newGroupRig(t, 2, 1, 1, allMembers(2))
	const total = 300 // well past GroupHistory (128)
	r.send(1, func(th *proc.Thread, w *panda.Kernel) {
		for j := 0; j < total; j++ {
			if err := w.GroupSend(th, j, 50); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.sim.Run()
	hist := r.reg.Gauge("akernel.seq_history", metrics.L("proc", "cpu0"), metrics.L("gid", kernelGID))
	if hist.Max() > int64(2*model.Calibrated().GroupHistory) {
		t.Fatalf("history grew unboundedly: %d entries", hist.Max())
	}
	if len(r.got[0]) != total || len(r.got[1]) != total {
		t.Fatalf("delivered %d/%d, want %d", len(r.got[0]), len(r.got[1]), total)
	}
}

func TestGroupCrossSegment(t *testing.T) {
	r := newGroupRig(t, 4, 2, 1, allMembers(4)) // two segments, two kernels each
	r.send(3, func(th *proc.Thread, w *panda.Kernel) {
		if err := w.GroupSend(th, "cross", 100); err != nil {
			t.Error(err)
		}
	})
	r.sim.Run()
	for i, got := range r.got {
		if len(got) != 1 {
			t.Fatalf("member %d received %d", i, len(got))
		}
	}
}

// TestGroupErrorsForNonMember: a send fails on a group the instance does
// not hold, whether no spec names it or its members leave the kernel out.
func TestGroupErrorsForNonMember(t *testing.T) {
	r := newGroupRig(t, 2, 1, 1, []int{0})
	for i := range r.kernels {
		r.send(i, func(th *proc.Thread, w *panda.Kernel) {
			if err := w.GroupSendTo(th, 42, nil, 0); err == nil {
				t.Errorf("kernel %d: GroupSendTo on an unconfigured group should fail", w.ID())
			}
		})
	}
	r.send(1, func(th *proc.Thread, w *panda.Kernel) {
		if err := w.GroupSend(th, nil, 0); err == nil {
			t.Error("GroupSend from a kernel outside the group should fail")
		}
	})
	r.sim.Run()
}

// groupSendAllocs runs a kernel-space group of n members on one segment,
// with kernel 0 as sequencer and kernel 1 as the sender. Every member's
// group daemon blocks in grp_receive. It makes warm sends past seqno
// 256, so any boxed trace argument would allocate, then returns the
// objects one send allocates, delivery to every member included, averaged
// over 16 sends: one ack batch of every pure receiver.
func groupSendAllocs(t *testing.T, n int) float64 {
	r := newGroupRig(t, n, 1, 1, allMembers(n))
	var batchGo proc.Semaphore
	r.send(1, func(th *proc.Thread, w *panda.Kernel) {
		for {
			batchGo.Down(th)
			for i := 0; i < 16; i++ {
				if err := w.GroupSend(th, nil, 64); err != nil {
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
	for len(r.got[1]) < 320 {
		batch() // warm the pools and queues, past seqno 256
	}
	// Keep the delivery records already made out of the measurement.
	for i := range r.got {
		r.got[i] = make([]any, 0, 2*(320+21*16))
	}
	avg := testing.AllocsPerRun(20, batch) / 16
	if got := len(r.got[n-1]); got != 21*16 {
		t.Fatalf("member %d delivered %d messages, want %d", n-1, got, 21*16)
	}
	return avg
}

// fanoutBudget bounds what one more member adds to a warm group send, in
// objects. Delivery allocates nothing: each member reuses its receive
// waiter, hands the delivery over by value, finds its wire in its inbox,
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
	t.Logf("a warm group send allocates %.2f objects with 2 members and %.2f with 8", two, eight)
	if per := (eight - two) / 6; per > fanoutBudget {
		t.Fatalf("a warm group send allocates %.2f objects with 8 members and %.2f with 2: %.2f per extra member, budget is %.2f",
			eight, two, per, fanoutBudget)
	}
}

// configureBytesPerMember starts kernel-space Panda with one group of n
// members on n kernels and returns the bytes the set-up allocated per
// member.
func configureBytesPerMember(t *testing.T, n int) float64 {
	s := sim.New()
	m := model.Calibrated()
	net := ether.New(s, m, 1, 1)
	kernels := make([]*akernel.Kernel, n)
	for i := range kernels {
		k, err := akernel.New(proc.New(s, m, i, fmt.Sprintf("cpu%d", i)), net, 0)
		if err != nil {
			t.Fatal(err)
		}
		kernels[i] = k
	}
	t.Cleanup(func() {
		for _, k := range kernels {
			k.Processor().Shutdown()
		}
	})
	spec := []panda.GroupSpec{{Members: allMembers(n), Sequencer: 0}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range kernels {
		panda.NewKernel(k, panda.KernelConfig{Groups: spec})
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
	t.Logf("set-up allocates %.0f B per member of a 16-member group and %.0f B of a 256-member one", small, large)
	if large > small {
		t.Fatalf("kernel-space set-up allocates %.0f B per member of a 256-member group and %.0f B of a 16-member one: set-up grows with the group",
			large, small)
	}
}
