package panda

import (
	"testing"
	"time"

	"amoebasim/internal/akernel"
	"amoebasim/internal/ether"
	"amoebasim/internal/flip"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// buildGroup assembles a small rig of n processors on one segment, in
// kernel space or user space, with one group of them all sequenced by
// processor 0, without importing the cluster package (white-box tests
// live in package panda).
func buildGroup(t *testing.T, mode Mode, n int) (*sim.Sim, *ether.Network, []Transport) {
	t.Helper()
	s := sim.New()
	m := model.Calibrated()
	net := ether.New(s, m, 1, 1)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	specs := []GroupSpec{{Members: members}}
	var trs []Transport
	for i := 0; i < n; i++ {
		p := proc.New(s, m, i, "cpu")
		k, err := akernel.New(p, net, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Shutdown)
		if mode == KernelSpace {
			trs = append(trs, NewKernel(k, KernelConfig{Groups: specs}))
		} else {
			trs = append(trs, NewUser(k, UserConfig{Groups: specs}))
		}
	}
	return s, net, trs
}

// groupOf returns instance tr's state of group 0, and its processor.
func groupOf(tr Transport) (*group, *proc.Processor) {
	if w, ok := tr.(*Kernel); ok {
		return w.grp.byGID(0), w.p
	}
	u := tr.(*User)
	return u.byGID(0), u.p
}

// TestWhiteboxBBFlow bounds the BB (large message) flow and dumps state if
// it stalls, guarding against sequencing livelock.
func TestWhiteboxBBFlow(t *testing.T) {
	for _, mode := range []Mode{KernelSpace, UserSpace} {
		t.Run(mode.String(), func(t *testing.T) {
			s, _, trs := buildGroup(t, mode, 3)
			got := make([]int, 3)
			for i, tr := range trs {
				i := i
				tr.HandleGroup(func(th *proc.Thread, sender int, seqno uint64, payload any, size int) {
					got[i]++
				})
			}
			sendErr := error(nil)
			sent := 0
			_, p1 := groupOf(trs[1])
			p1.NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
				for j := 0; j < 3; j++ {
					if err := trs[1].GroupSend(th, j, 8000); err != nil {
						sendErr = err
						return
					}
					sent++
				}
			})
			for i := 0; i < 3_000_000 && s.Pending() > 0 && s.Now() < sim.Time(2*time.Second); i++ {
				s.Step()
			}
			t.Logf("stopped at %v after %d events, pending %d", s.Now(), s.EventsRun(), s.Pending())
			if sendErr != nil || sent != 3 || got[0] != 3 || got[1] != 3 || got[2] != 3 {
				grp := func(i int) *group { g, _ := groupOf(trs[i]); return g }
				sq := grp(0).seq
				acked := make([]uint64, len(sq.acks))
				for i, a := range sq.acks {
					acked[i] = a.acked
				}
				t.Fatalf("stall: sent=%d err=%v got=%v | seq: seqno=%d hist=%d acked=%v | members nextDeliver=%d,%d,%d holdback=%d,%d,%d bbData=%d,%d,%d bbAccept=%d,%d,%d pending=%d",
					sent, sendErr, got, sq.seqno, len(sq.hist)-sq.lo, acked,
					grp(0).nextDeliver, grp(1).nextDeliver, grp(2).nextDeliver,
					len(grp(0).holdback), len(grp(1).holdback), len(grp(2).holdback),
					len(grp(0).bbData), len(grp(1).bbData), len(grp(2).bbData),
					len(grp(0).bbAccept), len(grp(1).bbAccept), len(grp(2).bbAccept),
					s.Pending())
			}
		})
	}
}

// dropFirstAccept drops the first BB accept frame delivered to NIC dst.
type dropFirstAccept struct {
	dst     int
	dropped int
}

func (*dropFirstAccept) ForwardCut(sim.Time, int, int) bool { return false }

func (h *dropFirstAccept) FrameFate(_ sim.Time, fr ether.Frame, dst int) ether.Fate {
	pk, ok := fr.Payload.(*flip.Packet)
	if !ok || dst != h.dst || h.dropped > 0 {
		return ether.Fate{}
	}
	if w, ok := pk.Payload.(*Wire); ok && w.Kind == WireGrpACCEPT {
		h.dropped++
		return ether.Fate{Drop: true}
	}
	return ether.Fate{}
}

// TestGroupBBRetransmissionLeavesNoState: a BB accept to one member is
// lost, in kernel space and in user space. When that member is the
// sender, it retransmits its data and the sequencer answers with the
// accept again; any other member gets the message from the sequencer's
// history. Every member has delivered the message once the run is quiet,
// and none keeps a half pair of it: the retransmitted data and the
// repeated accept pair up and leave at once, an accept for a delivered
// seqno is dropped, and a delivery drops what is left of its pair.
func TestGroupBBRetransmissionLeavesNoState(t *testing.T) {
	for _, tc := range []struct {
		name string
		dst  int
	}{{"sender", 1}, {"receiver", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range []Mode{KernelSpace, UserSpace} {
				t.Run(mode.String(), func(t *testing.T) {
					s, net, trs := buildGroup(t, mode, 3)
					hook := &dropFirstAccept{dst: tc.dst}
					net.SetFaultHook(hook)
					got := make([]int, 3)
					for i, tr := range trs {
						i := i
						tr.HandleGroup(func(*proc.Thread, int, uint64, any, int) { got[i]++ })
					}
					var sendErr error
					sent := false
					_, p1 := groupOf(trs[1])
					p1.NewThread("send", proc.PrioNormal, func(th *proc.Thread) {
						sendErr = trs[1].GroupSend(th, "big", 8000)
						sent = true
					})
					s.Run()
					if hook.dropped != 1 {
						t.Fatalf("dropped %d accepts, want 1", hook.dropped)
					}
					if !sent || sendErr != nil {
						t.Fatalf("send returned %v, err %v", sent, sendErr)
					}
					for i, tr := range trs {
						g, _ := groupOf(tr)
						if got[i] != 1 {
							t.Errorf("member %d delivered %d messages, want 1", i, got[i])
						}
						if len(g.bbData) != 0 || len(g.bbAccept) != 0 {
							t.Errorf("member %d keeps %d BB data and %d accepts after the run", i, len(g.bbData), len(g.bbAccept))
						}
					}
				})
			}
		})
	}
}
