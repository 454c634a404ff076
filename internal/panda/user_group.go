package panda

import (
	"errors"

	"amoebasim/internal/akernel"
	"amoebasim/internal/flip"
	"amoebasim/internal/metrics"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrGroupSendFailed is returned when group-send retransmissions are
// exhausted.
var ErrGroupSendFailed = errors.New("panda: group send failed after retries")

const (
	grpMaxRetries = 16
	// nbWindow bounds outstanding nonblocking broadcasts per sender (the
	// §6 extension); senders exceeding it block until deliveries drain.
	nbWindow = 32
)

type gkey struct {
	from  int
	tmpID uint64
}

type gsend struct {
	g       *userGroup
	t       *proc.Thread // nil for nonblocking sends
	tmpID   uint64
	msgID   uint64
	op      uint64
	wire    *uwire
	big     bool
	timer   sim.Event
	armedAt sim.Time
	retries int
	err     error
	done    bool

	fire func() // sendTimeout, bound to the record
}

// userGroup is Panda's user-space totally-ordered group protocol: a
// sequencer thread orders messages (PB method: point-to-point to the
// sequencer which re-multicasts; BB method for large messages: the sender
// multicasts the data and the sequencer multicasts a short accept). The
// member side runs in the receive daemon. An instance holds one userGroup
// per group it participates in; each group has its own sequencer and an
// independent sequence space.
type userGroup struct {
	u       *User
	gid     int
	spec    GroupSpec
	addr    flip.Address // this group's FLIP multicast address
	kind    string       // causal operation kind ("group", or per-shard label)
	handler GroupHandler

	// Member state.
	nextDeliver uint64
	holdback    map[uint64]*uwire
	bbData      map[gkey]*uwire
	bbAccept    map[gkey]*uwire
	sends       map[uint64]*gsend
	tmpSeq      uint64
	retrArmed   bool
	amMember    bool // cached membership test (hot on every delivery)
	sinceAck    int  // deliveries since the last watermark report

	// Nonblocking-send flow control.
	outstandingNB int
	nbWaiters     []*proc.Thread

	// Sequencer state (only on the sequencer's instance).
	seqReasm   *flip.Reassembler
	seqno      uint64
	history    map[uint64]*uwire
	seen       map[gkey]uint64
	acked      map[int]uint64
	lastStatus map[int]uint64 // ack seen at the previous status probe
	watchdog   sim.Event
	watchdogFn func()         // watchdogTick, bound once
	seqHistory *metrics.Gauge // nil when metrics are disabled
}

func (g *userGroup) init(u *User, spec GroupSpec) {
	g.u = u
	g.gid = spec.GID
	g.spec = spec
	g.addr = groupAddr(spec.GID)
	g.kind = spec.CausalKind
	if g.kind == "" {
		g.kind = "group"
	}
	g.nextDeliver = 1
	g.holdback = make(map[uint64]*uwire)
	g.bbData = make(map[gkey]*uwire)
	g.bbAccept = make(map[gkey]*uwire)
	g.sends = make(map[uint64]*gsend)
	for _, id := range spec.Members {
		if id == u.id {
			g.amMember = true
		}
	}
}

func (g *userGroup) isMember() bool { return g.amMember }

func (g *userGroup) initSequencer() {
	g.seqReasm = flip.NewReassembler(g.u.sim, g.u.m.RetransTimeout)
	g.history = make(map[uint64]*uwire)
	g.seen = make(map[gkey]uint64)
	g.acked = make(map[int]uint64)
	g.lastStatus = make(map[int]uint64)
	g.watchdogFn = g.watchdogTick
}

// newSend takes a send record from the instance's pool, or mints one.
func (g *userGroup) newSend() *gsend {
	var ss *gsend
	if n := len(g.u.grpSends); n > 0 {
		ss = g.u.grpSends[n-1]
		g.u.grpSends = g.u.grpSends[:n-1]
	} else {
		ss = &gsend{}
		ss.fire = func() { ss.g.sendTimeout(ss) }
	}
	ss.g = g
	return ss
}

// freeSend returns a record whose send is over to the pool. Its timer is
// off; a retransmission still queued on the helper thread checks the
// record's group and tmpID before it acts.
func (g *userGroup) freeSend(ss *gsend) {
	*ss = gsend{fire: ss.fire}
	g.u.grpSends = append(g.u.grpSends, ss)
}

// GroupSend implements Transport.GroupSend: broadcast on the default
// group with total order, blocking until the sender's own message is
// delivered back.
func (u *User) GroupSend(t *proc.Thread, payload any, size int) error {
	return u.GroupSendTo(t, 0, payload, size)
}

// GroupSendTo broadcasts on a specific group (total order within the
// group; independent sequence spaces across groups).
func (u *User) GroupSendTo(t *proc.Thread, group int, payload any, size int) error {
	g := u.groupByGID(group)
	if g == nil {
		return errors.New("panda: group communication not configured")
	}
	return g.send(t, payload, size, true)
}

// GroupSendNB is the §6 extension: a totally-ordered broadcast that does
// not wait for the sequencer round trip.
func (u *User) GroupSendNB(t *proc.Thread, payload any, size int) error {
	g := u.groupByGID(0)
	if g == nil {
		return errors.New("panda: group communication not configured")
	}
	return g.send(t, payload, size, false)
}

func (g *userGroup) send(t *proc.Thread, payload any, size int, blocking bool) error {
	u := g.u
	if !blocking {
		for g.outstandingNB >= nbWindow {
			g.nbWaiters = append(g.nbWaiters, t)
			t.Block()
		}
		g.outstandingNB++
	}
	g.tmpSeq++
	big := size > u.m.BBThreshold
	kind := ugREQ
	if big {
		kind = ugBB
	}
	op := t.Op()
	topLevel := op == 0 && blocking
	if topLevel {
		op = u.sim.CausalBegin(g.kind)
		t.SetOp(op)
	}
	w := &uwire{
		kind: kind, gid: g.gid, from: u.id, tmpID: g.tmpSeq,
		ackSeq: g.nextDeliver - 1, payload: payload, size: size,
	}
	// The request piggybacks this member's watermark: an active sender
	// needs no spontaneous acks (they would tax broadcast-heavy phases
	// with pure overhead).
	g.sinceAck = 0
	ss := g.newSend()
	ss.tmpID, ss.msgID, ss.op, ss.wire, ss.big = g.tmpSeq, u.k.RawNextMsgID(), op, w, big
	if blocking {
		ss.t = t
	}
	g.sends[ss.tmpID] = ss

	if u.mx != nil {
		if big {
			u.mx.grpBBSends.Inc()
		} else {
			u.mx.grpPBSends.Inc()
		}
	}
	if op != 0 && blocking && u.sim.Tracing() {
		u.sim.SpanBeginWith(op, u.p.Name(), "pgrp.send", "tmp=%d size=%d", ss.tmpID, size)
	}
	t.Call(pandaDepth)
	t.ChargeP(sim.PhaseProtoSend, u.m.ProtoGroup)
	t.ChargeP(sim.PhaseFrag, u.m.FragLayer)
	if big {
		g.bbData[gkey{from: u.id, tmpID: ss.tmpID}] = w
		u.k.RawSend(t, g.addr, ss.msgID, u.m.GroupHeaderUser, size, w, true)
	} else {
		u.k.RawSend(t, akernel.RawAddress(g.spec.Sequencer), ss.msgID, u.m.GroupHeaderUser, size, w, false)
	}
	t.Return(pandaDepth)
	ss.timer = u.sim.Schedule(u.m.RetransTimeout, ss.fire)
	ss.armedAt = u.sim.Now()

	if !blocking {
		return nil
	}
	t.Block()
	tmpID, err := ss.tmpID, ss.err
	g.freeSend(ss)
	if op != 0 && u.sim.Tracing() {
		u.sim.SpanEnd(op, u.p.Name(), "pgrp.send", "tmp=%d err=%v", tmpID, err)
	}
	if topLevel {
		u.sim.CausalEnd(op, err != nil)
		t.SetOp(0)
	}
	return err
}

func (g *userGroup) sendTimeout(ss *gsend) {
	if ss.done {
		return
	}
	// The armed window elapsed without delivery: retransmission idle.
	g.u.sim.CausalSpan(ss.op, sim.PhaseRetrans, ss.armedAt, g.u.sim.Now())
	ss.retries++
	if ss.retries > grpMaxRetries {
		ss.err = ErrGroupSendFailed
		ss.done = true
		delete(g.sends, ss.tmpID)
		if ss.t != nil {
			ss.t.Unblock()
		} else {
			g.freeSend(ss)
			g.nbDone(nil)
		}
		return
	}
	u := g.u
	if u.mx != nil {
		u.mx.grpSendRetrans.Inc()
	}
	tmpID := ss.tmpID
	u.helper.post(func(ht *proc.Thread) {
		// The record is pooled: a later send may have taken it.
		if ss.done || ss.g != g || ss.tmpID != tmpID {
			return
		}
		ht.SetOp(ss.op)
		ht.Call(pandaDepth)
		ht.ChargeP(sim.PhaseProtoSend, u.m.ProtoGroup)
		ht.ChargeP(sim.PhaseFrag, u.m.FragLayer)
		if ss.big {
			u.k.RawSend(ht, g.addr, ss.msgID, u.m.GroupHeaderUser, ss.wire.size, ss.wire, true)
		} else {
			u.k.RawSend(ht, akernel.RawAddress(g.spec.Sequencer), ss.msgID, u.m.GroupHeaderUser, ss.wire.size, ss.wire, false)
		}
		ht.Return(pandaDepth)
		ht.SetOp(0)
	})
	ss.timer = u.sim.Schedule(u.m.RetransTimeout, ss.fire)
	ss.armedAt = u.sim.Now()
}

// nbDone retires one nonblocking send and admits a blocked sender. t may
// be nil when called from a timer give-up path.
func (g *userGroup) nbDone(t *proc.Thread) {
	g.outstandingNB--
	if len(g.nbWaiters) == 0 {
		return
	}
	w := g.nbWaiters[0]
	g.nbWaiters = g.nbWaiters[0:copy(g.nbWaiters, g.nbWaiters[1:])]
	if t != nil {
		t.Flush()
	}
	w.Unblock()
}

// ---- Member side (receive daemon context) ----

func (g *userGroup) memberHandle(t *proc.Thread, w *uwire) {
	u := g.u
	t.ChargeP(sim.PhaseProtoRecv, u.m.ProtoGroup)
	switch w.kind {
	case ugDATA:
		g.onData(t, w)
	case ugACCEPT:
		key := gkey{from: w.from, tmpID: w.tmpID}
		g.bbAccept[key] = w
		g.tryCompleteBB(t, key)
	case ugBB:
		key := gkey{from: w.from, tmpID: w.tmpID}
		g.bbData[key] = w
		g.tryCompleteBB(t, key)
	case ugSYNC:
		if g.isMember() {
			g.sinceAck = 0
			w := &uwire{kind: ugSTATUS, gid: g.gid, from: u.id, ackSeq: g.nextDeliver - 1}
			u.k.RawSend(t, akernel.RawAddress(g.spec.Sequencer), u.k.RawNextMsgID(),
				u.m.GroupHeaderUser, 0, w, false)
		}
	}
}

func (g *userGroup) tryCompleteBB(t *proc.Thread, key gkey) {
	acc := g.bbAccept[key]
	data := g.bbData[key]
	if acc == nil || data == nil {
		return
	}
	g.onData(t, &uwire{
		kind: ugDATA, gid: g.gid, from: data.from, seq: acc.seq, tmpID: data.tmpID,
		payload: data.payload, size: data.size,
	})
}

func (g *userGroup) onData(t *proc.Thread, w *uwire) {
	switch {
	case w.seq < g.nextDeliver:
		return // duplicate
	case w.seq > g.nextDeliver:
		g.holdback[w.seq] = w
		g.requestRetrans(t, w.seq)
		return
	}
	g.deliver(t, w)
	for {
		next := g.holdback[g.nextDeliver]
		if next == nil {
			break
		}
		delete(g.holdback, g.nextDeliver)
		g.deliver(t, next)
	}
}

func (g *userGroup) deliver(t *proc.Thread, w *uwire) {
	u := g.u
	if u.sim.Tracing() {
		u.sim.Trace(u.p.Name(), "pgrp.dlv", "seqno=%d sender=%d", w.seq, w.from)
	}
	if u.mx != nil {
		u.mx.grpDeliveries.Inc()
	}
	g.nextDeliver = w.seq + 1
	key := gkey{from: w.from, tmpID: w.tmpID}
	delete(g.bbData, key)
	delete(g.bbAccept, key)
	if g.isMember() && g.handler != nil {
		g.handler(t, w.from, w.seq, w.payload, w.size)
	}
	if w.from != u.id {
		g.maybeAck(t)
		return
	}
	// Own broadcast delivered: an active sender piggybacks its watermark
	// on every request, so it never acks spontaneously.
	g.sinceAck = 0
	ss := g.sends[w.tmpID]
	if ss == nil || ss.done {
		return
	}
	ss.done = true
	u.sim.Cancel(ss.timer)
	delete(g.sends, w.tmpID)
	if ss.t != nil {
		// Wake the blocked sender: a system call through the kernel (the
		// paper's 40 µs of crossing + underflow traps at the sender).
		t.Syscall()
		t.Flush()
		ss.t.Unblock()
	} else {
		g.freeSend(ss)
		g.nbDone(t)
	}
}

// maybeAck spontaneously reports this member's delivery watermark to the
// sequencer after every ack batch of deliveries, so history trimming
// under load does not depend on the sequencer probing every member. The
// batch scales with the group size (model.GroupAckBatch), keeping the
// sequencer's ack processing O(1) per sequenced message.
func (g *userGroup) maybeAck(t *proc.Thread) {
	u := g.u
	if !g.isMember() || u.id == g.spec.Sequencer {
		return // the sequencer's own watermark never blocks trimming
	}
	g.sinceAck++
	if g.sinceAck < u.m.GroupAckBatch(len(g.spec.Members)) {
		return
	}
	g.sinceAck = 0
	w := &uwire{kind: ugSTATUS, gid: g.gid, from: u.id, ackSeq: g.nextDeliver - 1}
	u.k.RawSend(t, akernel.RawAddress(g.spec.Sequencer), u.k.RawNextMsgID(),
		u.m.GroupHeaderUser, 0, w, false)
}

func (g *userGroup) requestRetrans(t *proc.Thread, sawSeqno uint64) {
	if g.retrArmed {
		return
	}
	g.retrArmed = true
	u := g.u
	if u.mx != nil {
		u.mx.grpRetransReqs.Inc()
	}
	hi := sawSeqno
	for s := range g.holdback {
		if s > hi {
			hi = s
		}
	}
	w := &uwire{kind: ugRETR, gid: g.gid, from: u.id, lo: g.nextDeliver, hi: hi}
	u.k.RawSend(t, akernel.RawAddress(g.spec.Sequencer), u.k.RawNextMsgID(),
		u.m.GroupHeaderUser, 0, w, false)
	u.sim.Schedule(u.m.RetransTimeout, func() {
		g.retrArmed = false
		if len(g.holdback) == 0 {
			return
		}
		hi := g.nextDeliver
		for s := range g.holdback {
			if s > hi {
				hi = s
			}
		}
		u.helper.post(func(ht *proc.Thread) { g.requestRetrans(ht, hi) })
	})
}

// ---- Sequencer side (dedicated sequencer thread) ----

// sequencerLoop blocks directly on sequencer traffic so an arriving
// request dispatches this thread straight out of the interrupt handler
// (the 110 µs thread switch of §4.3, or 60 µs warm on a dedicated
// sequencer machine). It issues two system calls per message: one to
// fetch it and one to multicast it with its sequence number.
func (g *userGroup) sequencerLoop(t *proc.Thread) {
	u := g.u
	match := func(pk *flip.Packet) bool {
		gid, ok := seqTraffic(pk)
		return ok && gid == g.gid
	}
	for {
		pk := u.k.RawReceiveMatch(t, match)
		t.Call(pandaDepth)
		done := g.seqReasm.Add(pk)
		w, isW := pk.Payload.(*uwire)
		// The wire struct is extracted; recycle the packet shell.
		u.k.RawRelease(pk)
		if done && isW {
			g.seqHandle(t, w)
		}
		t.Return(pandaDepth)
		// Drop the per-packet operation before blocking for the next one.
		t.SetOp(0)
	}
}

func (g *userGroup) seqHandle(t *proc.Thread, w *uwire) {
	u := g.u
	t.ChargeP(sim.PhaseSeqService, u.m.ProtoGroup)
	switch w.kind {
	case ugREQ:
		g.updateAck(w.from, w.ackSeq)
		key := gkey{from: w.from, tmpID: w.tmpID}
		if seqno, dup := g.seen[key]; dup {
			if h := g.history[seqno]; h != nil {
				u.k.RawSend(t, g.addr, u.k.RawNextMsgID(), u.m.GroupHeaderUser, h.size, h, true)
			}
			return
		}
		g.seqno++
		d := &uwire{kind: ugDATA, gid: g.gid, from: w.from, seq: g.seqno, tmpID: w.tmpID, payload: w.payload, size: w.size}
		if u.sim.Tracing() {
			u.sim.Trace(u.p.Name(), "pgrp.seq", "seqno=%d sender=%d size=%d (PB)", g.seqno, w.from, w.size)
		}
		g.seen[key] = g.seqno
		g.history[g.seqno] = d
		if g.seqHistory != nil {
			g.seqHistory.Set(int64(len(g.history)))
		}
		u.k.RawSend(t, g.addr, u.k.RawNextMsgID(), u.m.GroupHeaderUser, d.size, d, true)
		g.armWatchdog()
	case ugBB:
		g.updateAck(w.from, w.ackSeq)
		key := gkey{from: w.from, tmpID: w.tmpID}
		if seqno, dup := g.seen[key]; dup {
			if h := g.history[seqno]; h != nil {
				acc := &uwire{kind: ugACCEPT, gid: g.gid, from: h.from, seq: h.seq, tmpID: h.tmpID}
				u.k.RawSend(t, g.addr, u.k.RawNextMsgID(), u.m.GroupHeaderUser, 0, acc, true)
			}
			return
		}
		g.seqno++
		d := &uwire{kind: ugDATA, gid: g.gid, from: w.from, seq: g.seqno, tmpID: w.tmpID, payload: w.payload, size: w.size}
		g.seen[key] = g.seqno
		g.history[g.seqno] = d
		if g.seqHistory != nil {
			g.seqHistory.Set(int64(len(g.history)))
		}
		acc := &uwire{kind: ugACCEPT, gid: g.gid, from: w.from, seq: g.seqno, tmpID: w.tmpID}
		u.k.RawSend(t, g.addr, u.k.RawNextMsgID(), u.m.GroupHeaderUser, 0, acc, true)
		if g.isMember() {
			// Hand the full message to the local member (the data
			// multicast was consumed by this sequencer thread).
			u.k.RawSend(t, akernel.RawAddress(u.id), u.k.RawNextMsgID(), u.m.GroupHeaderUser, d.size, d, false)
		}
		g.armWatchdog()
	case ugRETR:
		for s := w.lo; s <= w.hi; s++ {
			h := g.history[s]
			if h == nil {
				continue
			}
			u.k.RawSend(t, akernel.RawAddress(w.from), u.k.RawNextMsgID(), u.m.GroupHeaderUser, h.size, h, false)
		}
	case ugSTATUS:
		g.updateAck(w.from, w.ackSeq)
		// Resend the suffix only to members that made no progress since
		// the previous probe (genuine tail loss, not mere lag). A first
		// report is never "stalled": with no earlier report to compare
		// against, a member whose DATA is still in flight would otherwise
		// trigger a spurious full-history resend.
		last, seen := g.lastStatus[w.from]
		stalled := seen && last == w.ackSeq
		g.lastStatus[w.from] = w.ackSeq
		if stalled && w.ackSeq < g.seqno {
			for s := w.ackSeq + 1; s <= g.seqno; s++ {
				h := g.history[s]
				if h == nil {
					continue
				}
				u.k.RawSend(t, akernel.RawAddress(w.from), u.k.RawNextMsgID(), u.m.GroupHeaderUser, h.size, h, false)
			}
		}
	}
}

func (g *userGroup) updateAck(memberID int, upTo uint64) {
	if upTo > g.acked[memberID] {
		g.acked[memberID] = upTo
	}
	g.trimHistory()
}

func (g *userGroup) minAck() uint64 {
	min := g.seqno
	for _, id := range g.spec.Members {
		if id == g.u.id {
			continue // local delivery is loss-free (loopback)
		}
		if a := g.acked[id]; a < min {
			min = a
		}
	}
	return min
}

func (g *userGroup) trimHistory() {
	if len(g.history) == 0 {
		return
	}
	min := g.minAck()
	for s, h := range g.history {
		if s <= min {
			delete(g.history, s)
			delete(g.seen, gkey{from: h.from, tmpID: h.tmpID})
		}
	}
	if g.seqHistory != nil {
		g.seqHistory.Set(int64(len(g.history)))
	}
}

// armWatchdog keeps probing while some member has not acknowledged all
// sequenced messages (history overflow prevention and tail-loss recovery,
// as in the kernel protocol). Each tick unicasts ugSYNC only to members
// pinned at the minimum acknowledged watermark — the ones actually
// holding the history back — capped at GroupSyncFanout, so a probe round
// costs O(stragglers) rather than triggering the group-wide SYNC/STATUS
// implosion that saturates the sequencer in large groups.
func (g *userGroup) armWatchdog() {
	if g.watchdog.Pending() || g.minAck() >= g.seqno {
		return
	}
	g.watchdog = g.u.sim.Schedule(g.u.m.RetransTimeout, g.watchdogFn)
}

// watchdogTick has the helper thread probe the stragglers when the
// watchdog expires.
func (g *userGroup) watchdogTick() {
	u := g.u
	g.watchdog = sim.Event{}
	min := g.minAck()
	if min >= g.seqno {
		return
	}
	targets := g.stragglers(min)
	u.helper.post(func(ht *proc.Thread) {
		for _, id := range targets {
			w := &uwire{kind: ugSYNC, gid: g.gid}
			u.k.RawSend(ht, akernel.RawAddress(id), u.k.RawNextMsgID(), u.m.GroupHeaderUser, 0, w, false)
		}
	})
	g.armWatchdog()
}

// stragglers lists the members whose acknowledged watermark equals min,
// in member order, capped at GroupSyncFanout.
func (g *userGroup) stragglers(min uint64) []int {
	fan := g.u.m.GroupSyncFanout
	if fan < 1 {
		fan = 1
	}
	var ids []int
	for _, id := range g.spec.Members {
		if id == g.u.id {
			continue
		}
		if g.acked[id] == min {
			ids = append(ids, id)
			if len(ids) >= fan {
				break
			}
		}
	}
	return ids
}
