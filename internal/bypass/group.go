package bypass

import (
	"errors"

	"amoebasim/internal/flip"
	"amoebasim/internal/panda"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrGroupSendFailed is returned when group-send retransmissions are
// exhausted.
var ErrGroupSendFailed = errors.New("bypass: group send failed after retries")

const grpMaxRetries = 16

type gkey struct {
	from  int
	tmpID uint64
}

type bgsend struct {
	g       *group
	t       *proc.Thread
	tmpID   uint64
	msgID   uint64
	op      uint64
	wire    *bwire
	timer   sim.Event
	armedAt sim.Time
	retries int
	err     error
	done    bool

	fire func() // sendTimeout, bound to the record
}

// group is Panda's sequencer-based totally-ordered group protocol over
// the queue pair, PB method only: a descriptor-sized request to the
// sequencer, which re-multicasts the data with its sequence number.
// Because fragmentation gather-reads the application buffer, the BB
// method's reason to exist — avoiding a second copy of large messages
// through the sequencer — disappears, so large messages take the same
// path as small ones.
type group struct {
	e       *Endpoint
	gid     int
	spec    panda.GroupSpec
	kind    string // causal operation kind ("group", or per-shard label)
	handler panda.GroupHandler

	// Member state.
	nextDeliver uint64
	holdback    map[uint64]*bwire
	sends       map[uint64]*bgsend
	tmpSeq      uint64
	retrArmed   bool
	amMember    bool
	sinceAck    int // deliveries since the last watermark report

	// Sequencer state (only on the sequencer's instance).
	seqReasm   *flip.Reassembler
	seqno      uint64
	history    map[uint64]*bwire
	seen       map[gkey]uint64
	acked      map[int]uint64
	lastStatus map[int]uint64 // ack seen at the previous status probe
	watchdog   sim.Event
	watchdogFn func() // watchdogTick, bound once
}

func (g *group) init(e *Endpoint, spec panda.GroupSpec) {
	g.e = e
	g.gid = spec.GID
	g.spec = spec
	g.kind = spec.CausalKind
	if g.kind == "" {
		g.kind = "group"
	}
	g.nextDeliver = 1
	g.holdback = make(map[uint64]*bwire)
	g.sends = make(map[uint64]*bgsend)
	for _, id := range spec.Members {
		if id == e.id {
			g.amMember = true
		}
	}
}

func (g *group) isMember() bool { return g.amMember }

func (g *group) initSequencer() {
	g.seqReasm = flip.NewReassembler(g.e.sim, g.e.m.RetransTimeout)
	g.history = make(map[uint64]*bwire)
	g.seen = make(map[gkey]uint64)
	g.acked = make(map[int]uint64)
	g.lastStatus = make(map[int]uint64)
	g.watchdogFn = g.watchdogTick
}

// newSend takes a send record from the endpoint's pool, or mints one.
func (g *group) newSend() *bgsend {
	var ss *bgsend
	if n := len(g.e.grpSends); n > 0 {
		ss = g.e.grpSends[n-1]
		g.e.grpSends = g.e.grpSends[:n-1]
	} else {
		ss = &bgsend{}
		ss.fire = func() { ss.g.sendTimeout(ss) }
	}
	ss.g = g
	return ss
}

// GroupSend implements panda.Transport.GroupSend on the default group.
func (e *Endpoint) GroupSend(t *proc.Thread, payload any, size int) error {
	return e.GroupSendTo(t, 0, payload, size)
}

// GroupSendTo broadcasts on a specific group (total order within the
// group; independent sequence spaces across groups).
func (e *Endpoint) GroupSendTo(t *proc.Thread, grp int, payload any, size int) error {
	g := e.groupByGID(grp)
	if g == nil {
		return errors.New("bypass: group communication not configured")
	}
	return g.send(t, payload, size)
}

func (g *group) send(t *proc.Thread, payload any, size int) error {
	e := g.e
	g.tmpSeq++
	op := t.Op()
	topLevel := op == 0
	if topLevel {
		op = e.sim.CausalBegin(g.kind)
		t.SetOp(op)
	}
	w := &bwire{
		kind: bgREQ, gid: g.gid, from: e.id, tmpID: g.tmpSeq,
		ackSeq: g.nextDeliver - 1, payload: payload, size: size,
	}
	// The request piggybacks this member's watermark: an active sender
	// needs no spontaneous acks.
	g.sinceAck = 0
	ss := g.newSend()
	ss.t, ss.tmpID, ss.msgID, ss.op, ss.wire = t, g.tmpSeq, e.nextMsgID(), op, w
	g.sends[ss.tmpID] = ss

	if op != 0 && e.sim.Tracing() {
		e.sim.SpanBeginWith(op, e.p.Name(), "bgrp.send", "tmp=%d size=%d", ss.tmpID, size)
	}
	t.Call(bypassDepth)
	t.ChargeP(sim.PhaseProtoSend, e.m.ProtoGroup)
	e.post(t, g.spec.Sequencer, e.m.GroupHeaderUser, w, ss.msgID, false)
	t.Return(bypassDepth)
	ss.timer = e.sim.Schedule(e.m.RetransTimeout, ss.fire)
	ss.armedAt = e.sim.Now()

	t.Block()
	// The timer is off; a retransmission still queued on the helper
	// thread checks the record's group and tmpID before it acts.
	tmpID, err := ss.tmpID, ss.err
	*ss = bgsend{fire: ss.fire}
	g.e.grpSends = append(g.e.grpSends, ss)
	if op != 0 && e.sim.Tracing() {
		e.sim.SpanEnd(op, e.p.Name(), "bgrp.send", "tmp=%d err=%v", tmpID, err)
	}
	if topLevel {
		e.sim.CausalEnd(op, err != nil)
		t.SetOp(0)
	}
	return err
}

func (g *group) sendTimeout(ss *bgsend) {
	if ss.done {
		return
	}
	e := g.e
	// The armed window elapsed without delivery: retransmission idle.
	e.sim.CausalSpan(ss.op, sim.PhaseRetrans, ss.armedAt, e.sim.Now())
	ss.retries++
	if ss.retries > grpMaxRetries {
		ss.err = ErrGroupSendFailed
		ss.done = true
		delete(g.sends, ss.tmpID)
		ss.t.Unblock()
		return
	}
	tmpID := ss.tmpID
	e.helper.post(func(ht *proc.Thread) {
		// The record is pooled: a later send may have taken it.
		if ss.done || ss.g != g || ss.tmpID != tmpID {
			return
		}
		ht.SetOp(ss.op)
		ht.Call(bypassDepth)
		ht.ChargeP(sim.PhaseProtoSend, e.m.ProtoGroup)
		e.post(ht, g.spec.Sequencer, e.m.GroupHeaderUser, ss.wire, ss.msgID, false)
		ht.Return(bypassDepth)
		ht.SetOp(0)
	})
	ss.timer = e.sim.Schedule(e.m.RetransTimeout, ss.fire)
	ss.armedAt = e.sim.Now()
}

// ---- Member side (queue-pair consumer context) ----

func (g *group) memberHandle(t *proc.Thread, w *bwire) {
	e := g.e
	t.ChargeP(sim.PhaseProtoRecv, e.m.ProtoGroup)
	switch w.kind {
	case bgDATA:
		g.onData(t, w)
	case bgSYNC:
		if g.isMember() {
			g.sinceAck = 0
			st := &bwire{kind: bgSTATUS, gid: g.gid, from: e.id, ackSeq: g.nextDeliver - 1}
			e.post(t, g.spec.Sequencer, e.m.GroupHeaderUser, st, e.nextMsgID(), false)
		}
	}
}

func (g *group) onData(t *proc.Thread, w *bwire) {
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

func (g *group) deliver(t *proc.Thread, w *bwire) {
	e := g.e
	if e.sim.Tracing() {
		e.sim.Trace(e.p.Name(), "bgrp.dlv", "seqno=%d sender=%d", w.seq, w.from)
	}
	g.nextDeliver = w.seq + 1
	if g.isMember() && g.handler != nil {
		g.handler(t, w.from, w.seq, w.payload, w.size)
	}
	if w.from != e.id {
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
	e.sim.Cancel(ss.timer)
	delete(g.sends, w.tmpID)
	// Wake the blocked sender with a direct resume — no kernel crossing.
	t.Flush()
	ss.t.UnblockDirect()
}

// maybeAck spontaneously reports this member's delivery watermark to the
// sequencer after every ack batch of deliveries (model.GroupAckBatch),
// keeping the sequencer's ack processing O(1) per sequenced message.
func (g *group) maybeAck(t *proc.Thread) {
	e := g.e
	if !g.isMember() || e.id == g.spec.Sequencer {
		return // the sequencer's own watermark never blocks trimming
	}
	g.sinceAck++
	if g.sinceAck < e.m.GroupAckBatch(len(g.spec.Members)) {
		return
	}
	g.sinceAck = 0
	w := &bwire{kind: bgSTATUS, gid: g.gid, from: e.id, ackSeq: g.nextDeliver - 1}
	e.post(t, g.spec.Sequencer, e.m.GroupHeaderUser, w, e.nextMsgID(), false)
}

func (g *group) requestRetrans(t *proc.Thread, sawSeqno uint64) {
	if g.retrArmed {
		return
	}
	g.retrArmed = true
	e := g.e
	hi := sawSeqno
	for s := range g.holdback {
		if s > hi {
			hi = s
		}
	}
	w := &bwire{kind: bgRETR, gid: g.gid, from: e.id, lo: g.nextDeliver, hi: hi}
	e.post(t, g.spec.Sequencer, e.m.GroupHeaderUser, w, e.nextMsgID(), false)
	e.sim.Schedule(e.m.RetransTimeout, func() {
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
		e.helper.post(func(ht *proc.Thread) { g.requestRetrans(ht, hi) })
	})
}

// ---- Sequencer side (dedicated sequencer thread) ----

// sequencerLoop blocks directly on sequencer traffic from the completion
// queue. The service loop per message is: pick the request up (per the
// dispatch mode), stamp a sequence number, post the data multicast —
// no fetch syscall, no multicast syscall, no copies.
func (g *group) sequencerLoop(t *proc.Thread) {
	e := g.e
	match := func(f *bfrag) bool {
		gid, ok := seqTraffic(f)
		return ok && gid == g.gid
	}
	for {
		f := e.receive(t, match, sim.PhaseSeqService)
		t.Call(bypassDepth)
		w, done := f.w, reassemble(g.seqReasm, f)
		e.freeFrag(f)
		if done {
			g.seqHandle(t, w)
		}
		t.Return(bypassDepth)
		// Drop the per-packet operation before blocking for the next one.
		t.SetOp(0)
	}
}

func (g *group) seqHandle(t *proc.Thread, w *bwire) {
	e := g.e
	t.ChargeP(sim.PhaseSeqService, e.m.ProtoGroup)
	switch w.kind {
	case bgREQ:
		g.updateAck(w.from, w.ackSeq)
		key := gkey{from: w.from, tmpID: w.tmpID}
		if seqno, dup := g.seen[key]; dup {
			if h := g.history[seqno]; h != nil {
				e.post(t, -1, e.m.GroupHeaderUser, h, e.nextMsgID(), true)
			}
			return
		}
		g.seqno++
		d := &bwire{kind: bgDATA, gid: g.gid, from: w.from, seq: g.seqno, tmpID: w.tmpID, payload: w.payload, size: w.size}
		if e.sim.Tracing() {
			e.sim.Trace(e.p.Name(), "bgrp.seq", "seqno=%d sender=%d size=%d (PB)", g.seqno, w.from, w.size)
		}
		g.seen[key] = g.seqno
		g.history[g.seqno] = d
		e.post(t, -1, e.m.GroupHeaderUser, d, e.nextMsgID(), true)
		g.armWatchdog()
	case bgRETR:
		for s := w.lo; s <= w.hi; s++ {
			h := g.history[s]
			if h == nil {
				continue
			}
			e.post(t, w.from, e.m.GroupHeaderUser, h, e.nextMsgID(), false)
		}
	case bgSTATUS:
		g.updateAck(w.from, w.ackSeq)
		// Resend the suffix only to members that made no progress since
		// the previous probe (genuine tail loss, not mere lag); see the
		// user-space sequencer for the first-report subtlety.
		last, seen := g.lastStatus[w.from]
		stalled := seen && last == w.ackSeq
		g.lastStatus[w.from] = w.ackSeq
		if stalled && w.ackSeq < g.seqno {
			for s := w.ackSeq + 1; s <= g.seqno; s++ {
				h := g.history[s]
				if h == nil {
					continue
				}
				e.post(t, w.from, e.m.GroupHeaderUser, h, e.nextMsgID(), false)
			}
		}
	}
}

func (g *group) updateAck(memberID int, upTo uint64) {
	if upTo > g.acked[memberID] {
		g.acked[memberID] = upTo
	}
	g.trimHistory()
}

func (g *group) minAck() uint64 {
	min := g.seqno
	for _, id := range g.spec.Members {
		if id == g.e.id {
			continue // local delivery is loss-free (loopback)
		}
		if a := g.acked[id]; a < min {
			min = a
		}
	}
	return min
}

func (g *group) trimHistory() {
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
}

// armWatchdog keeps probing while some member has not acknowledged all
// sequenced messages: each tick unicasts bgSYNC to the members pinned at
// the minimum watermark, capped at GroupSyncFanout (see user_group.go).
func (g *group) armWatchdog() {
	if g.watchdog.Pending() || g.minAck() >= g.seqno {
		return
	}
	g.watchdog = g.e.sim.Schedule(g.e.m.RetransTimeout, g.watchdogFn)
}

// watchdogTick has the helper thread probe the stragglers when the
// watchdog expires.
func (g *group) watchdogTick() {
	e := g.e
	g.watchdog = sim.Event{}
	min := g.minAck()
	if min >= g.seqno {
		return
	}
	targets := g.stragglers(min)
	e.helper.post(func(ht *proc.Thread) {
		for _, id := range targets {
			w := &bwire{kind: bgSYNC, gid: g.gid}
			e.post(ht, id, e.m.GroupHeaderUser, w, e.nextMsgID(), false)
		}
	})
	g.armWatchdog()
}

// stragglers lists the members whose acknowledged watermark equals min,
// in member order, capped at GroupSyncFanout.
func (g *group) stragglers(min uint64) []int {
	fan := g.e.m.GroupSyncFanout
	if fan < 1 {
		fan = 1
	}
	var ids []int
	for _, id := range g.spec.Members {
		if id == g.e.id {
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
