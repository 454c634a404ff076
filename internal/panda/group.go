package panda

import (
	"errors"

	"amoebasim/internal/metrics"
	"amoebasim/internal/model"
	"amoebasim/internal/proc"
	"amoebasim/internal/sim"
)

// ErrGroupSendFailed is returned when group-send retransmissions are
// exhausted.
var ErrGroupSendFailed = errors.New("panda: group send failed after retries")

// errNoGroup is returned for a send on a group the instance does not hold.
var errNoGroup = errors.New("panda: group communication not configured")

const (
	grpMaxRetries = 16
	// nbWindow bounds outstanding nonblocking broadcasts per sender (the
	// §6 extension); senders exceeding it block until deliveries drain.
	nbWindow = 32
)

// Groups is Panda's totally-ordered group protocol for every group one
// instance holds, one state machine for every placement that runs it
// over its own packet path (Link). A sequencer orders each group's
// messages. PB method: a member sends its message to the sequencer, which
// multicasts it with its sequence number. BB method, for large messages
// where the placement has it: the member multicasts the data and the
// sequencer multicasts a short accept. Each group has its own sequencer
// and an independent sequence space. The Library embeds a *Groups, nil
// without groups, so GroupSend, GroupSendTo and HandleGroup are user
// space's and bypass's own; the library's receive thread passes member
// traffic to onMember, and the sequencer thread it runs for each group
// the machine sequences passes that group's traffic to onSequencer.
// Kernel space runs the same calls from its interrupt handler, with no
// thread.
type Groups struct {
	link   GroupLink
	pl     *Placement
	p      *proc.Processor
	sim    *sim.Sim
	m      *model.CostModel
	helper *Helper
	id     int

	grps   []*group // indexed by gid; nil entries for groups not held
	spares []*gsend // send records whose send is over
}

// groupMetrics is a group's counters under the series names of user
// space and bypass, which hand every group of an instance the same set.
// Kernel space registers the same fields under its own names, each group
// its own set (kernGroupMetrics).
type groupMetrics struct {
	pbSends     metrics.Counter `metric:"panda.grp_pb_sends"`
	bbSends     metrics.Counter `metric:"panda.grp_bb_sends"`
	localSends  metrics.Counter `metric:"-"` // sends sequenced in place: kernel space only
	sendRetrans metrics.Counter `metric:"panda.grp_send_retrans"`
	deliveries  metrics.Counter `metric:"panda.grp_deliveries"`
	retransReqs metrics.Counter `metric:"panda.grp_retrans_requests"`
}

type gkey struct {
	from  int
	tmpID uint64
}

// gsend is one outstanding send. The records are pooled on the instance;
// each keeps its two callbacks, bound once.
type gsend struct {
	g       *group
	t       *proc.Thread // nil for nonblocking sends
	tmpID   uint64
	msgID   uint64
	op      uint64
	wire    *Wire
	dest    int // the sequencer, or -1 for the BB method's multicast
	timer   sim.Event
	armedAt sim.Time
	retries int
	err     error
	done    bool

	fire   func()                     // sendTimeout, bound to the record
	resend func(*proc.Thread, uint64) // resendRequest, bound to the record
}

// group is one group's protocol state on one instance.
type group struct {
	gs      *Groups
	spec    GroupSpec
	kind    string        // causal operation kind ("group", or per-shard label)
	mx      *groupMetrics // nil when no metrics are registered
	handler GroupHandler

	// Member state.
	nextDeliver uint64
	holdback    map[uint64]*Wire
	bbData      map[gkey]*Wire // nil without the BB method
	bbAccept    map[gkey]*Wire // nil without the BB method
	sends       map[uint64]*gsend
	tmpSeq      uint64
	retrArmed   bool
	amMember    bool                       // cached membership test (hot on every delivery)
	sinceAck    int                        // deliveries since the last watermark report
	retrFn      func()                     // retrTimeout, bound on first use
	retrAct     func(*proc.Thread, uint64) // requestRetrans, bound on first use

	// Nonblocking-send flow control.
	outstandingNB int
	nbWaiters     []*proc.Thread

	seq *sequencer // nil unless this instance sequences the group
}

// sequencer is a group's sequencer state.
type sequencer struct {
	seqno uint64
	// hist[lo:] holds the sequenced messages from base, the lowest seqno
	// some member has not acknowledged, up to seqno: trimming drops a
	// prefix.
	hist []*Wire
	lo   int
	base uint64
	seen map[gkey]uint64 // duplicate filter: (sender, tmpID) → seqno
	// acks holds every other member's watermark, in member order; rank
	// maps a member's processor id to its index in acks plus one.
	acks       []memberAck
	rank       []int32
	watchdog   sim.Event
	watchdogFn func()                     // watchdogTick, bound once
	probeFn    func(*proc.Thread, uint64) // probe, bound once
	probes     []int                      // members the posted probes sync, oldest first
	gauge      *metrics.Gauge             // history occupancy; nil when metrics are disabled
}

// memberAck is what the sequencer knows of one member's deliveries.
type memberAck struct {
	id       int
	acked    uint64 // acknowledged watermark
	status   uint64 // watermark of the previous status report
	reported bool   // a status report was seen
}

// newGroups builds the group table of the instance on processor p, which
// holds the groups specs lists, or returns nil when specs is empty. link
// carries its wires, helper runs the sends its timers defer (nil: the
// timers send at once, at interrupt level), and pl fixes its call depth,
// trace names and methods.
func newGroups(p *proc.Processor, specs []GroupSpec, link GroupLink, helper *Helper, pl *Placement) *Groups {
	if len(specs) == 0 {
		return nil
	}
	n := 0
	for _, spec := range specs {
		n = max(n, spec.GID+1)
	}
	gs := &Groups{link: link, pl: pl, p: p, sim: p.Sim(), m: p.Model(), helper: helper, id: p.ID(), grps: make([]*group, n)}
	for _, spec := range specs {
		gs.grps[spec.GID] = gs.newGroup(spec)
	}
	return gs
}

func (gs *Groups) newGroup(spec GroupSpec) *group {
	g := &group{
		gs: gs, spec: spec, kind: spec.CausalKind, nextDeliver: 1,
		holdback: make(map[uint64]*Wire),
		sends:    make(map[uint64]*gsend),
	}
	if g.kind == "" {
		g.kind = "group"
	}
	if gs.pl.bb {
		g.bbData = make(map[gkey]*Wire)
		g.bbAccept = make(map[gkey]*Wire)
	}
	for _, id := range spec.Members {
		if id == gs.id {
			g.amMember = true
		}
	}
	if spec.Sequencer != gs.id {
		return g
	}
	s := &sequencer{base: 1, seen: make(map[gkey]uint64), acks: make([]memberAck, 0, len(spec.Members))}
	n := 0
	for _, id := range spec.Members {
		n = max(n, id+1)
	}
	s.rank = make([]int32, n)
	for _, id := range spec.Members {
		if id == gs.id || s.rank[id] != 0 {
			continue // local delivery is loss-free (loopback)
		}
		s.acks = append(s.acks, memberAck{id: id})
		s.rank[id] = int32(len(s.acks))
	}
	s.watchdogFn, s.probeFn = g.watchdogTick, g.probe
	g.seq = s
	return g
}

// setMetrics hands group gid its counters and, when this instance
// sequences it, the gauge of its history occupancy.
func (gs *Groups) setMetrics(gid int, mx *groupMetrics, history *metrics.Gauge) {
	g := gs.byGID(gid)
	g.mx = mx
	if g.seq != nil {
		g.seq.gauge = history
	}
}

// byGID returns the group with the given id, or nil when this instance
// does not hold it.
func (gs *Groups) byGID(gid int) *group {
	if gs == nil || gid < 0 || gid >= len(gs.grps) {
		return nil
	}
	return gs.grps[gid]
}

// Holds reports whether this instance holds group gid.
func (gs *Groups) Holds(gid int) bool { return gs.byGID(gid) != nil }

// Sequences reports whether this instance runs the sequencer of group gid.
func (gs *Groups) Sequences(gid int) bool {
	g := gs.byGID(gid)
	return g != nil && g.seq != nil
}

// roles lists, in increasing order, the groups whose sequencer this
// instance runs, and reports whether it is a member of any group (not on
// a dedicated sequencer machine).
func (gs *Groups) roles() (sequenced []int, member bool) {
	if gs == nil {
		return nil, false
	}
	for _, g := range gs.grps {
		if g == nil {
			continue
		}
		member = member || g.amMember
		if g.seq != nil {
			sequenced = append(sequenced, g.spec.GID)
		}
	}
	return sequenced, member
}

// HandleGroup registers the ordered group delivery upcall (shared by
// every group of the instance).
func (gs *Groups) HandleGroup(h GroupHandler) {
	if gs == nil {
		return
	}
	for _, g := range gs.grps {
		if g != nil {
			g.handler = h
		}
	}
}

// GroupSend implements Transport.GroupSend: broadcast on the default
// group with total order, blocking until the sender's own message is
// delivered back.
func (gs *Groups) GroupSend(t *proc.Thread, payload any, size int) error {
	return gs.GroupSendTo(t, 0, payload, size)
}

// GroupSendTo broadcasts on a specific group (total order within the
// group; independent sequence spaces across groups).
func (gs *Groups) GroupSendTo(t *proc.Thread, gid int, payload any, size int) error {
	return gs.send(t, gid, payload, size, true)
}

// newSend takes a send record from the instance's pool, or mints one.
func (gs *Groups) newSend(g *group) *gsend {
	var ss *gsend
	if n := len(gs.spares); n > 0 {
		ss, gs.spares = gs.spares[n-1], gs.spares[:n-1]
	} else {
		ss = &gsend{}
		ss.fire = func() { gs.sendTimeout(ss) }
		ss.resend = func(ht *proc.Thread, msgID uint64) { gs.resendRequest(ht, ss, msgID) }
	}
	ss.g = g
	return ss
}

// freeSend returns a record whose send is over to the pool. Its timer is
// off; a retransmission still queued on the helper thread checks the
// record's message id before it acts.
func (gs *Groups) freeSend(ss *gsend) {
	*ss = gsend{fire: ss.fire, resend: ss.resend}
	gs.spares = append(gs.spares, ss)
}

// send broadcasts on group gid; a blocking send returns once the message
// came back in order.
func (gs *Groups) send(t *proc.Thread, gid int, payload any, size int, blocking bool) error {
	g := gs.byGID(gid)
	if g == nil {
		return errNoGroup
	}
	if !blocking {
		for g.outstandingNB >= nbWindow {
			g.nbWaiters = append(g.nbWaiters, t)
			t.Block()
		}
		g.outstandingNB++
	}
	g.tmpSeq++
	// Where one handler runs the member and its sequencer, a send from the
	// sequencer's machine is sequenced in place: no message id, no
	// retransmission timer, never the BB method.
	inPlace := gs.pl.seqInHandler && g.seq != nil
	big := gs.pl.bb && !inPlace && size > gs.m.BBThreshold
	kind := WireGrpREQ
	if big {
		kind = WireGrpBB
	}
	op := t.Op()
	topLevel := op == 0 && blocking
	if topLevel {
		op = gs.sim.CausalBegin(g.kind)
		t.SetOp(op)
	}
	w := &Wire{
		Kind: kind, GID: g.spec.GID, From: gs.id, TmpID: g.tmpSeq,
		AckSeq: g.nextDeliver - 1, Op: op, Payload: payload, Size: size,
	}
	// The request piggybacks this member's watermark: an active sender
	// needs no spontaneous acks (they would tax broadcast-heavy phases
	// with pure overhead).
	g.sinceAck = 0
	ss := gs.newSend(g)
	ss.tmpID, ss.op, ss.wire, ss.dest = g.tmpSeq, op, w, g.spec.Sequencer
	if !inPlace {
		ss.msgID = gs.link.NextMsgID()
	}
	if blocking {
		ss.t = t
	}
	g.sends[ss.tmpID] = ss

	if g.mx != nil {
		switch {
		case inPlace:
			g.mx.localSends.Inc()
		case big:
			g.mx.bbSends.Inc()
		default:
			g.mx.pbSends.Inc()
		}
	}
	if op != 0 && blocking && gs.sim.Tracing() {
		gs.sim.SpanBeginWith(op, gs.p.Name(), gs.pl.grpSend, "tmp=%d size=%d", ss.tmpID, size)
	}
	t.Call(gs.pl.depth)
	t.ChargeP(sim.PhaseProtoSend, gs.m.ProtoGroup)
	if big {
		g.bbData[gkey{from: gs.id, tmpID: ss.tmpID}] = w
		ss.dest = -1
	}
	gs.link.SendGroupWire(t, ss.dest, w, ss.msgID)
	t.Return(gs.pl.depth)
	if !inPlace {
		ss.timer = gs.sim.Schedule(gs.m.RetransTimeout, ss.fire)
		ss.armedAt = gs.sim.Now()
	}

	if !blocking {
		return nil
	}
	t.Block()
	tmpID, err := ss.tmpID, ss.err
	gs.freeSend(ss)
	if op != 0 && gs.sim.Tracing() {
		gs.sim.SpanEnd(op, gs.p.Name(), gs.pl.grpSend, "tmp=%d err=%v", tmpID, err)
	}
	if topLevel {
		gs.sim.CausalEnd(op, err != nil)
		t.SetOp(0)
	}
	return err
}

func (gs *Groups) sendTimeout(ss *gsend) {
	if ss.done {
		return
	}
	g := ss.g
	// The armed window elapsed without delivery: retransmission idle.
	gs.sim.CausalSpan(ss.op, sim.PhaseRetrans, ss.armedAt, gs.sim.Now())
	ss.retries++
	if ss.retries > grpMaxRetries {
		ss.err = ErrGroupSendFailed
		ss.done = true
		delete(g.sends, ss.tmpID)
		if ss.t != nil {
			ss.t.Unblock()
		} else {
			gs.freeSend(ss)
			g.nbDone(nil)
		}
		return
	}
	if g.mx != nil {
		g.mx.sendRetrans.Inc()
	}
	gs.helper.Post(ss.resend, ss.msgID)
	ss.timer = gs.sim.Schedule(gs.m.RetransTimeout, ss.fire)
	ss.armedAt = gs.sim.Now()
}

// resendRequest retransmits message msgID from the helper thread ht, or
// at interrupt level when ht is nil, where it costs only the path's own
// charges. The record is pooled: a later send, perhaps on another group,
// may have taken it, and message ids are unique on the instance.
func (gs *Groups) resendRequest(ht *proc.Thread, ss *gsend, msgID uint64) {
	if ss.done || ss.msgID != msgID {
		return
	}
	if ht == nil {
		gs.link.SendGroupWire(nil, ss.dest, ss.wire, ss.msgID)
		return
	}
	ht.SetOp(ss.op)
	ht.Call(gs.pl.depth)
	ht.ChargeP(sim.PhaseProtoSend, gs.m.ProtoGroup)
	gs.link.SendGroupWire(ht, ss.dest, ss.wire, ss.msgID)
	ht.Return(gs.pl.depth)
	ht.SetOp(0)
}

// nbDone retires one nonblocking send and admits a blocked sender. t may
// be nil when called from a timer give-up path.
func (g *group) nbDone(t *proc.Thread) {
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

// charge charges thread t the protocol's processing in phase ph. At
// interrupt level t is nil: the interrupt item paid for it.
func (gs *Groups) charge(t *proc.Thread, ph sim.PhaseID) {
	if t != nil {
		t.ChargeP(ph, gs.m.ProtoGroup)
	}
}

// ---- Member side (receive thread context) ----

// onMember runs in the placement's receive thread t, or at interrupt
// level with t nil, for a group message to this member: ordered data, a
// BB accept or data, or a status probe.
func (gs *Groups) onMember(t *proc.Thread, w *Wire) {
	g := gs.byGID(w.GID)
	if g == nil {
		return
	}
	gs.charge(t, sim.PhaseProtoRecv)
	switch w.Kind {
	case WireGrpDATA:
		g.onData(t, w, w.Seq)
	case WireGrpACCEPT, WireGrpBB:
		g.onBB(t, w)
	case WireGrpSYNC:
		if g.amMember {
			g.sinceAck = 0
			g.sendStatus(t)
		}
	}
}

// onBB takes a BB accept or BB data and pairs them. The pair leaves the
// maps at once, and the data wire is delivered under the accept's seqno.
func (g *group) onBB(t *proc.Thread, w *Wire) {
	key := gkey{from: w.From, tmpID: w.TmpID}
	switch {
	case w.Kind == WireGrpBB:
		g.bbData[key] = w
	case w.Seq < g.nextDeliver:
		// Delivered already: the accept answers a retransmission, whose
		// data may be waiting.
		delete(g.bbData, key)
		return
	default:
		g.bbAccept[key] = w
	}
	acc, data := g.bbAccept[key], g.bbData[key]
	if acc == nil || data == nil {
		return
	}
	delete(g.bbAccept, key)
	delete(g.bbData, key)
	g.onData(t, data, acc.Seq)
}

// onData takes message w, sequenced as seq.
func (g *group) onData(t *proc.Thread, w *Wire, seq uint64) {
	switch {
	case seq < g.nextDeliver:
		return // duplicate
	case seq > g.nextDeliver:
		g.holdback[seq] = w
		g.requestRetrans(t, seq)
		return
	}
	g.deliver(t, w, seq)
	for {
		seq := g.nextDeliver
		next := g.holdback[seq]
		if next == nil {
			break
		}
		delete(g.holdback, seq)
		g.deliver(t, next, seq)
	}
}

func (g *group) deliver(t *proc.Thread, w *Wire, seq uint64) {
	gs := g.gs
	if gs.sim.Tracing() {
		gs.sim.Trace(gs.p.Name(), gs.pl.grpDlv, "seqno=%d sender=%d", seq, w.From)
	}
	if g.mx != nil {
		g.mx.deliveries.Inc()
	}
	g.nextDeliver = seq + 1
	// A BB message that came as ordered data (a retransmission, or the
	// sequencer's copy for its own member) may leave its half pair.
	key := gkey{from: w.From, tmpID: w.TmpID}
	delete(g.bbData, key)
	delete(g.bbAccept, key)
	if g.amMember && g.handler != nil {
		g.handler(t, w.From, seq, w.Payload, w.Size)
	}
	if w.From != gs.id {
		g.maybeAck(t)
		return
	}
	// Own broadcast delivered: an active sender piggybacks its watermark
	// on every request, so it never acks spontaneously.
	g.sinceAck = 0
	ss := g.sends[w.TmpID]
	if ss == nil || ss.done {
		return
	}
	ss.done = true
	gs.sim.Cancel(ss.timer)
	delete(g.sends, w.TmpID)
	if ss.t != nil {
		gs.link.WakeCaller(t, ss.t)
	} else {
		gs.freeSend(ss)
		g.nbDone(t)
	}
}

// maybeAck spontaneously reports this member's delivery watermark to the
// sequencer after every ack batch of deliveries, so history trimming
// under load does not depend on the sequencer probing every member. The
// batch scales with the group size (model.GroupAckBatch), keeping the
// sequencer's ack processing O(1) per sequenced message.
func (g *group) maybeAck(t *proc.Thread) {
	gs := g.gs
	if !g.amMember || gs.id == g.spec.Sequencer {
		return // the sequencer's own watermark never blocks trimming
	}
	g.sinceAck++
	if g.sinceAck < gs.m.GroupAckBatch(len(g.spec.Members)) {
		return
	}
	g.sinceAck = 0
	g.sendStatus(t)
}

func (g *group) sendStatus(t *proc.Thread) {
	gs := g.gs
	w := &Wire{Kind: WireGrpSTATUS, GID: g.spec.GID, From: gs.id, AckSeq: g.nextDeliver - 1}
	gs.link.SendGroupWire(t, g.spec.Sequencer, w, gs.link.NextMsgID())
}

// requestRetrans asks the sequencer for everything from nextDeliver up to
// the highest seqno held back, at most once per RetransTimeout.
func (g *group) requestRetrans(t *proc.Thread, sawSeqno uint64) {
	if g.retrArmed {
		return
	}
	g.retrArmed = true
	gs := g.gs
	if g.mx != nil {
		g.mx.retransReqs.Inc()
	}
	w := &Wire{Kind: WireGrpRETR, GID: g.spec.GID, From: gs.id, Lo: g.nextDeliver, Hi: g.maxHeld(sawSeqno)}
	if gs.pl.grpRetr != "" && gs.sim.Tracing() {
		gs.sim.Trace(gs.p.Name(), gs.pl.grpRetr, "missing %d..%d", w.Lo, w.Hi)
	}
	gs.link.SendGroupWire(t, g.spec.Sequencer, w, gs.link.NextMsgID())
	if g.retrFn == nil {
		g.retrFn, g.retrAct = g.retrTimeout, g.requestRetrans
	}
	gs.sim.Schedule(gs.m.RetransTimeout, g.retrFn)
}

// retrTimeout asks again, from the helper thread, while a gap remains.
func (g *group) retrTimeout() {
	g.retrArmed = false
	if len(g.holdback) == 0 {
		return
	}
	g.gs.helper.Post(g.retrAct, g.maxHeld(g.nextDeliver))
}

// maxHeld returns the highest seqno held back, or hi if that is higher.
func (g *group) maxHeld(hi uint64) uint64 {
	for s := range g.holdback {
		if s > hi {
			hi = s
		}
	}
	return hi
}

// ---- Sequencer side (sequencer thread context) ----

// onSequencer runs in the sequencer thread t of w's group, or at
// interrupt level with t nil, for a message to the sequencer: an ordering
// request, BB data, a retransmission request or a status report.
func (gs *Groups) onSequencer(t *proc.Thread, w *Wire) {
	gs.grps[w.GID].seqHandle(t, w)
}

func (g *group) seqHandle(t *proc.Thread, w *Wire) {
	gs, s := g.gs, g.seq
	gs.charge(t, sim.PhaseSeqService)
	switch w.Kind {
	case WireGrpREQ, WireGrpBB:
		g.updateAck(w.From, w.AckSeq)
		d, fresh := g.sequence(w)
		switch {
		case d == nil:
			// A retransmitted request whose message every member has.
		case w.Kind == WireGrpREQ:
			gs.link.SendGroupWire(t, -1, d, gs.link.NextMsgID())
		default:
			acc := &Wire{Kind: WireGrpACCEPT, GID: g.spec.GID, From: d.From, Seq: d.Seq, TmpID: d.TmpID, Op: d.Op}
			gs.link.SendGroupWire(t, -1, acc, gs.link.NextMsgID())
			if fresh && g.amMember && !gs.pl.seqInHandler {
				// Hand the full message to the local member (the data
				// multicast was consumed by this sequencer thread).
				gs.link.SendGroupWire(t, gs.id, d, gs.link.NextMsgID())
			}
		}
		if fresh {
			g.armWatchdog()
		}
	case WireGrpRETR:
		g.resend(t, w.From, w.Lo, w.Hi)
	case WireGrpSTATUS:
		g.updateAck(w.From, w.AckSeq)
		a := s.ackOf(w.From)
		if a == nil {
			return
		}
		// Resend the suffix only to members that made no progress since
		// the previous probe (genuine tail loss, not mere lag). A first
		// report is never "stalled": with no earlier report to compare
		// against, a member whose DATA is still in flight would otherwise
		// trigger a spurious full-history resend.
		stalled := a.reported && a.status == w.AckSeq
		a.status, a.reported = w.AckSeq, true
		if stalled && w.AckSeq < s.seqno {
			g.resend(t, w.From, w.AckSeq+1, s.seqno)
		}
	}
}

// sequence gives request w the group's next seqno and keeps its message
// in the history. A retransmitted request keeps the seqno it got: sequence
// returns its message, or nil once trimmed, and fresh false.
func (g *group) sequence(w *Wire) (d *Wire, fresh bool) {
	gs, s := g.gs, g.seq
	key := gkey{from: w.From, tmpID: w.TmpID}
	if seqno, dup := s.seen[key]; dup {
		return s.at(seqno), false
	}
	s.seqno++
	d = &Wire{Kind: WireGrpDATA, GID: g.spec.GID, From: w.From, Seq: s.seqno, TmpID: w.TmpID, Op: w.Op, Payload: w.Payload, Size: w.Size}
	if w.Kind == WireGrpREQ && gs.sim.Tracing() {
		gs.sim.Trace(gs.p.Name(), gs.pl.grpSeq, "seqno=%d sender=%d size=%d (PB)", s.seqno, w.From, w.Size)
	}
	s.seen[key] = s.seqno
	if len(s.hist) == cap(s.hist) && s.lo > 0 {
		n := copy(s.hist, s.hist[s.lo:])
		clear(s.hist[n:])
		s.hist, s.lo = s.hist[:n], 0
	}
	s.hist = append(s.hist, d)
	s.setGauge()
	return d, true
}

// at returns the history entry of seqno, or nil when it is not held.
func (s *sequencer) at(seqno uint64) *Wire {
	if seqno < s.base || seqno > s.seqno {
		return nil
	}
	return s.hist[s.lo+int(seqno-s.base)]
}

func (s *sequencer) setGauge() {
	if s.gauge != nil {
		s.gauge.Set(int64(len(s.hist) - s.lo))
	}
}

// ackOf returns what the sequencer knows of member id, or nil for itself
// and for a processor outside the group.
func (s *sequencer) ackOf(id int) *memberAck {
	if id >= 0 && id < len(s.rank) && s.rank[id] > 0 {
		return &s.acks[s.rank[id]-1]
	}
	return nil
}

// resend unicasts the held messages from lo to hi to member to.
func (g *group) resend(t *proc.Thread, to int, lo, hi uint64) {
	for seqno := lo; seqno <= hi; seqno++ {
		if h := g.seq.at(seqno); h != nil {
			g.gs.link.SendGroupWire(t, to, h, g.gs.link.NextMsgID())
		}
	}
}

func (g *group) updateAck(from int, upTo uint64) {
	s := g.seq
	if a := s.ackOf(from); a != nil && upTo > a.acked {
		a.acked = upTo
	}
	// Drop the prefix every member has acknowledged.
	if len(s.hist) == s.lo {
		return
	}
	min := s.minAck()
	for s.base <= min && s.lo < len(s.hist) {
		h := s.hist[s.lo]
		delete(s.seen, gkey{from: h.From, tmpID: h.TmpID})
		s.hist[s.lo] = nil
		s.lo++
		s.base++
	}
	if s.lo == len(s.hist) {
		s.hist, s.lo = s.hist[:0], 0
	}
	s.setGauge()
}

// minAck returns the lowest watermark any other member acknowledged, or
// seqno when every member has everything.
func (s *sequencer) minAck() uint64 {
	min := s.seqno
	for i := range s.acks {
		if a := s.acks[i].acked; a < min {
			min = a
		}
	}
	return min
}

// armWatchdog keeps probing while some member has not acknowledged all
// sequenced messages (history overflow prevention and tail-loss recovery,
// as in the kernel protocol). Each tick unicasts WireGrpSYNC only to
// members pinned at the minimum acknowledged watermark — the ones actually
// holding the history back — capped at GroupSyncFanout, so a probe round
// costs O(stragglers) rather than triggering the group-wide SYNC/STATUS
// implosion that saturates the sequencer in large groups.
func (g *group) armWatchdog() {
	s := g.seq
	if s.watchdog.Pending() || s.minAck() >= s.seqno {
		return
	}
	s.watchdog = g.gs.sim.Schedule(g.gs.m.RetransTimeout, s.watchdogFn)
}

// watchdogTick has the helper thread probe the stragglers when the
// watchdog expires. It queues them on the sequencer and posts the bound
// probe with their number, so a tick allocates only its SYNC wires.
func (g *group) watchdogTick() {
	gs, s := g.gs, g.seq
	s.watchdog = sim.Event{}
	min := s.minAck()
	if min >= s.seqno {
		return
	}
	n := len(s.probes)
	s.probes = s.appendStragglers(s.probes, min, gs.m.GroupSyncFanout)
	gs.helper.Post(s.probeFn, uint64(len(s.probes)-n))
	g.armWatchdog()
}

// probe sends a status probe to each of the n members queued first.
// Helper actions run in the order posted, so they are the ones the
// tick that posted this probe queued.
func (g *group) probe(t *proc.Thread, n uint64) {
	gs, s := g.gs, g.seq
	for _, id := range s.probes[:n] {
		w := &Wire{Kind: WireGrpSYNC, GID: g.spec.GID}
		gs.link.SendGroupWire(t, id, w, gs.link.NextMsgID())
	}
	s.probes = s.probes[:copy(s.probes, s.probes[n:])]
}

// appendStragglers appends the members whose acknowledged watermark
// equals min to ids, in member order, at most fan of them (at least one).
func (s *sequencer) appendStragglers(ids []int, min uint64, fan int) []int {
	if fan < 1 {
		fan = 1
	}
	for i := range s.acks {
		if s.acks[i].acked == min {
			ids = append(ids, s.acks[i].id)
			if fan--; fan == 0 {
				break
			}
		}
	}
	return ids
}
