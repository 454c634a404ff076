// Package sim provides the discrete-event simulation core used by every
// other substrate in this repository: a virtual clock, a cancellable event
// queue with deterministic tie-breaking, and a deterministic random number
// generator.
//
// The simulation is single-threaded by construction. Events run on the
// goroutine that called Run, RunUntil or Step, or on the Group worker that
// runs a partition's window (loop.go). Simulated threads (internal/proc)
// are coroutines (coro.go) that run only while that goroutine waits for
// them, so exactly one goroutine per simulator is running at a time and no
// locking is required anywhere in the simulation. "Driver context", in
// this and the other packages, means an event callback, which always runs
// on that goroutine, as opposed to a thread's code.
package sim

import (
	"fmt"
	"math"
	"time"

	"amoebasim/internal/metrics"
)

// Tracer receives protocol trace events (see internal/trace). A nil tracer
// costs one branch per event site.
type Tracer interface {
	Trace(at Time, source, kind, detail string)
}

// Phase classifies a structured trace event: an instantaneous point, or
// the begin/end edge of a span.
type Phase uint8

const (
	PhaseInstant Phase = iota
	PhaseBegin
	PhaseEnd
)

func (p Phase) String() string {
	switch p {
	case PhaseBegin:
		return "B"
	case PhaseEnd:
		return "E"
	default:
		return "I"
	}
}

// SpanTracer is an optional extension of Tracer for structured span
// events. Begin and End edges carry a correlation id allocated by the
// simulator, so an exported trace can be reassembled into intervals
// (request → reply, fragment burst → reassembly) without string parsing.
// Tracers that do not implement it receive spans as ordinary events.
type SpanTracer interface {
	Tracer
	TraceSpan(at Time, ph Phase, span uint64, source, kind, detail string)
}

// Time is an instant of simulated time, expressed as the duration since the
// start of the simulation. The zero Time is the simulation start.
type Time time.Duration

// Duration converts a Time back to the duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two instants.
func (t Time) Sub(o Time) time.Duration { return time.Duration(t - o) }

// Seconds reports t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a cancellable handle to a scheduled callback, returned by
// Sim.Schedule and friends. It is a small value (the pooled slot pointer
// plus the slot's generation at schedule time), so holding or copying one
// costs nothing and never extends the life of the underlying slot: once
// the event fires or is canceled the slot is recycled, its generation
// advances, and every outstanding handle to the old occurrence goes
// stale. Cancel and Pending on a stale handle are safe no-ops. The zero
// Event is a valid "no event" handle.
type Event struct {
	e   *event
	gen uint64
}

// Pending reports whether the scheduled callback is still queued — i.e.
// it has not fired and has not been canceled.
func (h Event) Pending() bool {
	return h.e != nil && h.gen == h.e.gen && h.e.fn != nil
}

// At reports the instant the event is scheduled to fire, or zero once the
// handle is no longer pending.
func (h Event) At() Time {
	if h.Pending() {
		return h.e.at
	}
	return 0
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now      Time
	seq      uint64
	q        eventQueue
	stopped  bool
	events   uint64 // total events executed
	tracer   Tracer
	spans    SpanTracer // tracer, if it also handles spans
	causal   CausalTracer
	spanSeq  uint64
	registry *metrics.Registry
	part     int32  // partition id within group (0 standalone)
	group    *Group // conservative parallel group, nil standalone
}

// SetTracer installs a protocol event tracer (nil disables tracing).
func (s *Sim) SetTracer(tr Tracer) {
	s.tracer = tr
	s.spans, _ = tr.(SpanTracer)
}

// SetMetrics attaches a metrics registry (nil disables metrics, the
// default). Layers resolve their handles at construction time, so the
// registry must be attached before the cluster is built.
func (s *Sim) SetMetrics(r *metrics.Registry) { s.registry = r }

// Metrics returns the attached registry, or nil when metrics are
// disabled. The nil registry hands out nil handles whose operations are
// no-ops, so call sites need only the usual one-branch guard.
func (s *Sim) Metrics() *metrics.Registry { return s.registry }

// Tracing reports whether a tracer is installed; call before building
// expensive detail strings.
func (s *Sim) Tracing() bool { return s.tracer != nil }

// Trace emits one protocol trace event. The format string is expanded
// only when a tracer is installed.
func (s *Sim) Trace(source, kind, format string, args ...any) {
	if s.tracer == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	s.tracer.Trace(s.now, source, kind, detail)
}

// SpanBegin opens a structured span and returns its correlation id for
// the matching SpanEnd. With no tracer installed it returns 0 and does
// nothing; span ids therefore only advance while tracing, keeping traced
// and untraced runs otherwise identical.
func (s *Sim) SpanBegin(source, kind, format string, args ...any) uint64 {
	if s.tracer == nil {
		return 0
	}
	s.spanSeq++
	id := s.spanSeq
	s.traceSpan(PhaseBegin, id, source, kind, format, args...)
	return id
}

// SpanEnd closes the span opened by SpanBegin. A zero id (tracing was off
// at begin time) is ignored.
func (s *Sim) SpanEnd(span uint64, source, kind, format string, args ...any) {
	if s.tracer == nil || span == 0 {
		return
	}
	s.traceSpan(PhaseEnd, span, source, kind, format, args...)
}

func (s *Sim) traceSpan(ph Phase, span uint64, source, kind, format string, args ...any) {
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	if s.spans != nil {
		s.spans.TraceSpan(s.now, ph, span, source, kind, detail)
		return
	}
	s.tracer.Trace(s.now, source, kind, detail)
}

// New returns a fresh simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// EventsRun reports how many events have executed so far.
func (s *Sim) EventsRun() uint64 { return s.events }

// Schedule arranges for fn to run d after the current time. A negative d is
// treated as zero. It returns a handle so the caller may cancel the event.
func (s *Sim) Schedule(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt arranges for fn to run at instant t. Scheduling in the past is
// an error in the simulation logic and panics, because it would silently
// reorder causality. fn must not be nil (a nil callback would be
// indistinguishable from a canceled event).
func (s *Sim) ScheduleAt(t Time, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	e := s.q.alloc()
	e.at = t
	e.gat = s.now
	e.key = s.nextKey()
	e.fn = fn
	s.q.pushLocal(e)
	return Event{e: e, gen: e.gen}
}

// ScheduleOn arranges for fn to run at instant t on dst's clock. With dst
// == s (or no partition group) it is ScheduleAt without the cancel
// handle; across partitions the event is staged in the group outbox and
// merged into dst's queue at the next lookahead barrier, carrying this
// simulator's (schedule-time, partition, sequence) stamps so the merged
// pop order is independent of worker interleaving. t must be at least the
// group lookahead past the current window start; the merge enforces this.
func (s *Sim) ScheduleOn(dst *Sim, t Time, fn func()) {
	if dst == s || s.group == nil {
		dst.ScheduleAt(t, fn)
		return
	}
	s.group.send(s, dst, t, fn)
}

// Cancel removes a pending event in O(1) by tombstoning its slot; the
// tombstone is skipped when it reaches the top of the queue, and the queue
// is compacted when tombstones outnumber live events. Canceling an event
// that already fired or was already canceled — including via a handle
// whose slot has since been recycled for a newer event — is a safe no-op.
// It reports whether the event was pending.
func (s *Sim) Cancel(h Event) bool {
	e := h.e
	if e == nil || h.gen != e.gen || e.fn == nil {
		return false
	}
	e.fn = nil
	s.q.dead++
	if s.q.queued >= minQueueCap && s.q.dead > s.q.queued/2 {
		s.q.compact()
	}
	return true
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed. If the event resumes a
// simulated thread, Step returns once that thread parks.
func (s *Sim) Step() bool {
	n := s.events
	s.drive(math.MaxInt64, n+1)
	return s.events != n
}

// Run executes events until the queue is empty or Stop is called.
func (s *Sim) Run() { s.drive(math.MaxInt64, noLimit) }

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (s *Sim) RunUntil(t Time) {
	s.drive(t, noLimit)
	if t > s.now {
		s.now = t
	}
}

// Stop makes Run or RunUntil return after the current event completes or,
// when a simulated thread calls it, once that thread parks.
func (s *Sim) Stop() { s.stopped = true }

// Pending reports the number of events still queued (canceled events are
// excluded, whether or not their tombstones have been collected).
func (s *Sim) Pending() int { return s.q.live() }
