// Package trace records protocol-level events from a simulation run: who
// sent what, when the sequencer assigned a number, when a retransmission
// fired. It exists for debugging protocol behaviour and for the
// `amoebasim -trace` timeline view; tracing is off (nil) by default and
// costs one branch per event site.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"amoebasim/internal/sim"
)

// Event is one recorded protocol event. Span and Phase are set for
// structured span edges (sim.SpanBegin/SpanEnd): events sharing a Span id
// bracket one logical operation.
type Event struct {
	At     sim.Time
	Source string // e.g. "cpu1"
	Kind   string // e.g. "rpc.req", "grp.seq"
	Detail string
	Span   uint64    // correlation id; 0 for plain events
	Phase  sim.Phase // Instant, Begin or End
}

func (e Event) String() string {
	if e.Span != 0 {
		return fmt.Sprintf("%-14v %-6s %-12s [%s#%d] %s", e.At, e.Source, e.Kind, e.Phase, e.Span, e.Detail)
	}
	return fmt.Sprintf("%-14v %-6s %-12s %s", e.At, e.Source, e.Kind, e.Detail)
}

// Log is a bounded in-memory event log implementing sim.Tracer. When
// full it behaves as a ring buffer: the oldest events are overwritten so
// the tail of the run — what debugging needs — is always retained, and
// Dropped reports how many were lost off the front.
type Log struct {
	max     int
	buf     []Event
	start   int // index of the oldest event once the buffer wrapped
	dropped int
}

var _ sim.Tracer = (*Log)(nil)

// NewLog creates a log keeping at most max events (0 = 64k default).
func NewLog(max int) *Log {
	if max <= 0 {
		max = 1 << 16
	}
	return &Log{max: max}
}

// Trace implements sim.Tracer.
func (l *Log) Trace(at sim.Time, source, kind, detail string) {
	l.add(Event{At: at, Source: source, Kind: kind, Detail: detail})
}

// TraceSpan implements sim.Tracer.
func (l *Log) TraceSpan(at sim.Time, ph sim.Phase, span uint64, source, kind, detail string) {
	l.add(Event{At: at, Source: source, Kind: kind, Detail: detail, Span: span, Phase: ph})
}

func (l *Log) add(e Event) {
	if len(l.buf) < l.max {
		l.buf = append(l.buf, e)
		return
	}
	// Full: overwrite the oldest event.
	l.buf[l.start] = e
	l.start = (l.start + 1) % l.max
	l.dropped++
}

// Events returns the recorded events in order, oldest first.
func (l *Log) Events() []Event {
	out := make([]Event, 0, len(l.buf))
	out = append(out, l.buf[l.start:]...)
	out = append(out, l.buf[:l.start]...)
	return out
}

// Len reports the number of recorded events.
func (l *Log) Len() int { return len(l.buf) }

// Dropped reports how many old events were overwritten after the log
// filled up.
func (l *Log) Dropped() int { return l.dropped }

// Filter returns the events whose kind has the given prefix, oldest first.
func (l *Log) Filter(kindPrefix string) []Event {
	var out []Event
	for _, e := range l.Events() {
		if strings.HasPrefix(e.Kind, kindPrefix) {
			out = append(out, e)
		}
	}
	return out
}

// WriteTo dumps the log as a timeline.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var n int64
	if l.dropped > 0 {
		c, err := fmt.Fprintf(w, "... %d older events dropped (log full)\n", l.dropped)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	for _, e := range l.Events() {
		c, err := fmt.Fprintln(w, e.String())
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// jsonEvent is the machine-readable form of an Event (`-trace-json`).
type jsonEvent struct {
	AtUS   int64  `json:"at_us"`
	Source string `json:"source"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Phase  string `json:"phase,omitempty"`
}

// jsonLog is the top-level `-trace-json` document.
type jsonLog struct {
	Dropped int         `json:"dropped"`
	Events  []jsonEvent `json:"events"`
}

// WriteJSON dumps the log as JSON with microsecond timestamps, oldest
// event first. Span edges carry "span" and "phase" ("B"/"E") fields.
func (l *Log) WriteJSON(w io.Writer) error {
	doc := jsonLog{Dropped: l.dropped, Events: make([]jsonEvent, 0, len(l.buf))}
	for _, e := range l.Events() {
		je := jsonEvent{
			AtUS:   int64(e.At.Duration().Microseconds()),
			Source: e.Source,
			Kind:   e.Kind,
			Detail: e.Detail,
			Span:   e.Span,
		}
		if e.Span != 0 {
			je.Phase = e.Phase.String()
		}
		doc.Events = append(doc.Events, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
