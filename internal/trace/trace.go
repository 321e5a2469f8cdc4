// Package trace captures the message-level history of a simulation run.
//
// The Figure-2 reproduction (experiment E1) asserts on the exact sequence
// of control-plane messages during KVS application initialization, so the
// tracer records (time, source, destination, kind, detail) tuples and can
// render them as the paper's sequence diagram.
package trace

import (
	"fmt"
	"strings"

	"nocpu/internal/sim"
)

// Event is one recorded occurrence.
type Event struct {
	At     sim.Time
	Src    string
	Dst    string
	Kind   string
	Detail string
}

// String renders the event as one sequence-diagram line, with no
// trailing blanks when the detail is empty.
func (e Event) String() string {
	arrow := "->"
	if e.Dst == "" {
		arrow = "  "
	}
	return strings.TrimRight(fmt.Sprintf("%12v  %-12s %s %-12s %-22s %s", e.At, e.Src, arrow, e.Dst, e.Kind, e.Detail), " ")
}

// Tracer accumulates events. A nil *Tracer is valid and records nothing,
// so hot paths can call t.Record unconditionally.
type Tracer struct {
	events []Event
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record appends an event.
func (t *Tracer) Record(at sim.Time, src, dst, kind, detail string) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{At: at, Src: src, Dst: dst, Kind: kind, Detail: detail})
}

// Events returns the recorded events in order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Kinds returns just the Kind strings, in order — handy for asserting
// message sequences in tests.
func (t *Tracer) Kinds() []string {
	if t == nil {
		return nil
	}
	out := make([]string, len(t.events))
	for i, e := range t.events {
		out[i] = e.Kind
	}
	return out
}

// Filter returns the events whose Kind has the given prefix.
func (t *Tracer) Filter(kindPrefix string) []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, e := range t.events {
		if strings.HasPrefix(e.Kind, kindPrefix) {
			out = append(out, e)
		}
	}
	return out
}

// String renders the whole trace.
func (t *Tracer) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range t.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}
