// Package sim provides a deterministic discrete-event simulation engine.
//
// Everything in the emulated CPU-less machine — bus messages, DMA
// transfers, flash operations, network arrivals — executes as events on a
// single virtual clock owned by an Engine. The engine is strictly
// deterministic: events fire in (time, insertion-sequence) order, and all
// randomness is drawn from an explicitly seeded Rand. Two runs with the
// same seed produce byte-identical traces.
//
// The engine is not safe for concurrent use; the whole simulation is
// single-threaded by design (determinism is a correctness requirement for
// the experiment harness, which asserts on exact event orderings).
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders a Time as a human-readable duration since start.
func (t Time) String() string { return Duration(t).String() }

// String renders a Duration using the most natural unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(d)/float64(Second))
	}
}

// Add returns t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is something the queue can fire. A component that owns a record
// for the work in flight (a NIC delivery, a store op, a pending request)
// makes the record its own event: the queue stores the record itself,
// so scheduling its next stage allocates nothing.
type Event interface {
	Fire()
}

// funcEvent is At's callback as an event. A func value is pointer-shaped,
// so storing one in the queue allocates nothing either.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// entry is one queued event. Entries are ordered by (at, seq): seq is
// the engine-wide insertion count, so events with equal timestamps fire
// in the order they were scheduled, which keeps runs reproducible. A
// cancellable event is queued as its *Timer, which is how the heap finds
// the handle whose position it must keep current.
type entry struct {
	at  Time
	seq uint64
	ev  Event
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a cancellable scheduled event. At and After return one as a
// handle; a component can also embed a Timer in a record it owns and Arm
// it, which schedules the record without allocating a handle. The zero
// Timer is ready to Arm, and a Timer is inert (Stop reports false, Arm is
// allowed again) once it has fired or been stopped. A Timer must not be
// copied while pending: the queue holds its address.
type Timer struct {
	eng *Engine // nil unless pending
	idx int     // position of the entry in eng.events while pending
	ev  Event   // what fires; nil unless pending
}

// Arm schedules ev to fire d nanoseconds from now (negative d is clamped
// to 0) with t as its cancellation handle. Arming a pending timer is a
// model bug and panics: the earlier event would become uncancellable.
func (t *Timer) Arm(e *Engine, d Duration, ev Event) { t.armAt(e, e.deadline(d), ev) }

func (t *Timer) armAt(e *Engine, at Time, ev Event) {
	if t.eng != nil {
		panic("sim: Arm of a pending timer")
	}
	if ev == nil {
		panic("sim: nil event")
	}
	e.push(at, t)
	t.eng, t.ev = e, ev
}

// Fire runs the armed event. The queue has already made t inert, so the
// event may re-arm it.
func (t *Timer) Fire() {
	ev := t.ev
	t.ev = nil
	ev.Fire()
}

// Pending reports whether the timer is armed and has not yet fired or been
// stopped.
func (t *Timer) Pending() bool { return t.eng != nil }

// Stop cancels the timer, removing its event from the queue. It reports
// whether the event was still pending (false means it already fired or
// was already stopped).
func (t *Timer) Stop() bool {
	if t == nil || t.eng == nil {
		return false
	}
	t.eng.remove(t.idx)
	t.ev = nil
	return true
}

// Engine owns the virtual clock and the pending-event queue.
type Engine struct {
	now Time
	// events is a 4-ary min-heap on (at, seq) holding live events only:
	// a stopped timer's entry is removed, never left to drain.
	events  []entry
	seq     uint64
	running bool
	// Executed counts events dispatched since creation; useful for
	// detecting runaway simulations in tests.
	Executed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn at absolute time t and returns a handle that can cancel
// it. Scheduling in the past panics: it indicates a model bug (causality
// violation), never a recoverable state. At and After are the engine's one
// closure form, for glue code (the experiment harness, fault schedules,
// tests); a component queues an Event it owns instead, so the concrete
// type of every queued event names the site that scheduled it.
func (e *Engine) At(t Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	tm := &Timer{}
	tm.armAt(e, t, funcEvent(fn))
	return tm
}

// After schedules fn d nanoseconds from now and returns a handle that can
// cancel it. Negative d is clamped to 0.
func (e *Engine) After(d Duration, fn func()) *Timer {
	return e.At(e.deadline(d), fn)
}

// ScheduleAt queues ev to fire at absolute time t. No handle is made, so
// the engine allocates nothing.
func (e *Engine) ScheduleAt(t Time, ev Event) { e.push(t, ev) }

// Schedule queues ev to fire d nanoseconds from now (negative d is clamped
// to 0).
func (e *Engine) Schedule(d Duration, ev Event) { e.push(e.deadline(d), ev) }

func (e *Engine) deadline(d Duration) Time {
	if d < 0 {
		d = 0
	}
	return e.now.Add(d)
}

// Pending reports how many events are queued. Cancelled events are not
// counted: Stop removes them.
func (e *Engine) Pending() int { return len(e.events) }

func (e *Engine) push(t Time, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if ev == nil {
		panic("sim: nil event")
	}
	e.events = append(e.events, entry{})
	e.up(len(e.events)-1, entry{at: t, seq: e.seq, ev: ev})
	e.seq++
}

// set stores x at heap position i and tells its handle where it is. The
// handle is found by a concrete-type check, one pointer comparison.
func (e *Engine) set(i int, x entry) {
	e.events[i] = x
	if tm, ok := x.ev.(*Timer); ok {
		tm.idx = i
	}
}

// up places x at or above the hole at position i.
func (e *Engine) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&e.events[p]) {
			break
		}
		e.set(i, e.events[p])
		i = p
	}
	e.set(i, x)
}

// down places x at or below the hole at position i.
func (e *Engine) down(i int, x entry) {
	ev := e.events
	for {
		c := 4*i + 1
		if c >= len(ev) {
			break
		}
		// m is the least of the up to four children.
		m := c
		for j, end := c+1, min(c+4, len(ev)); j < end; j++ {
			if ev[j].before(&ev[m]) {
				m = j
			}
		}
		if !ev[m].before(&x) {
			break
		}
		e.set(i, ev[m])
		i = m
	}
	e.set(i, x)
}

// remove deletes the entry at position i and makes its handle inert.
func (e *Engine) remove(i int) {
	if tm, ok := e.events[i].ev.(*Timer); ok {
		tm.eng = nil
	}
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = entry{} // drop the event reference
	e.events = e.events[:n]
	if i == n {
		return
	}
	// The displaced last entry may belong above or below the hole.
	if i > 0 && last.before(&e.events[(i-1)/4]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// Step dispatches the next event, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	at, ev := e.events[0].at, e.events[0].ev
	e.remove(0)
	e.now = at
	e.Executed++
	ev.Fire()
	return true
}

// Run dispatches events until the queue drains.
func (e *Engine) Run() {
	e.running = true
	for e.running && e.Step() {
	}
	e.running = false
}

// RunUntil dispatches events with timestamps <= t, then sets the clock to
// t (even if no event fired exactly at t).
func (e *Engine) RunUntil(t Time) {
	e.running = true
	for e.running && len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	e.running = false
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d from the current time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Stop halts a Run/RunUntil loop after the current event returns.
func (e *Engine) Stop() { e.running = false }
