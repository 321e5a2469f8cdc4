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

// Micros returns the duration in (possibly fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Add returns t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// entry is one queued callback. Entries are ordered by (at, seq): seq is
// the engine-wide insertion count, so events with equal timestamps fire
// in the order they were scheduled, which keeps runs reproducible. tm is
// the cancellation handle, nil for events scheduled without one.
type entry struct {
	at  Time
	seq uint64
	fn  func()
	tm  *Timer
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Timer is a handle to a scheduled event that can be cancelled. It is
// inert once the event has fired or been stopped.
type Timer struct {
	eng *Engine // nil once fired or stopped
	idx int     // position of the entry in eng.events while pending
}

// Stop cancels the timer, removing its event from the queue. It reports
// whether the callback was still pending (false means it already fired
// or was already stopped).
func (t *Timer) Stop() bool {
	if t == nil || t.eng == nil {
		return false
	}
	t.eng.remove(t.idx)
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
// violation), never a recoverable state.
func (e *Engine) At(t Time, fn func()) *Timer {
	tm := &Timer{eng: e}
	e.push(t, fn, tm)
	return tm
}

// After schedules fn d nanoseconds from now and returns a handle that can
// cancel it. Negative d is clamped to 0.
func (e *Engine) After(d Duration, fn func()) *Timer {
	return e.At(e.deadline(d), fn)
}

// ScheduleAt is At for callers that never cancel: no handle is made, so
// the engine allocates nothing.
func (e *Engine) ScheduleAt(t Time, fn func()) { e.push(t, fn, nil) }

// Schedule is After for callers that never cancel.
func (e *Engine) Schedule(d Duration, fn func()) { e.push(e.deadline(d), fn, nil) }

func (e *Engine) deadline(d Duration) Time {
	if d < 0 {
		d = 0
	}
	return e.now.Add(d)
}

// Pending reports how many events are queued. Cancelled events are not
// counted: Stop removes them.
func (e *Engine) Pending() int { return len(e.events) }

func (e *Engine) push(t Time, fn func(), tm *Timer) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.events = append(e.events, entry{})
	e.up(len(e.events)-1, entry{at: t, seq: e.seq, fn: fn, tm: tm})
	e.seq++
}

// set stores x at heap position i and tells its handle where it is.
func (e *Engine) set(i int, x entry) {
	e.events[i] = x
	if x.tm != nil {
		x.tm.idx = i
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
	if tm := e.events[i].tm; tm != nil {
		tm.eng = nil
	}
	n := len(e.events) - 1
	last := e.events[n]
	e.events[n] = entry{} // drop the callback reference
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
	at, fn := e.events[0].at, e.events[0].fn
	e.remove(0)
	e.now = at
	e.Executed++
	fn()
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
