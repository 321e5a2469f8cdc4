package sim

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"
)

// The differential test runs one seeded random program against the
// engine and against refQueue, a model that is correct by inspection: a
// flat list, stable-sorted by (at, seq) before every dispatch. Dispatch
// order, Stop results, Now, Executed and Pending must agree at every
// step.

// queue is what a program drives: the engine's scheduling surface. The
// closure entry points (At, After), the Event-object ones (Schedule,
// ScheduleAt) and caller-owned timers all draw from one seq counter, so a
// program mixes them freely.
type queue interface {
	at(t Time, fn func()) stopper
	after(d Duration, fn func()) stopper
	scheduleAt(t Time, fn func())
	schedule(d Duration, fn func())
	newOwned() owned
	step() bool
	runUntil(t Time)
	halt()
	now() Time
	executed() uint64
	pending() int
}

type stopper interface{ Stop() bool }

// owned is a record that embeds its timer: armed, stopped and armed
// again, never while pending.
type owned interface {
	stopper
	arm(d Duration, fn func())
}

// objEvent is an Event that is not a func.
type objEvent struct{ fn func() }

func (o *objEvent) Fire() { o.fn() }

type engineOwned struct {
	tm Timer
	e  *Engine
	fn func()
}

func (o *engineOwned) Fire()      { o.fn() }
func (o *engineOwned) Stop() bool { return o.tm.Stop() }
func (o *engineOwned) arm(d Duration, fn func()) {
	o.fn = fn
	o.tm.Arm(o.e, d, o)
}

type engineQueue struct{ e *Engine }

func (q engineQueue) at(t Time, fn func()) stopper        { return q.e.At(t, fn) }
func (q engineQueue) after(d Duration, fn func()) stopper { return q.e.After(d, fn) }
func (q engineQueue) scheduleAt(t Time, fn func())        { q.e.ScheduleAt(t, &objEvent{fn}) }
func (q engineQueue) schedule(d Duration, fn func())      { q.e.Schedule(d, &objEvent{fn}) }
func (q engineQueue) newOwned() owned                     { return &engineOwned{e: q.e} }
func (q engineQueue) step() bool                          { return q.e.Step() }
func (q engineQueue) runUntil(t Time)                     { q.e.RunUntil(t) }
func (q engineQueue) halt()                               { q.e.Stop() }
func (q engineQueue) now() Time                           { return q.e.Now() }
func (q engineQueue) executed() uint64                    { return q.e.Executed }
func (q engineQueue) pending() int                        { return q.e.Pending() }

type refEvent struct {
	at      Time
	seq     uint64
	fn      func()
	pending bool
	q       *refQueue
}

func (ev *refEvent) Stop() bool {
	if !ev.pending {
		return false
	}
	ev.pending = false
	for i, x := range ev.q.events {
		if x == ev {
			ev.q.events = append(ev.q.events[:i], ev.q.events[i+1:]...)
			break
		}
	}
	return true
}

type refQueue struct {
	clock   Time
	seq     uint64
	events  []*refEvent
	count   uint64
	running bool
}

func (q *refQueue) at(t Time, fn func()) stopper {
	ev := &refEvent{at: t, seq: q.seq, fn: fn, pending: true, q: q}
	q.seq++
	q.events = append(q.events, ev)
	return ev
}
func (q *refQueue) after(d Duration, fn func()) stopper {
	if d < 0 {
		d = 0
	}
	return q.at(q.clock.Add(d), fn)
}
func (q *refQueue) scheduleAt(t Time, fn func())   { q.at(t, fn) }
func (q *refQueue) schedule(d Duration, fn func()) { q.after(d, fn) }
func (q *refQueue) newOwned() owned                { return &refOwned{q: q} }

// refOwned models an embedded timer as whichever list entry its last arm
// made.
type refOwned struct {
	q   *refQueue
	cur stopper
}

func (o *refOwned) Stop() bool { return o.cur != nil && o.cur.Stop() }
func (o *refOwned) arm(d Duration, fn func()) {
	o.cur = o.q.after(d, fn)
}

func (q *refQueue) sort() {
	sort.SliceStable(q.events, func(i, j int) bool {
		a, b := q.events[i], q.events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

func (q *refQueue) step() bool {
	if len(q.events) == 0 {
		return false
	}
	q.sort()
	ev := q.events[0]
	q.events = q.events[1:]
	ev.pending = false
	q.clock = ev.at
	q.count++
	ev.fn()
	return true
}

func (q *refQueue) runUntil(t Time) {
	q.running = true
	for q.running && len(q.events) > 0 {
		q.sort()
		if q.events[0].at > t {
			break
		}
		q.step()
	}
	q.running = false
	if q.clock < t {
		q.clock = t
	}
}
func (q *refQueue) halt()            { q.running = false }
func (q *refQueue) now() Time        { return q.clock }
func (q *refQueue) executed() uint64 { return q.count }
func (q *refQueue) pending() int     { return len(q.events) }

// program is one seeded run. Every random draw comes from r, in driver
// and callbacks alike, so two queues that dispatch in the same order see
// the same program, and the first divergence shows in the log.
type program struct {
	q       queue
	r       *Rand
	log     []string
	handles []stopper
	owned   []owned
	next    int // next event id
	budget  int // events the program may still schedule
}

func (p *program) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

// arm schedules one event through a randomly chosen entry point. Delays
// are tiny so equal timestamps are the common case.
func (p *program) arm() {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := p.next
	p.next++
	fn := func() { p.fire(id) }
	d := Duration(p.r.Intn(6)) - 1 // -1..4: After clamps the negative one
	if d < 0 && p.r.Intn(2) == 0 {
		d = 0
	}
	switch p.r.Intn(5) {
	case 0:
		p.handles = append(p.handles, p.q.after(d, fn))
	case 1:
		if d < 0 {
			d = 0
		}
		p.handles = append(p.handles, p.q.at(p.q.now().Add(d), fn))
	case 2:
		p.q.schedule(d, fn)
	case 3:
		if d < 0 {
			d = 0
		}
		p.q.scheduleAt(p.q.now().Add(d), fn)
	case 4:
		// A caller-owned timer: a new record, or an old one armed again
		// after a Stop that says whether it was still pending. Inside a
		// callback the old one may be the record that is firing.
		var o owned
		if len(p.owned) > 0 && p.r.Intn(2) == 0 {
			i := p.r.Intn(len(p.owned))
			o = p.owned[i]
			p.logf("rearm owned #%d, stop = %v", i, o.Stop())
		} else {
			o = p.q.newOwned()
			p.owned = append(p.owned, o)
			p.handles = append(p.handles, o)
		}
		o.arm(d, fn)
	}
	p.logf("arm %d +%d", id, d)
}

// stop cancels a random handle — pending, fired or already stopped —
// and sometimes stops it twice.
func (p *program) stop() {
	if len(p.handles) == 0 {
		return
	}
	i := p.r.Intn(len(p.handles))
	p.logf("stop #%d = %v", i, p.handles[i].Stop())
	if p.r.Intn(3) == 0 {
		p.logf("stop #%d again = %v", i, p.handles[i].Stop())
	}
}

// fire is every event's callback: it logs the dispatch, then schedules
// and stops from inside the event, which is where a same-timestamp later
// event gets cancelled by an earlier one.
func (p *program) fire(id int) {
	p.logf("fire %d at %d", id, p.q.now())
	for n := p.r.Intn(3); n > 0; n-- {
		switch p.r.Intn(5) {
		case 0, 1:
			p.arm()
		case 2, 3:
			p.stop()
		case 4:
			if p.r.Intn(4) == 0 {
				p.q.halt()
				p.logf("halt")
			}
		}
	}
}

func runProgram(q queue, seed uint64) []string {
	p := &program{q: q, r: NewRand(seed), budget: 300}
	for op := 0; op < 80; op++ {
		switch p.r.Intn(8) {
		case 0, 1, 2:
			p.arm()
		case 3:
			p.stop()
		case 4, 5:
			p.logf("step = %v", q.step())
		case 6:
			q.runUntil(q.now().Add(Duration(p.r.Intn(8))))
			p.logf("rununtil")
		case 7:
			// A burst at one timestamp, then cancel from the middle of it.
			for n := 2 + p.r.Intn(4); n > 0; n-- {
				p.arm()
			}
			p.stop()
		}
		p.logf("now=%d executed=%d pending=%d", q.now(), q.executed(), q.pending())
	}
	// Drain: whatever is left must come out in the same order too.
	for q.step() {
	}
	p.logf("end now=%d executed=%d pending=%d", q.now(), q.executed(), q.pending())
	return p.log
}

func TestEngineMatchesReferenceQueue(t *testing.T) {
	for seed := uint64(1); seed <= 1500; seed++ {
		got := runProgram(engineQueue{NewEngine()}, seed)
		want := runProgram(&refQueue{}, seed)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<log ended>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d diverges at log line %d:\n engine:    %s\n reference: %s\n before: %v",
					seed, i, g, want[i], want[max(0, i-6):i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(got), len(want))
		}
	}
}

// TestPendingCountsLiveEventsOnly: Stop removes the event, so Pending
// drops at once rather than when the dead entry would have drained.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := NewEngine()
	var tms []*Timer
	for i := 0; i < 100; i++ {
		tms = append(tms, e.After(Duration(10+i%7), func() {}))
	}
	e.Schedule(3, &objEvent{func() {}})
	if e.Pending() != 101 {
		t.Fatalf("Pending = %d after 101 schedules", e.Pending())
	}
	for i, tm := range tms {
		if i%2 == 0 && !tm.Stop() {
			t.Fatalf("Stop of pending timer %d reported false", i)
		}
	}
	if e.Pending() != 51 {
		t.Fatalf("Pending = %d after stopping 50 of 101, want 51", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 || e.Executed != 51 {
		t.Fatalf("after Run: Pending=%d Executed=%d, want 0 and 51", e.Pending(), e.Executed)
	}
	for i, tm := range tms {
		if tm.Stop() {
			t.Fatalf("Stop of timer %d after the queue drained reported true", i)
		}
	}
}

// TestEngineAllocs pins what one event costs: the handle for At/After,
// nothing for an event object the caller already has or for a timer
// embedded in a record.
func TestEngineAllocs(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	obj := &objEvent{nop}
	for i := 0; i < 1024; i++ {
		e.Schedule(Duration(1+i), obj)
	}
	if n := testing.AllocsPerRun(1000, func() { e.After(5, nop); e.Step() }); n > 1 {
		t.Errorf("After+Step allocates %v times, want <= 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() { e.Schedule(5, obj); e.Step() }); n != 0 {
		t.Errorf("Schedule+Step allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { e.ScheduleAt(e.Now()+5, obj); e.Step() }); n != 0 {
		t.Errorf("ScheduleAt+Step allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { e.After(10*Millisecond, nop).Stop() }); n > 1 {
		t.Errorf("After+Stop allocates %v times, want <= 1", n)
	}
	rec := &engineOwned{e: e}
	if n := testing.AllocsPerRun(1000, func() { rec.arm(10*Millisecond, nop); rec.Stop() }); n != 0 {
		t.Errorf("Arm+Stop allocates %v times, want 0", n)
	}
}

// TestEntrySize: the queue moves entries by value on every sift, so the
// Event interface must not have grown them past the four words they were.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 32 {
		t.Errorf("entry is %d bytes, want <= 32", n)
	}
}

// BenchmarkScheduleDispatch is one After plus one Step with 1024 events
// pending.
func BenchmarkScheduleDispatch(b *testing.B) {
	e, r, nop := NewEngine(), NewRand(1), func() {}
	for i := 0; i < 1024; i++ {
		e.After(Duration(1+r.Intn(1<<20)), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Duration(1+r.Intn(1<<20)), nop)
		e.Step()
	}
}

// BenchmarkTimerStopChurn is the fabric router's forward pattern: arm a
// timeout 10 ms out, cancel it microseconds later, with 256 live events
// in the queue and the clock moving.
func BenchmarkTimerStopChurn(b *testing.B) {
	e, nop := NewEngine(), func() {}
	obj := &objEvent{nop}
	for i := 0; i < 256; i++ {
		e.Schedule(Duration(1+i)*Microsecond, obj)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.After(10*Millisecond, nop)
		e.Schedule(256*Microsecond, obj)
		e.Step()
		tm.Stop()
	}
}
