package chaos

import (
	"reflect"
	"testing"

	"nocpu/internal/sim"
)

func ms(n int) sim.Duration { return sim.Duration(n) * sim.Millisecond }

func testPlan(seed uint64) Plan {
	return Plan{
		Seed:    seed,
		Start:   sim.Time(0).Add(ms(5)),
		Window:  ms(50),
		Crashes: 4,
		MinGap:  ms(8),
		Doubles: 1,
		Targets: []Target{
			{Name: "nic", Crash: func() {}},
			{Name: "ssd", Crash: func() {}},
			{Name: "memctrl", Crash: func() {}},
		},
	}
}

func mustCompile(t *testing.T, p Plan) []Event {
	t.Helper()
	events, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// Compile is a pure function of the plan: same seed, same timetable;
// different seed, different timetable.
func TestCompileDeterministic(t *testing.T) {
	a := mustCompile(t, testPlan(42))
	b := mustCompile(t, testPlan(42))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan compiled differently:\n%v\nvs\n%v", a, b)
	}
	c := mustCompile(t, testPlan(43))
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds compiled identically:\n%v", a)
	}
}

// TestCompileShape holds Compile to what it promises: the events sorted,
// at least MinGap apart, the first at or after Start, doubles first. The
// second plan packs 4 crashes 20 ms apart into a 45 ms window, so MinGap
// must push its last events past the window's end.
func TestCompileShape(t *testing.T) {
	packed := testPlan(7)
	packed.Window, packed.MinGap = ms(45), ms(20)
	for _, p := range []Plan{testPlan(7), packed} {
		events := mustCompile(t, p)
		if len(events) != p.Crashes {
			t.Fatalf("want %d events, got %d", p.Crashes, len(events))
		}
		var prev sim.Time
		for i, ev := range events {
			if ev.At < p.Start {
				t.Errorf("event %d at %v before window start %v", i, ev.At, p.Start)
			}
			if i > 0 && ev.At.Sub(prev) < p.MinGap {
				t.Errorf("events %d and %d only %v apart, MinGap %v", i-1, i, ev.At.Sub(prev), p.MinGap)
			}
			prev = ev.At
			want := 1
			if i < p.Doubles {
				want = 2
			}
			if len(ev.Targets) != want {
				t.Errorf("event %d has %d targets, want %d", i, len(ev.Targets), want)
			}
			if len(ev.Targets) == 2 && ev.Targets[0] == ev.Targets[1] {
				t.Errorf("event %d double-failure hit the same target twice", i)
			}
			for _, ti := range ev.Targets {
				if ti < 0 || ti >= len(p.Targets) {
					t.Errorf("event %d target index %d out of range", i, ti)
				}
			}
		}
	}
	events := mustCompile(t, packed)
	if end := packed.Start.Add(packed.Window); events[len(events)-1].At < end {
		t.Errorf("last event at %v, want MinGap to push it past the window end %v", events[len(events)-1].At, end)
	}
}

func TestCompileRejectsBadPlans(t *testing.T) {
	for name, mutate := range map[string]func(*Plan){
		"doubles exceed crashes": func(p *Plan) { p.Doubles = p.Crashes + 1 },
		"no targets":             func(p *Plan) { p.Targets = nil },
		"double needs two":       func(p *Plan) { p.Targets = p.Targets[:1] },
		"zero window":            func(p *Plan) { p.Window = 0 },
		"nil crash action":       func(p *Plan) { p.Targets[0].Crash = nil },
	} {
		p := testPlan(1)
		mutate(&p)
		if _, err := p.Compile(); err == nil {
			t.Errorf("%s: Compile accepted an invalid plan", name)
		}
	}
}

func TestLedgerCleanRun(t *testing.T) {
	l := NewLedger()
	l.NoteAttempt("k", 1)
	l.NoteAck("k", 1)
	l.NoteAttempt("k", 2) // crashed before ack
	l.NoteAttempt("k", 3)
	l.NoteAck("k", 3)
	l.NoteRead("k", 3, true)
	r := l.Report()
	if r.G1Lost != 0 || r.G2Dups != 0 {
		t.Fatalf("clean run flagged: %+v", r)
	}
	if !r.Clean(0) {
		t.Fatalf("Clean() false on clean run: %+v", r)
	}
	if r.Attempts != 3 || r.Acks != 2 || r.Reads != 1 {
		t.Fatalf("counters wrong: %+v", r)
	}
}

// An unacked write may or may not survive a crash; reading it back is
// legal as long as it does not shadow a newer acked write.
func TestLedgerUnackedWriteSurvives(t *testing.T) {
	l := NewLedger()
	l.NoteAttempt("k", 1)
	l.NoteAck("k", 1)
	l.NoteAttempt("k", 2) // never acked
	l.NoteRead("k", 2, true)
	if r := l.Report(); r.G1Lost != 0 || r.G2Dups != 0 {
		t.Fatalf("surviving unacked write flagged: %+v", r)
	}
}

func TestLedgerG1Violations(t *testing.T) {
	l := NewLedger()
	l.NoteAttempt("a", 1)
	l.NoteAck("a", 1)
	l.NoteAttempt("a", 2)
	l.NoteAck("a", 2)
	l.NoteRead("a", 1, true) // regressed below acked 2
	l.NoteAttempt("b", 1)
	l.NoteAck("b", 1)
	l.NoteRead("b", 0, false) // acked key vanished
	r := l.Report()
	if r.G1Lost != 2 {
		t.Fatalf("want 2 G1 violations, got %+v", r)
	}
	if r.Clean(0) {
		t.Fatal("Clean() true despite G1 violations")
	}
	if len(r.Violations) != 2 {
		t.Fatalf("want 2 violation notes, got %v", r.Violations)
	}
}

func TestLedgerG2Violations(t *testing.T) {
	l := NewLedger()
	l.NoteAttempt("a", 1)
	l.NoteRead("a", 7, true) // value never issued
	l.NoteAttempt("b", 1)
	l.NoteAttempt("b", 2)
	l.NoteRead("b", 2, true)
	l.NoteRead("b", 1, true) // regression: stale duplicate re-applied
	r := l.Report()
	if r.G2Dups != 2 {
		t.Fatalf("want 2 G2 violations, got %+v", r)
	}
}

func TestLedgerAbsentUnackedKeyOK(t *testing.T) {
	l := NewLedger()
	l.NoteAttempt("k", 1) // lost before ack: absence is legal
	l.NoteRead("k", 0, false)
	if r := l.Report(); r.G1Lost != 0 || r.G2Dups != 0 {
		t.Fatalf("absent unacked key flagged: %+v", r)
	}
}

func TestReportG3Bound(t *testing.T) {
	r := Report{Recoveries: []sim.Duration{ms(2), ms(9)}}
	if got := r.MaxRecovery(); got != ms(9) {
		t.Fatalf("MaxRecovery = %v, want %v", got, ms(9))
	}
	if !r.Clean(ms(10)) {
		t.Fatal("Clean(10ms) false for max 9ms")
	}
	if r.Clean(ms(5)) {
		t.Fatal("Clean(5ms) true for max 9ms")
	}
}

// R3: a key the sweep could not get a definitive answer for fails the
// run even with G1/G2 intact, and the tracked list is capped.
func TestLedgerUnroutable(t *testing.T) {
	l := NewLedger()
	l.NoteAttempt("k", 1)
	l.NoteAck("k", 1)
	if r := l.Report(); !r.Clean(0) || r.Unroutable != nil {
		t.Fatalf("ledger with no unroutable key not clean: %+v", r)
	}
	l.NoteUnroutable("k")
	r := l.Report()
	if r.G1Lost != 0 || r.G2Dups != 0 {
		t.Fatalf("unroutable key miscounted as G1/G2: %+v", r)
	}
	if !reflect.DeepEqual(r.Unroutable, []string{"k"}) {
		t.Fatalf("Unroutable = %v, want [k]", r.Unroutable)
	}
	if r.Clean(0) {
		t.Fatal("Clean() true despite an unroutable key")
	}
	for i := 0; i < 200; i++ {
		l.NoteUnroutable("k")
	}
	if n := len(l.Report().Unroutable); n != 64 {
		t.Fatalf("tracked %d unroutable keys, want the cap of 64", n)
	}
}

func TestLedgerKeysSorted(t *testing.T) {
	l := NewLedger()
	for _, k := range []string{"b", "a", "c"} {
		l.NoteAttempt(k, 1)
	}
	if got := l.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Keys() = %v", got)
	}
}
