package overload

import (
	"strings"
	"testing"

	"nocpu/internal/metrics"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// echoTarget replies after a fixed service delay (infinite concurrency —
// a pure delay line, no queueing).
func echoTarget(eng *sim.Engine, service sim.Duration) netsim.Target {
	return func(p []byte, reply func([]byte)) {
		eng.After(service, func() { reply([]byte{0}) })
	}
}

func TestRunStepClassifiesOutcomes(t *testing.T) {
	eng := sim.NewEngine()
	// 1 req/us offered. Service takes 50us: with 2us wire each way the
	// round trip is ~54us, inside the 100us deadline, so everything is OK.
	res := RunStep(eng, echoTarget(eng, 50*sim.Microsecond), 1e6, 3, sim.Millisecond, 100*sim.Microsecond,
		func(rd *sim.Rand, seq uint64, deadline uint64) []byte {
			if deadline == 0 {
				t.Fatal("deadline not stamped")
			}
			return []byte{1}
		},
		func(resp []byte) Outcome { return OutcomeOK })
	if res.Sent == 0 {
		t.Fatal("no requests sent")
	}
	if res.OK != res.Sent || res.Late+res.Shed+res.Errors != 0 {
		t.Fatalf("want all OK, got %+v", res)
	}
	if res.Resolved() != res.Sent {
		t.Fatalf("Q3 broken in harness itself: %+v", res)
	}
	if res.Goodput <= 0 {
		t.Fatalf("goodput not computed: %+v", res)
	}
}

func TestRunStepMarksLate(t *testing.T) {
	eng := sim.NewEngine()
	// The 10us deadline is below the service time: all late.
	res := RunStep(eng, echoTarget(eng, 50*sim.Microsecond), 100000, 3, sim.Millisecond, 10*sim.Microsecond,
		func(rd *sim.Rand, seq uint64, deadline uint64) []byte { return []byte{1} },
		func(resp []byte) Outcome { return OutcomeOK })
	if res.Late != res.Sent {
		t.Fatalf("want all late, got %+v", res)
	}
	if res.Goodput != 0 {
		t.Fatalf("late work counted as goodput: %+v", res)
	}
}

func TestRunStepDeterministic(t *testing.T) {
	run := func() StepResult {
		eng := sim.NewEngine()
		return RunStep(eng, echoTarget(eng, 5*sim.Microsecond), 100000, 7, 10*sim.Millisecond, sim.Millisecond,
			func(rd *sim.Rand, seq uint64, deadline uint64) []byte { return []byte{1} },
			func(resp []byte) Outcome { return OutcomeOK })
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical plans produced different results:\n%+v\n%+v", a, b)
	}
}

func TestLedgerQ1(t *testing.T) {
	l := NewLedger()
	ok := metrics.NewGauge(4)
	ok.Set(4)
	bad := metrics.NewGauge(4)
	bad.Set(5)
	bad.Set(0)
	unbounded := metrics.NewGauge(0)
	l.Watch("fine", ok)
	l.Watch("blown", bad)
	l.Watch("unbounded", unbounded)
	l.Watch("ignored-nil", nil)
	got := l.Audit()
	if len(got) != 2 {
		t.Fatalf("want 2 violations, got %v", got)
	}
	if !strings.Contains(got[0], "unbounded") && !strings.Contains(got[1], "unbounded") {
		t.Errorf("unbounded watched gauge not reported: %v", got)
	}
	if !strings.Contains(strings.Join(got, "\n"), `"blown" reached depth 5`) {
		t.Errorf("blown bound not reported: %v", got)
	}
}

func TestLedgerQ2(t *testing.T) {
	l := NewLedger()
	l.Record(StepResult{Multiplier: 1, Sent: 10, OK: 10, Goodput: 1000})
	l.Record(StepResult{Multiplier: 2, Sent: 20, OK: 7, Shed: 13, Goodput: 700})
	got := l.Audit()
	if len(got) != 1 || !strings.Contains(got[0], "Q2") {
		t.Fatalf("want one Q2 violation, got %v", got)
	}
	// At exactly the floor it passes.
	l2 := NewLedger()
	l2.Record(StepResult{Multiplier: 1, Sent: 10, OK: 10, Goodput: 1000})
	l2.Record(StepResult{Multiplier: 2, Sent: 20, OK: 8, Shed: 12, Goodput: 800})
	if got := l2.Audit(); len(got) != 0 {
		t.Fatalf("floor goodput flagged: %v", got)
	}
	// Missing 2x step: Q2 not judged.
	l3 := NewLedger()
	l3.Record(StepResult{Multiplier: 1, Sent: 10, OK: 10, Goodput: 1000})
	if got := l3.Audit(); len(got) != 0 {
		t.Fatalf("partial ramp flagged: %v", got)
	}
}

func TestLedgerQ3(t *testing.T) {
	l := NewLedger()
	l.Record(StepResult{Multiplier: 4, Sent: 10, OK: 5, Late: 1, Shed: 3, Errors: 1})
	if got := l.Audit(); len(got) != 0 {
		t.Fatalf("fully resolved step flagged: %v", got)
	}
	l.Record(StepResult{Multiplier: 2, Sent: 10, OK: 5, Shed: 3})
	got := l.Audit()
	if len(got) != 1 || !strings.Contains(got[0], "Q3") {
		t.Fatalf("want one Q3 violation, got %v", got)
	}
}
