package overload

import (
	"strings"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/metrics"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// echoTarget answers every request OK after a fixed service delay
// (infinite concurrency: a pure delay line, no queueing).
type echoTarget struct {
	eng     *sim.Engine
	service sim.Duration
}

func (e echoTarget) Send(p []byte, reply func([]byte)) {
	resp := kvs.EncodeResponse(kvs.Response{Status: kvs.StatusOK})
	e.eng.After(e.service, func() { reply(resp) })
}

// A step is a function of its seed: the same open-loop load with a
// deadline, read through NewStep, gives the same outcome.
func TestRunStepDeterministic(t *testing.T) {
	run := func() StepResult {
		eng := sim.NewEngine()
		return NewStep(1, 100000, netsim.Run(eng, echoTarget{eng, 5 * sim.Microsecond}, netsim.Spec{
			Rate: 100000, Window: 10 * sim.Millisecond, Deadline: sim.Millisecond,
			Keys: []string{"a", "b", "c"}, Rand: sim.NewRand(7),
		}))
	}
	a, b := run(), run()
	if a.Sent == 0 || a.Resolved() != a.Sent {
		t.Fatalf("step did not resolve every request: %+v", a)
	}
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
