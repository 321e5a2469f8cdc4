package faultinject

import (
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

func TestNilAndEmptyPlanesPass(t *testing.T) {
	var nilPlane *Plane
	if d := nilPlane.Filter(LayerBus, 0, 1, 2, msg.KindOpenReq); d.Op != Pass {
		t.Fatalf("nil plane intervened: %+v", d)
	}
	if nilPlane.Enabled() {
		t.Fatal("nil plane claims enabled")
	}
	if s := nilPlane.Stats(); s != (Stats{}) {
		t.Fatalf("nil plane has stats: %+v", s)
	}
	empty := New(1)
	if empty.Enabled() {
		t.Fatal("rule-less plane claims enabled")
	}
	if d := empty.Filter(LayerBus, 0, 1, 2, msg.KindOpenReq); d.Op != Pass {
		t.Fatalf("rule-less plane intervened: %+v", d)
	}
	if s := empty.Stats(); s.Inspected != 0 {
		t.Fatal("disabled plane counted traffic")
	}
}

func TestRuleFilters(t *testing.T) {
	mk := func(r Rule) *Plane { return New(1).Add(r) }
	cases := []struct {
		name string
		p    *Plane
		l    Layer
		now  sim.Time
		src  msg.DeviceID
		dst  msg.DeviceID
		kind msg.Kind
		want Op
	}{
		{"any matches", mk(Rule{Op: Drop}), LayerBus, 0, 1, 2, msg.KindOpenReq, Drop},
		{"layer mismatch", mk(Rule{Layer: LayerLink, Op: Drop}), LayerBus, 0, 1, 2, msg.KindOpenReq, Pass},
		{"layer match", mk(Rule{Layer: LayerLink, Op: Drop}), LayerLink, 0, 1, 2, msg.KindInvalid, Drop},
		{"src mismatch", mk(Rule{Src: 7, Op: Drop}), LayerBus, 0, 1, 2, msg.KindOpenReq, Pass},
		{"dst match", mk(Rule{Dst: 2, Op: Delay}), LayerBus, 0, 1, 2, msg.KindOpenReq, Delay},
		{"kind mismatch", mk(Rule{Kind: msg.KindAllocReq, Op: Drop}), LayerBus, 0, 1, 2, msg.KindOpenReq, Pass},
		{"kind ignored on link", mk(Rule{Layer: LayerLink, Kind: msg.KindAllocReq, Op: Drop}), LayerLink, 0, 1, 2, msg.KindInvalid, Drop},
		{"before window", mk(Rule{After: 100, Op: Drop}), LayerBus, 50, 1, 2, msg.KindOpenReq, Pass},
		{"inside window", mk(Rule{After: 100, Until: 200, Op: Drop}), LayerBus, 150, 1, 2, msg.KindOpenReq, Drop},
		{"after window", mk(Rule{After: 100, Until: 200, Op: Drop}), LayerBus, 200, 1, 2, msg.KindOpenReq, Pass},
	}
	for _, c := range cases {
		if d := c.p.Filter(c.l, c.now, c.src, c.dst, c.kind); d.Op != c.want {
			t.Errorf("%s: got %v want %v", c.name, d.Op, c.want)
		}
	}
}

func TestCountBudget(t *testing.T) {
	p := New(1).Add(Rule{Op: Drop, Count: 2})
	got := 0
	for i := 0; i < 5; i++ {
		if p.Filter(LayerBus, 0, 1, 2, msg.KindOpenReq).Op == Drop {
			got++
		}
	}
	if got != 2 {
		t.Fatalf("Count=2 rule applied %d times", got)
	}
	if s := p.Stats(); s.Dropped != 2 || s.Inspected != 5 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestFirstMatchWinsAndConsumes(t *testing.T) {
	// A probabilistic first rule that passes must NOT fall through to the
	// second rule: rule order alone decides who judges a message.
	p := New(1).
		Add(Rule{Op: Drop, Prob: 0.5}).
		Add(Rule{Op: Delay, Delay: 5})
	delays := 0
	for i := 0; i < 200; i++ {
		if p.Filter(LayerBus, 0, 1, 2, msg.KindOpenReq).Op == Delay {
			delays++
		}
	}
	if delays != 0 {
		t.Fatalf("probabilistic miss fell through to later rule %d times", delays)
	}
}

func TestProbabilisticRateIsSeededAndPlausible(t *testing.T) {
	run := func(seed uint64) int {
		p := New(seed).Add(Rule{Op: Drop, Prob: 0.3})
		n := 0
		for i := 0; i < 1000; i++ {
			if p.Filter(LayerBus, 0, 1, 2, msg.KindOpenReq).Op == Drop {
				n++
			}
		}
		return n
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a < 200 || a > 400 {
		t.Fatalf("30%% rule dropped %d/1000", a)
	}
	if c := run(8); c == a {
		t.Fatalf("different seeds agreed exactly (%d) — suspicious", c)
	}
}

func TestDelayCarriesDuration(t *testing.T) {
	p := New(1).Add(Rule{Op: Reorder, Delay: 42})
	d := p.Filter(LayerBus, 0, 1, 2, msg.KindOpenReq)
	if d.Op != Reorder || d.Delay != 42 {
		t.Fatalf("decision %+v", d)
	}
}

func TestSlowCarriesFactor(t *testing.T) {
	p := New(1).Add(Rule{Op: Slow, Factor: 20})
	d := p.Filter(LayerLink, 0, 1, 2, msg.KindInvalid)
	if d.Op != Slow || d.Factor != 20 {
		t.Fatalf("decision %+v", d)
	}
	if s := p.Stats(); s.Slowed != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPartitionOneWayIsAsymmetric(t *testing.T) {
	p := New(1).PartitionOneWay(1, 2, 100, 200)
	if d := p.Filter(LayerLink, 150, 1, 2, msg.KindInvalid); d.Op != Drop {
		t.Fatalf("cut direction passed: %+v", d)
	}
	if d := p.Filter(LayerLink, 150, 2, 1, msg.KindInvalid); d.Op != Pass {
		t.Fatalf("reverse direction intervened: %+v", d)
	}
	if d := p.Filter(LayerLink, 250, 1, 2, msg.KindInvalid); d.Op != Pass {
		t.Fatalf("cut outlived its window: %+v", d)
	}
}

func TestPartitionGroupsCutBothWaysButNotWithin(t *testing.T) {
	a, b := []msg.DeviceID{1, 2}, []msg.DeviceID{3, 4}
	p := New(1).Partition(a, b, 0, 0)
	for _, s := range a {
		for _, d := range b {
			if dec := p.Filter(LayerLink, 10, s, d, msg.KindInvalid); dec.Op != Drop {
				t.Fatalf("%d->%d crossed the partition", s, d)
			}
			if dec := p.Filter(LayerLink, 10, d, s, msg.KindInvalid); dec.Op != Drop {
				t.Fatalf("%d->%d crossed the partition", d, s)
			}
		}
	}
	if dec := p.Filter(LayerLink, 10, 1, 2, msg.KindInvalid); dec.Op != Pass {
		t.Fatalf("intra-group traffic was cut: %+v", dec)
	}
	if dec := p.Filter(LayerLink, 10, 3, 4, msg.KindInvalid); dec.Op != Pass {
		t.Fatalf("intra-group traffic was cut: %+v", dec)
	}
}

func TestFlapAlternatesUpAndHealed(t *testing.T) {
	a, b := []msg.DeviceID{1}, []msg.DeviceID{2}
	p := New(1).Flap(a, b, 1000, 300, 1000, 3)
	cases := []struct {
		now  sim.Time
		want Op
	}{
		{500, Pass},  // before start
		{1100, Drop}, // cycle 0 up
		{1600, Pass}, // cycle 0 healed
		{2100, Drop}, // cycle 1 up
		{2600, Pass}, // cycle 1 healed
		{3299, Drop}, // cycle 2 up (last tick of the window)
		{3300, Pass}, // cycle 2 healed
		{4100, Pass}, // after the last cycle
	}
	for _, c := range cases {
		if d := p.Filter(LayerLink, c.now, 1, 2, msg.KindInvalid); d.Op != c.want {
			t.Errorf("t=%d: got %v want %v", c.now, d.Op, c.want)
		}
	}
}

func TestSlowMachineCoversBothDirections(t *testing.T) {
	p := New(1).SlowMachine(3, 40, 0, 0)
	if d := p.Filter(LayerLink, 10, 3, 1, msg.KindInvalid); d.Op != Slow || d.Factor != 40 {
		t.Fatalf("outbound: %+v", d)
	}
	if d := p.Filter(LayerLink, 10, 1, 3, msg.KindInvalid); d.Op != Slow || d.Factor != 40 {
		t.Fatalf("inbound: %+v", d)
	}
	if d := p.Filter(LayerLink, 10, 1, 2, msg.KindInvalid); d.Op != Pass {
		t.Fatalf("unrelated link slowed: %+v", d)
	}
}
