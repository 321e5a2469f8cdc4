// Package faultinject is the emulator's deterministic fault plane (§4
// "Error handling", §2.4 "viability" questions). It sits between a
// sender and the wire — on the system-management bus and on the
// interconnect — and decides, from its own seeded RNG and an ordered
// rule schedule, whether each message passes, is dropped, delayed,
// duplicated, or reordered. Device stalls are expressed as time-windowed
// drop/delay rules; crashes and restarts reuse the existing lifecycle
// hooks (bus.FailDevice, Device.Kill) scheduled at virtual times via
// CrashAt.
//
// Determinism: the plane owns a private sim.Rand forked from nothing but
// its seed, so two runs with the same seed, schedule and workload make
// identical decisions. A nil *Plane (or one with no rules) is a
// pass-through that draws no randomness and schedules no events, so a
// disabled plane leaves the simulation bit-identical to a build without
// it.
package faultinject

import (
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// Layer names the hop a rule applies to.
type Layer uint8

// Layers.
const (
	LayerAny  Layer = iota // matches every hop
	LayerBus               // system-management bus messages
	LayerLink              // interconnect: doorbells and DMA transfers
)

func (l Layer) String() string {
	switch l {
	case LayerAny:
		return "any"
	case LayerBus:
		return "bus"
	case LayerLink:
		return "link"
	}
	return "layer?"
}

// Op is what happens to a matched message.
type Op uint8

// Ops. Pass is the zero value so an unmatched Decision means "deliver
// normally".
const (
	Pass    Op = iota
	Drop       // silently lose the message
	Delay      // deliver after an extra Delay
	Dup        // deliver twice (identical envelope, same seq tag)
	Reorder    // defer past later traffic (implemented as a longer delay)
	Slow       // multiply the hop's base latency by Factor (fail-slow, not fail-stop)
)

func (o Op) String() string {
	switch o {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Dup:
		return "dup"
	case Reorder:
		return "reorder"
	case Slow:
		return "slow"
	}
	return "op?"
}

// Rule matches a subset of traffic and applies Op to it. Zero-valued
// filter fields match anything. First matching rule wins; a rule whose
// probability coin comes up tails consumes the match (the message
// passes) rather than falling through, so rule order alone fixes which
// rule judges a message.
type Rule struct {
	Layer Layer        // hop filter (LayerAny = both)
	Kind  msg.Kind     // bus message kind filter (KindInvalid = any; ignored on LayerLink)
	Src   msg.DeviceID // sender filter (0 = any)
	Dst   msg.DeviceID // destination filter (0 = any)

	Op     Op
	Prob   float64      // apply probability; 0 means 1.0 (always)
	Delay  sim.Duration // extra latency for Delay/Reorder
	Factor float64      // latency multiplier for Slow (values <= 1 mean pass)

	After sim.Time // rule active from this virtual time
	Until sim.Time // inactive at/after this time (0 = forever)
	Count int      // max applications (0 = unlimited)

	applied int
}

func (r *Rule) matches(l Layer, now sim.Time, src, dst msg.DeviceID, kind msg.Kind) bool {
	if r.Layer != LayerAny && r.Layer != l {
		return false
	}
	if now < r.After || (r.Until != 0 && now >= r.Until) {
		return false
	}
	if r.Count != 0 && r.applied >= r.Count {
		return false
	}
	if r.Src != 0 && r.Src != src {
		return false
	}
	if r.Dst != 0 && r.Dst != dst {
		return false
	}
	if r.Kind != msg.KindInvalid && l != LayerLink && r.Kind != kind {
		return false
	}
	return true
}

// Decision is the plane's verdict on one message.
type Decision struct {
	Op     Op
	Delay  sim.Duration // extra latency when Op is Delay or Reorder
	Factor float64      // latency multiplier when Op is Slow
}

// Stats counts the plane's interventions.
type Stats struct {
	Inspected uint64
	Dropped   uint64
	Delayed   uint64
	Duped     uint64
	Reordered uint64
	Slowed    uint64
}

// Plane is a configured fault injector. The zero value and nil are both
// disabled pass-throughs.
type Plane struct {
	rng   *sim.Rand
	rules []*Rule
	stats Stats
}

// New returns a plane with a private RNG derived only from seed.
func New(seed uint64) *Plane {
	return &Plane{rng: sim.NewRand(seed ^ 0x66617578)} // "faux"
}

// Add appends a rule to the schedule and returns the plane for chaining.
func (p *Plane) Add(r Rule) *Plane {
	p.rules = append(p.rules, &r)
	return p
}

// Enabled reports whether the plane can ever intervene.
func (p *Plane) Enabled() bool { return p != nil && len(p.rules) > 0 }

// Stats returns a copy of the intervention counters.
func (p *Plane) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return p.stats
}

// Filter judges one message about to cross a hop. Nil and rule-less
// planes return Pass without touching any randomness.
func (p *Plane) Filter(l Layer, now sim.Time, src, dst msg.DeviceID, kind msg.Kind) Decision {
	if !p.Enabled() {
		return Decision{}
	}
	p.stats.Inspected++
	for _, r := range p.rules {
		if !r.matches(l, now, src, dst, kind) {
			continue
		}
		if r.Prob != 0 && r.Prob < 1 && p.rng.Float64() >= r.Prob {
			return Decision{} // coin says pass; match is consumed
		}
		r.applied++
		switch r.Op {
		case Drop:
			p.stats.Dropped++
		case Delay:
			p.stats.Delayed++
		case Dup:
			p.stats.Duped++
		case Reorder:
			p.stats.Reordered++
		case Slow:
			p.stats.Slowed++
		}
		return Decision{Op: r.Op, Delay: r.Delay, Factor: r.Factor}
	}
	return Decision{}
}

// CrashAt schedules a crash/restart action (bus.FailDevice, Device.Kill,
// a revive closure, ...) at virtual time at. It exists so fault
// schedules that mix message faults and device lifecycle faults live in
// one place; the action itself uses the simulation's ordinary hooks. It is
// glue: the action is the caller's, so it goes through the engine's closure
// form.
func (p *Plane) CrashAt(eng *sim.Engine, at sim.Time, action func()) {
	eng.At(at, action)
}

// PartitionOneWay drops every interconnect frame from src to dst inside
// [after, until) while the reverse direction keeps flowing — the
// asymmetric cut that makes failure detectors lie: dst stops hearing
// src, but src still hears dst.
func (p *Plane) PartitionOneWay(src, dst msg.DeviceID, after, until sim.Time) *Plane {
	return p.Add(Rule{Layer: LayerLink, Src: src, Dst: dst, Op: Drop, After: after, Until: until})
}

// Partition cuts every link between group a and group b, both
// directions, inside [after, until). Traffic within each group still
// flows, so each side keeps a coherent (and mutually contradictory)
// view of the world.
func (p *Plane) Partition(a, b []msg.DeviceID, after, until sim.Time) *Plane {
	for _, s := range a {
		for _, d := range b {
			p.PartitionOneWay(s, d, after, until)
			p.PartitionOneWay(d, s, after, until)
		}
	}
	return p
}

// Flap installs cycles repetitions of the a|b partition starting at
// start: each period begins with the cut up for the first up of the
// period and healed for the remainder. Flapping shorter than the
// failure-detection timeout exercises the gray zone where links die
// and recover faster than any view can converge.
func (p *Plane) Flap(a, b []msg.DeviceID, start sim.Time, up, period sim.Duration, cycles int) *Plane {
	for i := 0; i < cycles; i++ {
		at := start.Add(sim.Duration(i) * period)
		p.Partition(a, b, at, at.Add(up))
	}
	return p
}

// SlowMachine multiplies the latency of every interconnect frame into
// or out of machine id by factor inside [after, until): the machine is
// alive and answers everything, just 10–100x late — the gray failure
// that a binary alive/dead detector misclassifies in both directions.
func (p *Plane) SlowMachine(id msg.DeviceID, factor float64, after, until sim.Time) *Plane {
	p.Add(Rule{Layer: LayerLink, Src: id, Op: Slow, Factor: factor, After: after, Until: until})
	return p.Add(Rule{Layer: LayerLink, Dst: id, Op: Slow, Factor: factor, After: after, Until: until})
}
