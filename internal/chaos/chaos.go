// Package chaos is the deterministic crash-schedule harness for the
// recovery experiments (§4 "error handling"). A Plan names the crashable
// components of a machine and the statistical shape of a crash campaign
// (how many crashes, over what window, how tightly spaced, how many
// coordinated double-failures); Compile turns it into a fixed timetable,
// a plain []Event, using nothing but the plan's seed, and the experiment
// arms each event itself with the engine's closure form (eng.At): there
// is no schedule object.
//
// The package also carries the Ledger, the oracle for the three recovery
// guarantees the experiments assert:
//
//	G1 — no acked write lost: a read after recovery never returns a value
//	     older than the newest acknowledged write for that key.
//	G2 — no op applied twice: every read returns a value the workload
//	     actually issued for that key, and reads never regress (a stale
//	     duplicate applied after a newer write would surface as a
//	     regression because every (key, attempt) value is unique).
//	G3 — bounded recovery: after every crash event the workload completes
//	     an acknowledged operation again within a finite virtual-time
//	     window (the window itself is measured by the experiment; the
//	     ledger only aggregates it).
//
// Determinism: Compile draws from a private sim.Rand seeded only by
// Plan.Seed, so the same plan compiles to the same timetable on every
// run, and the ledger's verdicts depend only on the note-call sequence.
package chaos

import (
	"fmt"
	"sort"

	"nocpu/internal/sim"
)

// Target is one crashable component and the closure that crashes it
// (e.g. a device Kill, a kernel panic). The harness never restarts a
// target itself — recovery is the system's job (watchdog, Reset,
// rejoin), which is exactly what the experiments measure.
type Target struct {
	Name  string
	Crash func()
}

// Plan is the declarative description of a crash campaign.
type Plan struct {
	Seed  uint64   // RNG seed; the only source of randomness
	Start sim.Time // earliest crash instant
	// Window is the range crash instants are drawn from,
	// [Start, Start+Window). MinGap can push a later event past its end:
	// Compile keeps the events sorted and at least MinGap apart, not
	// inside the window.
	Window  sim.Duration
	Crashes int          // total crash events
	MinGap  sim.Duration // minimum spacing between consecutive events
	Doubles int          // of the events, how many hit two targets at once
	Targets []Target
}

// Event is one compiled crash: at time At, every listed target crashes
// in order (two entries for a coordinated double-failure).
type Event struct {
	At      sim.Time
	Targets []int // indices into Plan.Targets
}

// Compile fixes the campaign into a timetable. It validates the plan,
// draws the crash instants, sorts them, enforces MinGap by pushing later
// events out, then assigns targets. The events come back sorted, at
// least MinGap apart, the first at or after Start; a push can carry the
// last ones past Start+Window. The first Doubles events in time order
// become double-failures (deterministic, so a golden timetable in a test
// pins both the instants and the victim pairs).
func (p Plan) Compile() ([]Event, error) {
	if p.Crashes < 0 || p.Doubles < 0 {
		return nil, fmt.Errorf("chaos: negative crash counts")
	}
	if p.Doubles > p.Crashes {
		return nil, fmt.Errorf("chaos: %d doubles > %d crashes", p.Doubles, p.Crashes)
	}
	if p.Crashes > 0 && len(p.Targets) == 0 {
		return nil, fmt.Errorf("chaos: %d crashes but no targets", p.Crashes)
	}
	if p.Doubles > 0 && len(p.Targets) < 2 {
		return nil, fmt.Errorf("chaos: double-failures need at least two targets")
	}
	if p.Crashes > 0 && p.Window <= 0 {
		return nil, fmt.Errorf("chaos: crashes need a positive window")
	}
	for i, t := range p.Targets {
		if t.Crash == nil {
			return nil, fmt.Errorf("chaos: target %d (%q) has no crash action", i, t.Name)
		}
	}
	rng := sim.NewRand(p.Seed ^ 0x63686173) // "chas"
	events := make([]Event, 0, p.Crashes)
	ats := make([]sim.Time, p.Crashes)
	for i := range ats {
		ats[i] = p.Start.Add(sim.Duration(rng.Intn(int(p.Window))))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	for i := 1; i < len(ats); i++ {
		if floor := ats[i-1].Add(p.MinGap); ats[i] < floor {
			ats[i] = floor
		}
	}
	for i, at := range ats {
		ev := Event{At: at, Targets: []int{rng.Intn(len(p.Targets))}}
		if i < p.Doubles {
			second := rng.Intn(len(p.Targets) - 1)
			if second >= ev.Targets[0] {
				second++
			}
			ev.Targets = append(ev.Targets, second)
		}
		events = append(events, ev)
	}
	return events, nil
}
