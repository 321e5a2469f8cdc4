package exp

import (
	"reflect"
	"testing"
)

// TestE15Guarantees runs seeded crash schedules on every machine
// architecture and asserts the three recovery guarantees the chaos
// ledger checks — G1 no acked write lost, G2 no op applied twice, G3
// every crash recovered within the bound — plus the rejoin protocol's
// bookkeeping.
func TestE15Guarantees(t *testing.T) {
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect, kindCentralMediated} {
		for i, sc := range e15Scheds {
			row := e15Run(kind, sc, 0xE15+uint64(i))
			rep := row.report
			name := kind.label() + "/" + sc.name
			if rep.G1Lost != 0 {
				t.Errorf("%s: %d acked writes lost (G1): %v", name, rep.G1Lost, rep.Violations)
			}
			if rep.G2Dups != 0 {
				t.Errorf("%s: %d duplicate applies (G2): %v", name, rep.G2Dups, rep.Violations)
			}
			if got := len(rep.Recoveries); got != row.crashes {
				t.Errorf("%s: %d/%d crash events recovered (G3)", name, got, row.crashes)
			}
			if max := rep.MaxRecovery(); max > e15G3Bound {
				t.Errorf("%s: max recovery %v exceeds bound %v (G3)", name, max, e15G3Bound)
			}
			if rep.Acks == 0 {
				t.Errorf("%s: workload acked nothing; the run proves nothing", name)
			}
			// Every crash is followed by a rejoin (a double-failure event
			// produces two).
			wantRejoins := uint64(row.crashes + sc.doubles)
			if row.rejoins != wantRejoins {
				t.Errorf("%s: %d rejoins, want %d", name, row.rejoins, wantRejoins)
			}
		}
	}
}

// TestE15Reproducible runs one cell twice and requires bit-identical
// outcomes: same schedule, same counts, same recovery windows.
func TestE15Reproducible(t *testing.T) {
	sc := e15Scheds[3] // mixed + double
	a := e15Run(kindDecentralized, sc, 0xE15+3)
	b := e15Run(kindDecentralized, sc, 0xE15+3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different outcome:\n%+v\nvs\n%+v", a, b)
	}
}
