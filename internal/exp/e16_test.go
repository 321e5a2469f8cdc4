package exp

import (
	"reflect"
	"testing"
)

// TestE16Guarantees runs the seeded load ramp on every machine
// architecture and asserts the three guarantees the overload ledger
// audits — Q1 no watched queue exceeds its bound, Q2 goodput at 2×
// saturation holds ≥ 80% of goodput at saturation, Q3 every issued
// request resolves explicitly.
func TestE16Guarantees(t *testing.T) {
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect, kindCentralMediated} {
		sat, led := e16Campaign(kind)
		name := kind.label()
		if sat <= 0 {
			t.Fatalf("%s: calibration measured non-positive saturation %f", name, sat)
		}
		for _, v := range led.Audit() {
			t.Errorf("%s: %s", name, v)
		}
		for _, s := range led.Steps() {
			if s.Sent == 0 {
				t.Errorf("%s %gx: sent nothing; the step proves nothing", name, s.Multiplier)
			}
			if s.Multiplier >= 2 && s.Shed == 0 {
				t.Errorf("%s %gx: overloaded step shed nothing — admission control never engaged", name, s.Multiplier)
			}
		}
	}
}

// TestE16Reproducible runs one flavor's campaign twice and requires
// bit-identical step results: same counts, same percentiles.
func TestE16Reproducible(t *testing.T) {
	satA, ledA := e16Campaign(kindDecentralized)
	satB, ledB := e16Campaign(kindDecentralized)
	if satA != satB {
		t.Fatalf("same seed, different saturation: %f vs %f", satA, satB)
	}
	if !reflect.DeepEqual(ledA.Steps(), ledB.Steps()) {
		t.Fatalf("same seed, different steps:\n%+v\nvs\n%+v", ledA.Steps(), ledB.Steps())
	}
}
