package exp

import (
	"testing"

	"nocpu/internal/fabric"
)

// TestE20MatrixClean is the tenancy hard gate: every cell of the
// attack matrix — both machine flavors and both fabric control
// architectures — must uphold S1 (no cross-tenant access, every
// refusal typed), S2 (victim goodput/p99 within the declared bound)
// and S3 (attribution and budget containment) with zero violations.
func TestE20MatrixClean(t *testing.T) {
	cells := map[string]func() *e20Cell{
		"decentralized": func() *e20Cell { return e20Machine(kindDecentralized) },
		"centralized":   func() *e20Cell { return e20Machine(kindCentralDirect) },
		"fabric-decent": func() *e20Cell { return e20Fabric(fabric.FlavorDecentralized) },
		"fabric-head":   func() *e20Cell { return e20Fabric(fabric.FlavorHead) },
	}
	for name, build := range cells {
		build := build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := build()
			if c.mounted == 0 {
				t.Fatal("no attacks mounted")
			}
			if c.refused != c.mounted {
				t.Errorf("refused typed %d of %d attacks", c.refused, c.mounted)
			}
			if !c.rep.Clean() {
				t.Errorf("ledger not clean: S1=%d S2=%d S3=%d: %v",
					c.rep.S1Viols, c.rep.S2Viols, c.rep.S3Viols, c.rep.Violations)
			}
			if c.leaked != 0 {
				t.Errorf("probe spam leaked %d of %d cross-tenant reads", c.leaked, c.probes)
			}
			if c.probes == 0 {
				t.Error("probe spam never fired")
			}
			if c.denVic != 0 {
				t.Errorf("victim charged with %d denials", c.denVic)
			}
			if c.denAtk == 0 {
				t.Error("no denials attributed to the attacker")
			}
		})
	}
}

// TestE20CompromisedKernel pins the blast-radius contrast: without
// per-device domain checks the kernel's misprogrammed mapping lands
// unchallenged.
func TestE20CompromisedKernel(t *testing.T) {
	if got := e20Misprogram(); got != "mapping installed unchallenged" {
		t.Errorf("unenforced misprogram: %s", got)
	}
}

// TestE20Deterministic: one cell, same seed, twice — identical audited
// numbers (the table is golden-pinned on top of this).
func TestE20Deterministic(t *testing.T) {
	a, b := e20Machine(kindDecentralized), e20Machine(kindDecentralized)
	if a.probes != b.probes || a.denAtk != b.denAtk || a.mounted != b.mounted ||
		a.baseline.Completed != b.baseline.Completed ||
		a.attacked.Latency.P99() != b.attacked.Latency.P99() {
		t.Errorf("same-seed cells diverged:\n%+v\n%+v", a, b)
	}
}
