package exp

import (
	"fmt"
	"testing"

	"nocpu/internal/fabric"
)

// TestE19CampaignClean is the reconciler's hard gate: the full
// campaign — kill, rolling upgrade, same-frame double kill — must
// uphold C1 (convergence within bound), C2 (no acked write lost, via
// fabric R1/R2), C3 (disruption budget) and R3 (all keys routable) on
// both control architectures.
func TestE19CampaignClean(t *testing.T) {
	for _, flavor := range []fabric.Flavor{fabric.FlavorDecentralized, fabric.FlavorHead} {
		flavor := flavor
		t.Run(flavor.String(), func(t *testing.T) {
			t.Parallel()
			row := e19Cell(8, flavor, true)
			if row.kills != 3 {
				t.Fatalf("campaign scripted %d kills, want 3 (1 single + same-frame double)", row.kills)
			}
			if !row.converged {
				t.Error("fleet did not converge within the campaign budget")
			}
			if !row.fleet.Clean() {
				t.Errorf("fleet ledger not clean: C1=%d C3=%d open=%d (worst shortfall %d)",
					row.fleet.C1Violations, row.fleet.C3Violations,
					row.fleet.OpenWindows, row.fleet.WorstShortfall)
			}
			if row.rep.G1Lost != 0 {
				t.Errorf("R1 violated: %d acked writes lost: %v", row.rep.G1Lost, row.rep.Violations)
			}
			if row.rep.G2Dups != 0 {
				t.Errorf("R2 violated: %d duplicate applies: %v", row.rep.G2Dups, row.rep.Violations)
			}
			if len(row.rep.Unroutable) != 0 {
				t.Errorf("R3 violated: unroutable keys: %v", row.rep.Unroutable)
			}
			if row.rep.Acks == 0 {
				t.Error("campaign acked nothing")
			}
			if row.fleet.Stats.Repairs == 0 {
				t.Error("no repair transitions despite 3 kills")
			}
			if row.fleet.Stats.Swaps+row.fleet.Stats.Shrinks == 0 {
				t.Error("no upgrade rotations despite a config bump")
			}
			// The head can never flash itself; everyone else must be on v2.
			wantUp := "7/7"
			if flavor == fabric.FlavorHead {
				wantUp = "6/7"
			}
			if row.upgraded != wantUp {
				t.Errorf("upgraded %s, want %s", row.upgraded, wantUp)
			}
		})
	}
}

// TestE19Reproducible: one full campaign cell, run twice, must agree to
// the byte — the reconciler adds no nondeterminism on top of the
// fabric's golden-trace guarantee.
func TestE19Reproducible(t *testing.T) {
	runCell := func() string {
		row := e19Cell(8, fabric.FlavorDecentralized, true)
		return fmt.Sprintf("%d %d %d %d %d %v %v %v %d %d %+v",
			row.Puts, row.rep.Acks, row.Timeouts, row.Refused, row.kills,
			row.fleet.MaxWindow(), row.lat.P50(), row.lat.P99(),
			row.floor, row.peak, row.fleet.Stats)
	}
	a, b := runCell(), runCell()
	if a != b {
		t.Errorf("identical E19 cells diverged:\n  a: %s\n  b: %s", a, b)
	}
}

// TestE19BaselineUndisturbed pins the reference row: with no reconciler
// attached and no chaos, the same workload sees no timeouts and a flat
// goodput profile.
func TestE19BaselineUndisturbed(t *testing.T) {
	row := e19Cell(8, fabric.FlavorDecentralized, false)
	if row.Timeouts != 0 || row.rep.G1Lost != 0 || len(row.rep.Unroutable) != 0 {
		t.Errorf("undisturbed baseline saw disruption: timeouts=%d lost=%d unroutable=%d",
			row.Timeouts, row.rep.G1Lost, len(row.rep.Unroutable))
	}
	if row.peak == 0 || row.floor*100/row.peak < 50 {
		t.Errorf("baseline goodput not flat: floor %d of peak %d", row.floor, row.peak)
	}
}
