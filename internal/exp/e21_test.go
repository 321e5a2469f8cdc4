package exp

import (
	"fmt"
	"testing"

	"nocpu/internal/fabric"
	"nocpu/internal/sim"
)

// TestE21AllCellsSafe is the split-brain matrix's hard gate: every
// schedule × flavor cell must be linearizable (L1 over the client
// history), split-free (the probe never sees two unfenced lease-holding
// primaries for one key), and lossless (R1/R2). Unavailability is the
// only permitted symptom — bounded for every cell except the head-cut/
// head-node contrast row, where a permanent TYPED outage (R3
// unroutable) is the measured point.
func TestE21AllCellsSafe(t *testing.T) {
	for idx, cell := range e21Cells() {
		for _, flavor := range []fabric.Flavor{fabric.FlavorDecentralized, fabric.FlavorHead} {
			idx, cell, flavor := idx, cell, flavor
			t.Run(fmt.Sprintf("%s/%s", cell.name, flavor), func(t *testing.T) {
				t.Parallel()
				row := e21Run(flavor, idx, cell)
				if !row.lin.OK {
					t.Errorf("L1 violated: history for key %q not linearizable", row.lin.BadKey)
				}
				if len(row.lin.Aborted) != 0 {
					t.Errorf("L1 checker aborted (budget) on keys %v — verdict unknown", row.lin.Aborted)
				}
				if row.splits != 0 {
					t.Errorf("split brain: %d samples saw >1 unfenced lease-holding primary", row.splits)
				}
				if row.rep.G1Lost != 0 {
					t.Errorf("R1 violated: %d acked writes lost: %v", row.rep.G1Lost, row.rep.Violations)
				}
				if row.rep.G2Dups != 0 {
					t.Errorf("R2 violated: %d duplicate applies: %v", row.rep.G2Dups, row.rep.Violations)
				}
				if row.rep.Acks == 0 {
					t.Error("cell acked nothing — the workload never ran")
				}

				headCollapse := cell.name == "head cut away" && flavor == fabric.FlavorHead
				if headCollapse {
					// The contrast row: decapitating the centralized control
					// plane excommunicates the whole fleet. The outage must
					// be typed (unroutable, zero lease holders), never wrong
					// data — the safety assertions above already ran.
					if len(row.rep.Unroutable) == 0 {
						t.Error("head collapse left keys routable — the contrast row lost its point")
					}
					if row.leasedEnd != 0 {
						t.Errorf("%d machines still hold leases after the head excommunicated the fleet", row.leasedEnd)
					}
					return
				}
				if len(row.rep.Unroutable) != 0 {
					t.Errorf("R3 violated: unroutable keys: %v", row.rep.Unroutable)
				}
				// Safety's price is bounded: detection + lease + fence.
				if max := 20 * sim.Millisecond; row.worstZero > max {
					t.Errorf("no-server window %v exceeds the %v bound", row.worstZero, max)
				}
				// Gray failures must be ridden out, not amplified into
				// membership churn.
				if cell.name == "flapping link" || cell.name == "fail-slow ×20" {
					if row.st.SilenceDeaths != 0 || row.st.ViewChanges != 0 || row.st.Suspicions != 0 {
						t.Errorf("gray failure amplified: suspicions=%d deaths=%d view changes=%d",
							row.st.Suspicions, row.st.SilenceDeaths, row.st.ViewChanges)
					}
				}
			})
		}
	}
}

// TestE21Reproducible: one cell, run twice, must agree field-for-field
// — the partition schedules, the probe, and the linearizability checker
// add no nondeterminism on top of the fabric's golden-trace guarantee.
func TestE21Reproducible(t *testing.T) {
	cells := e21Cells()
	runCell := func() string {
		row := e21Run(fabric.FlavorDecentralized, 2, cells[2]) // flapping link
		return fmt.Sprintf("%d %d %d %d %d %d %v %v %d %d %v %d %+v",
			row.Puts, row.Gets, row.rep.Acks, row.Fenced(), row.Timeouts, row.Ambiguous(),
			row.lin.OK, row.worstZero, row.splits, row.rep.G1Lost,
			row.rep.Unroutable, row.leasedEnd, row.st)
	}
	a, b := runCell(), runCell()
	if a != b {
		t.Errorf("identical E21 cells diverged:\n  a: %s\n  b: %s", a, b)
	}
}
