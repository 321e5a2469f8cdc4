package exp

import (
	"fmt"
	"testing"

	"nocpu/internal/fabric"
)

// TestE17ChaosClean is the rack's hard gate: every machine-kill
// campaign must uphold R1 (no acked write lost), R2 (no duplicate
// apply) and R3 (every touched key routable after recovery), with every
// outage window bounded.
func TestE17ChaosClean(t *testing.T) {
	for i, fc := range e17Flavors {
		fc := fc
		seed := 0xE17C + uint64(i)
		t.Run(fc.flavor.String(), func(t *testing.T) {
			t.Parallel()
			row := e17Chaos(fc.flavor, fc.victims, seed)
			if row.rep.G1Lost != 0 {
				t.Errorf("R1 violated: %d acked writes lost: %v", row.rep.G1Lost, row.rep.Violations)
			}
			if row.rep.G2Dups != 0 {
				t.Errorf("R2 violated: %d duplicate applies: %v", row.rep.G2Dups, row.rep.Violations)
			}
			if len(row.rep.Unroutable) != 0 {
				t.Errorf("R3 violated: unroutable keys: %v", row.rep.Unroutable)
			}
			if !row.rep.Clean(e17RecoveryBound) {
				t.Errorf("recovery exceeded %v: %v", e17RecoveryBound, row.rep.Recoveries)
			}
			if len(row.rep.Recoveries) < row.kills {
				t.Errorf("only %d/%d kills saw service restored", len(row.rep.Recoveries), row.kills)
			}
			if row.rep.Acks == 0 {
				t.Error("campaign acked nothing")
			}
			if row.maxEpoch != 2 {
				t.Errorf("max epoch %d after 2 kills, want 2", row.maxEpoch)
			}
		})
	}
}

// TestE17ScaleDeterministic: one scaling cell, run twice, must agree to
// the byte (same seed → same table; the full-grid check is the tables
// diff in CI).
func TestE17ScaleDeterministic(t *testing.T) {
	runCell := func() string {
		st, rt := e17Scale(4, fabric.FlavorHead, true)
		return fmt.Sprintf("%d %d %v %v %d %d %d",
			st.Completed, st.Errors(), st.Latency.P50(), st.Latency.P99(),
			rt.Local, rt.Remote, rt.HeadRelayed)
	}
	a, b := runCell(), runCell()
	if a != b {
		t.Errorf("identical E17 cells diverged:\n  a: %s\n  b: %s", a, b)
	}
}

// TestE17ScalingSeparates pins the experiment's headline at test scale:
// the decentralized fabric must outscale the head-node relay once the
// rack is big enough for the head's rx queue to saturate.
func TestE17ScalingSeparates(t *testing.T) {
	dec, _ := e17Scale(8, fabric.FlavorDecentralized, false)
	head, _ := e17Scale(8, fabric.FlavorHead, false)
	if dec.Throughput() < 1.5*head.Throughput() {
		t.Errorf("decentralized (%.0f op/s) does not outscale head-node (%.0f op/s) at N=8",
			dec.Throughput(), head.Throughput())
	}
}
