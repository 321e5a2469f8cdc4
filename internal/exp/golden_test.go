package exp

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Every registered experiment is pinned byte-for-byte: the tables are
// the contract a refactor of the harness (client loops, drain, sweep) or
// of any layer underneath must leave unchanged. Three of them also pin
// that a feature is byte-invisible until configured: E17 runs with NO
// reconciler attached (the E19 reconcile layer does nothing until
// Attach); E20 is the only tenancy-on run, so every other golden proves
// the tenancy hooks compiled into bus/NIC/KVS/IOMMU are inert without a
// registry; E21 is the only run with epoch leases ON, so the leases-off
// E17/E19 goldens prove the lease hooks are inert until Config.Leases.

// expRun is one experiment's single execution per test binary:
// TestTablesGolden and TestAllExperimentsSmoke judge the same run.
type expRun struct {
	once sync.Once
	res  *Result
	err  error
}

var expRuns sync.Map // experiment id → *expRun

func runOnce(t *testing.T, id string) *Result {
	t.Helper()
	v, _ := expRuns.LoadOrStore(id, new(expRun))
	r := v.(*expRun)
	r.once.Do(func() { r.res, r.err = Run(id) })
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.res
}

// TestTablesGolden asserts every experiment's tables are byte-
// identical to the recorded goldens. The overload defenses (credit flow
// control, bounded queues, admission control) are compiled into every
// layer these experiments exercise but default off — zero config must
// mean zero behavior change.
//
// Regenerate after an intentional timing change with:
//
//	NOCPU_REGEN_GOLDEN=1 go test -run TestTablesGolden ./internal/exp
func TestTablesGolden(t *testing.T) {
	regen := os.Getenv("NOCPU_REGEN_GOLDEN") != ""
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got := runOnce(t, id).String()
			path := filepath.Join("testdata", "golden", id+".golden")
			if regen {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with NOCPU_REGEN_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s table drifted from golden.\nIf the timing change is intentional, regenerate with NOCPU_REGEN_GOLDEN=1.\ngot:\n%s\nwant:\n%s", id, got, want)
			}
		})
	}
}
