package exp

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Every registered experiment is pinned byte-for-byte: the tables are
// the contract a refactor of the harness (client loops, drain, sweep)
// or of any layer underneath must leave unchanged. What each one
// covers that the others do not: E1 (bus control-plane init, all
// flavors), E2 (NIC/virtqueue/SSD data plane under load), E9 (doorbell
// batching — virtqueue event timing), E10 (bus speed sensitivity —
// wire and processing latency), E15 (crash-restart-rejoin chaos
// schedules), E16 (overload ramps), E17 (rack-scale fabric scaling and
// kill chaos, run with NO reconciler attached — pinning it proves the
// E19 reconcile layer is byte-invisible until Attach is called), E19
// (the reconciler's campaign itself), E20 (the adversarial-tenancy
// matrix — pinning it proves both that the attack runs are
// reproducible per seed AND, together with the other goldens all
// running tenancy-off, that the tenancy hooks compiled into
// bus/NIC/KVS/IOMMU are byte-invisible until a registry is configured)
// and E21 (the split-brain matrix — the only golden that runs with
// epoch leases ON, pinning the lease/fence/detector timing itself; the
// leases-OFF goldens E17/E19 prove the lease hooks are byte-invisible
// until Config.Leases is set). Any accidental event, cost, or ordering
// change from a feature that should be gated off shifts at least one
// of these tables.

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
