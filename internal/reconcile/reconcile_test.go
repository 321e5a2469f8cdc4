package reconcile_test

import (
	"fmt"
	"testing"

	"nocpu/internal/fabric"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/reconcile"
	"nocpu/internal/sim"
)

func bootFleet(t *testing.T, fc fabric.Config, rc reconcile.Config) (*fabric.Cluster, *reconcile.Fleet) {
	t.Helper()
	cl, err := fabric.New(fc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := cl.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return cl, reconcile.Attach(cl, rc)
}

// runUntil steps the engine until pred holds (fatal after limit).
func runUntil(t *testing.T, cl *fabric.Cluster, limit sim.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := cl.Eng.Now().Add(limit)
	for !pred() && cl.Eng.Now() < deadline {
		cl.Eng.RunFor(200 * sim.Microsecond)
	}
	if !pred() {
		t.Fatalf("%s: not reached within %v", what, limit)
	}
}

// put writes key=val through a live ingress, retrying transient
// failures until the fabric acks.
func put(t *testing.T, cl *fabric.Cluster, key string, val []byte) {
	t.Helper()
	req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: val})
	deadline := cl.Eng.Now().Add(2 * sim.Second)
	for cl.Eng.Now() < deadline {
		ids := cl.ServingIDs()
		if len(ids) == 0 {
			ids = cl.LiveIDs()
		}
		done, ok := false, false
		cl.Ingress(ids[0])(req, func(b []byte) {
			if r, err := kvs.DecodeResponse(b); err == nil && r.Status == kvs.StatusOK {
				ok = true
			}
			done = true
		})
		for !done && cl.Eng.Now() < deadline {
			cl.Eng.RunFor(100 * sim.Microsecond)
		}
		if ok {
			return
		}
		cl.Eng.RunFor(500 * sim.Microsecond)
	}
	t.Fatalf("put %q never acked", key)
}

// get reads a key through a live ingress, retrying until definitive.
func get(t *testing.T, cl *fabric.Cluster, key string) ([]byte, bool) {
	t.Helper()
	req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
	deadline := cl.Eng.Now().Add(2 * sim.Second)
	for cl.Eng.Now() < deadline {
		ids := cl.ServingIDs()
		if len(ids) == 0 {
			ids = cl.LiveIDs()
		}
		var resp kvs.Response
		done, ok := false, false
		cl.Ingress(ids[0])(req, func(b []byte) {
			if r, err := kvs.DecodeResponse(b); err == nil {
				resp, ok = r, true
			}
			done = true
		})
		for !done && cl.Eng.Now() < deadline {
			cl.Eng.RunFor(100 * sim.Microsecond)
		}
		if ok && resp.Status == kvs.StatusOK {
			return resp.Value, true
		}
		if ok && resp.Status == kvs.StatusNotFound {
			return nil, false
		}
		cl.Eng.RunFor(500 * sim.Microsecond)
	}
	t.Fatalf("get %q never resolved", key)
	return nil, false
}

func ringOf(cl *fabric.Cluster) []msg.DeviceID {
	return cl.Machine(cl.LiveIDs()[0]).Router.RingMembers()
}

// TestReplaceDeadMachine: a killed ring member is reconciled away and
// a spare promoted in its place, within the bound and the budget.
func TestReplaceDeadMachine(t *testing.T) {
	cl, fl := bootFleet(t,
		fabric.Config{N: 4, Spares: 1, Seed: 0xE19A},
		reconcile.Config{Spec: reconcile.Spec{Size: 4, MaxUnavailable: 1}},
	)
	for i := 0; i < 12; i++ {
		put(t, cl, fmt.Sprintf("rk-%03d", i), []byte{byte(i)})
	}
	fl.Kill(3)
	runUntil(t, cl, 100*sim.Millisecond, "converge after kill", fl.Converged)
	cl.Eng.RunFor(2 * sim.Millisecond) // let the probe close the window

	want := []msg.DeviceID{1, 2, 4, 5}
	if got := ringOf(cl); len(got) != 4 || got[0] != 1 || got[3] != 5 {
		t.Fatalf("ring after repair = %v, want %v", got, want)
	}
	rep := fl.Report()
	if !rep.Clean() {
		t.Fatalf("ledger not clean: %+v", rep)
	}
	if rep.Stats.Repairs == 0 || rep.Stats.Commits == 0 {
		t.Fatalf("no repair transition recorded: %+v", rep.Stats)
	}
	for i := 0; i < 12; i++ {
		v, ok := get(t, cl, fmt.Sprintf("rk-%03d", i))
		if !ok || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("key rk-%03d lost across reconcile (got %v ok=%v)", i, v, ok)
		}
	}
}

// TestRollingUpgradeWithSpares: raising the config version rolls every
// machine — including, eventually, the acting machine itself — through
// an out-of-ring flash, one swap at a time, within the budget.
func TestRollingUpgradeWithSpares(t *testing.T) {
	cl, fl := bootFleet(t,
		fabric.Config{N: 4, Spares: 1, Seed: 0xE19B},
		reconcile.Config{Spec: reconcile.Spec{Size: 4, MaxUnavailable: 1}},
	)
	for i := 0; i < 8; i++ {
		put(t, cl, fmt.Sprintf("uk-%03d", i), []byte{0xAA, byte(i)})
	}
	fl.SetSpec(reconcile.Spec{Size: 4, ConfigVersion: 2, MaxUnavailable: 1})
	runUntil(t, cl, 300*sim.Millisecond, "converge after upgrade", fl.Converged)
	cl.Eng.RunFor(2 * sim.Millisecond)

	for _, id := range cl.LiveIDs() {
		if v := cl.Machine(id).Router.ConfigVersion(); v != 2 {
			t.Errorf("machine %d still at config v%d after rolling upgrade", id, v)
		}
	}
	rep := fl.Report()
	if !rep.Clean() {
		t.Fatalf("ledger not clean: %+v", rep)
	}
	if rep.Stats.Swaps == 0 {
		t.Errorf("no swap rotations recorded: %+v", rep.Stats)
	}
	if got := len(ringOf(cl)); got != 4 {
		t.Errorf("ring size %d after upgrade, want 4", got)
	}
	for i := 0; i < 8; i++ {
		v, ok := get(t, cl, fmt.Sprintf("uk-%03d", i))
		if !ok || len(v) != 2 || v[1] != byte(i) {
			t.Fatalf("key uk-%03d lost across rolling upgrade", i)
		}
	}
}

// TestRollingUpgradeNoSpares: with an empty spare pool the rotation
// must shrink the ring by one inside the budget, flash the victim, and
// re-admit it — repeatedly, until the whole fleet is upgraded.
func TestRollingUpgradeNoSpares(t *testing.T) {
	cl, fl := bootFleet(t,
		fabric.Config{N: 4, Seed: 0xE19C},
		reconcile.Config{Spec: reconcile.Spec{Size: 4, MaxUnavailable: 1}},
	)
	fl.SetSpec(reconcile.Spec{Size: 4, ConfigVersion: 2, MaxUnavailable: 1})
	runUntil(t, cl, 300*sim.Millisecond, "converge after spare-less upgrade", fl.Converged)
	cl.Eng.RunFor(2 * sim.Millisecond)

	for _, id := range cl.LiveIDs() {
		if v := cl.Machine(id).Router.ConfigVersion(); v != 2 {
			t.Errorf("machine %d still at config v%d", id, v)
		}
	}
	rep := fl.Report()
	if !rep.Clean() {
		t.Fatalf("ledger not clean: %+v", rep)
	}
	if rep.Stats.Shrinks == 0 {
		t.Errorf("spare-less upgrade never shrank the ring: %+v", rep.Stats)
	}
	if got := len(ringOf(cl)); got != 4 {
		t.Errorf("ring size %d after upgrade, want 4", got)
	}
}

// TestZeroBudgetBlocksUpgrade: MaxUnavailable 0 leaves no budget to
// drain into, so the reconciler must keep serving on the stale config
// rather than disrupt — the divergence stays open by design.
func TestZeroBudgetBlocksUpgrade(t *testing.T) {
	cl, fl := bootFleet(t,
		fabric.Config{N: 4, Seed: 0xE19D},
		reconcile.Config{Spec: reconcile.Spec{Size: 4}},
	)
	fl.SetSpec(reconcile.Spec{Size: 4, ConfigVersion: 2})
	cl.Eng.RunFor(50 * sim.Millisecond)

	rep := fl.Report()
	if rep.Stats.Cordons != 0 || rep.Stats.Transitions != 0 {
		t.Errorf("zero budget but reconciler disrupted: %+v", rep.Stats)
	}
	if rep.C3Violations != 0 {
		t.Errorf("C3 violated %d times with no voluntary action", rep.C3Violations)
	}
	if len(cl.ServingIDs()) != 4 {
		t.Errorf("serving capacity dipped: %v", cl.ServingIDs())
	}
	if fl.Converged() {
		t.Error("converged despite an impossible upgrade — predicate too lax")
	}
}

// TestConcurrentDoubleFailure: two ring members die in the same sim
// frame; the reconciler absorbs both with the spare pool.
func TestConcurrentDoubleFailure(t *testing.T) {
	cl, fl := bootFleet(t,
		fabric.Config{N: 4, Spares: 2, Seed: 0xE19E},
		reconcile.Config{Spec: reconcile.Spec{Size: 4, MaxUnavailable: 1}},
	)
	cl.Eng.At(cl.Eng.Now().Add(2*sim.Millisecond), func() {
		fl.Kill(2)
		fl.Kill(3)
	})
	cl.Eng.RunFor(3 * sim.Millisecond) // past the kill frame
	runUntil(t, cl, 150*sim.Millisecond, "converge after double kill", fl.Converged)
	cl.Eng.RunFor(2 * sim.Millisecond)

	want := []msg.DeviceID{1, 4, 5, 6}
	got := ringOf(cl)
	if len(got) != len(want) {
		t.Fatalf("ring after double repair = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ring after double repair = %v, want %v", got, want)
		}
	}
	if rep := fl.Report(); !rep.Clean() {
		t.Fatalf("ledger not clean: %+v", rep)
	}
}

// TestActorDeathMidTransition: killing the acting machine while its
// rolling upgrade is in flight hands the role to the next machine,
// which aborts the orphaned transition and finishes the job.
func TestActorDeathMidTransition(t *testing.T) {
	cl, fl := bootFleet(t,
		fabric.Config{N: 4, Spares: 2, Seed: 0xE19F},
		reconcile.Config{Spec: reconcile.Spec{Size: 4, MaxUnavailable: 1}},
	)
	fl.SetSpec(reconcile.Spec{Size: 4, ConfigVersion: 2, MaxUnavailable: 1})
	// Give the actor time to flash a spare and stage the first
	// rotation, then kill it mid-campaign.
	cl.Eng.At(cl.Eng.Now().Add(6*sim.Millisecond), func() { fl.Kill(1) })
	runUntil(t, cl, 400*sim.Millisecond, "converge after actor death", fl.Converged)
	cl.Eng.RunFor(2 * sim.Millisecond)

	for _, id := range cl.LiveIDs() {
		if v := cl.Machine(id).Router.ConfigVersion(); v != 2 {
			t.Errorf("machine %d still at config v%d after takeover", id, v)
		}
	}
	if memberOf := ringOf(cl); len(memberOf) != 4 {
		t.Errorf("ring size %d, want 4", len(memberOf))
	}
	if rep := fl.Report(); !rep.Clean() {
		t.Fatalf("ledger not clean after actor takeover: %+v", rep)
	}
}

// TestHeadFlavor: under the head-node baseline the head reconciles
// worker deaths and worker upgrades, but can never rotate ITSELF out
// of the ring — it stays pinned on its boot config, the structural
// asymmetry E19 reports.
func TestHeadFlavor(t *testing.T) {
	cl, fl := bootFleet(t,
		fabric.Config{N: 4, Spares: 1, Seed: 0xE19 ^ 0xEAD, Flavor: fabric.FlavorHead},
		reconcile.Config{Spec: reconcile.Spec{Size: 4, MaxUnavailable: 1}},
	)
	fl.Kill(3)
	runUntil(t, cl, 100*sim.Millisecond, "head repairs worker death", fl.Converged)

	fl.SetSpec(reconcile.Spec{Size: 4, ConfigVersion: 2, MaxUnavailable: 1})
	runUntil(t, cl, 300*sim.Millisecond, "head-driven rolling upgrade", fl.Converged)
	cl.Eng.RunFor(2 * sim.Millisecond)

	if v := cl.Machine(1).Router.ConfigVersion(); v != 1 {
		t.Errorf("head upgraded itself to v%d — should be structurally impossible", v)
	}
	for _, id := range cl.LiveIDs() {
		if id == 1 {
			continue
		}
		if v := cl.Machine(id).Router.ConfigVersion(); v != 2 {
			t.Errorf("worker %d still at config v%d", id, v)
		}
	}
	if rep := fl.Report(); !rep.Clean() {
		t.Fatalf("ledger not clean: %+v", rep)
	}
}

// TestDeterminism: the full reconcile pipeline — kill, repair, rolling
// upgrade — is byte-identical across runs at a fixed seed.
func TestDeterminism(t *testing.T) {
	run := func() string {
		cl, fl := bootFleet(t,
			fabric.Config{N: 4, Spares: 1, Seed: 0xDE7E, Trace: true},
			reconcile.Config{Spec: reconcile.Spec{Size: 4, MaxUnavailable: 1}},
		)
		for i := 0; i < 6; i++ {
			put(t, cl, fmt.Sprintf("dk-%02d", i), []byte{byte(i)})
		}
		fl.Kill(2)
		fl.SetSpec(reconcile.Spec{Size: 4, ConfigVersion: 2, MaxUnavailable: 1})
		cl.Eng.RunFor(120 * sim.Millisecond)
		return cl.TraceHash()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("reconcile run not deterministic:\n  %s\n  %s", a, b)
	}
}
