package fabric

// Split-brain safety under asymmetric partitions and gray failures
// (epoch leases, directional suspicion, takeover fences). Every test
// here runs with Config.Leases set; the E1–E20 golden tables pin the
// leases-off path byte-identical.

import (
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

func holdsDead(r *Router, id msg.DeviceID) bool {
	for _, d := range r.DeadIDs() {
		if d == id {
			return true
		}
	}
	return false
}

func holdsSuspect(r *Router, id msg.DeviceID) bool { return r.lease.suspects[id] }

// A transport-level send failure proves only that the forward path is
// broken. With leases enabled it must record directional suspicion, not
// an immediate death — the declaration comes from the inbound-silence
// detector (at halved patience for suspects). This is the regression
// test for noteUnreachable treating transport failure as symmetric.
func TestTransportFailureIsSuspicionNotDeath(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 11, Leases: true})
	cl.Eng.RunFor(5100 * sim.Microsecond)
	cl.Kill(4)

	// The next renewal tick (500µs grid) hits the dead machine and
	// surfaces transport unreachability at every sender.
	cl.Eng.RunFor(600 * sim.Microsecond)
	r1 := cl.Machine(1).Router
	if !holdsSuspect(r1, 4) {
		t.Fatalf("m1 did not suspect the unreachable machine: suspects=%v", r1.lease.suspects)
	}
	if holdsDead(r1, 4) {
		t.Fatal("m1 declared death from a one-way transport failure alone")
	}

	// Inbound silence confirms within the suspect's halved patience.
	cl.Eng.RunFor(5 * sim.Millisecond)
	if !holdsDead(r1, 4) {
		t.Fatalf("silence never confirmed the suspected death: dead=%v", r1.DeadIDs())
	}
	if cl.Machine(1).Router.Stats().Suspicions == 0 {
		t.Fatal("no suspicion recorded")
	}
}

// One-way reachability: the A→B direction is cut while B→A flows. B
// (which stopped hearing A) must declare A dead; A (which still hears
// B) must not reciprocate on transport evidence — and the cut-off
// machine must end up fenced with a typed refusal, not serving a
// divergent shard.
func TestOneWayCutIsJudgedDirectionally(t *testing.T) {
	plane := faultinject.New(77)
	cut := sim.Time(5 * sim.Millisecond)
	plane.PartitionOneWay(1, 2, cut, 0) // m1's frames to m2 vanish, forever

	cl := mustBoot(t, Config{N: 4, Seed: 12, Leases: true, Net: NetConfig{Plane: plane}})
	r1, r2 := cl.Machine(1).Router, cl.Machine(2).Router

	// By 11ms (absolute virtual time; boot staggers machines, so the
	// window is fixed, not relative) m2's silence sweep has declared m1
	// dead; m1 heard from m2 far more recently and must not have
	// reciprocated. Later m1 WILL declare the others — once the majority
	// excommunicates it they stop talking to it, and exile is
	// indistinguishable from death — but that is inbound silence doing
	// its job, not transport asymmetry.
	cl.Eng.RunUntil(sim.Time(11 * sim.Millisecond))
	if !holdsDead(r2, 1) {
		t.Fatalf("m2 never declared the machine it stopped hearing: dead=%v", r2.DeadIDs())
	}
	if holdsDead(r1, 2) {
		t.Fatal("m1 declared m2 dead while still hearing it — suspicion is not directional")
	}

	// m2's broadcast turns the majority against m1: its grants dry up,
	// its lease lapses, and every client op it would serve as primary is
	// refused with the typed StatusFenced.
	cl.Eng.RunUntil(sim.Time(25 * sim.Millisecond))
	if r1.LeaseValid() {
		t.Fatal("cut-off machine still holds a lease without a quorum")
	}
	for _, id := range []msg.DeviceID{2, 3, 4} {
		if !cl.Machine(id).Router.LeaseValid() {
			t.Fatalf("majority machine %d lost its lease", id)
		}
	}
	resp := do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: "split-probe", Value: val64(1)})
	if resp.Status != kvs.StatusFenced {
		t.Fatalf("fenced primary answered status %d, want StatusFenced", resp.Status)
	}
}

// A group partition: the minority side loses its lease within the lease
// duration and refuses clients; the majority side keeps serving,
// including (after the takeover fence) keys the minority used to own.
func TestMinorityPartitionFencedMajorityServes(t *testing.T) {
	minority := []msg.DeviceID{4, 5}
	majority := []msg.DeviceID{1, 2, 3}
	plane := faultinject.New(78)
	// The cut starts at 10ms — after the last machine's staggered boot
	// (7.5ms) and after the seed put below.
	plane.Partition(majority, minority, sim.Time(10*sim.Millisecond), sim.Time(60*sim.Millisecond))

	cl := mustBoot(t, Config{N: 5, Seed: 13, Leases: true, Net: NetConfig{Plane: plane}})

	// Seed a key whose primary sits in the minority, pre-partition.
	key := ""
	for i := 0; i < 1000; i++ {
		own := cl.Ring.Owners(keyFor(i), nil, 2)
		if own[0] == 4 || own[0] == 5 {
			key = keyFor(i)
			break
		}
	}
	if key == "" {
		t.Fatal("no minority-owned key found")
	}
	if resp := do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(42)}); resp.Status != kvs.StatusOK {
		t.Fatalf("seed put: %d", resp.Status)
	}

	cl.Eng.RunUntil(sim.Time(20 * sim.Millisecond))
	for _, id := range minority {
		if cl.Machine(id).Router.LeaseValid() {
			t.Fatalf("minority machine %d kept a lease with 2 of 5 grants", id)
		}
	}
	for _, id := range majority {
		if !cl.Machine(id).Router.LeaseValid() {
			t.Fatalf("majority machine %d lost its lease", id)
		}
	}

	// The minority ingress refuses with the typed denial.
	if resp := do(t, cl, 4, kvs.Request{Op: kvs.OpGet, Key: key}); resp.Status != kvs.StatusFenced {
		t.Fatalf("minority ingress answered %d, want StatusFenced", resp.Status)
	}
	// The majority — past the takeover fence (silence declaration at
	// ~14ms + lease + fail timeout ≈ 20ms) — serves the same key with
	// the pre-partition value intact (R1 across the failover).
	cl.Eng.RunUntil(sim.Time(30 * sim.Millisecond))
	resp := do(t, cl, 1, kvs.Request{Op: kvs.OpGet, Key: key})
	if resp.Status != kvs.StatusOK {
		t.Fatalf("majority ingress answered %d, want OK", resp.Status)
	}
	if len(resp.Value) != 8 || resp.Value[0] != 42 {
		t.Fatalf("failover lost the acked write: value=%v", resp.Value)
	}
}

// Fail-slow is not fail-stop: a machine running 20x slow keeps its
// lease, stays in everyone's membership view, and keeps serving — no
// false deaths, no view churn.
func TestFailSlowMachineKeepsLease(t *testing.T) {
	plane := faultinject.New(79)
	plane.SlowMachine(3, 20, sim.Time(2*sim.Millisecond), sim.Time(30*sim.Millisecond))

	cl := mustBoot(t, Config{N: 4, Seed: 14, Leases: true, Net: NetConfig{Plane: plane}})
	cl.Eng.RunFor(30 * sim.Millisecond)

	if st := cl.RouterStatsSum(); st.ViewChanges != 0 {
		t.Fatalf("fail-slow machine triggered %d view changes", st.ViewChanges)
	}
	for _, m := range cl.Machines {
		if !m.Router.LeaseValid() {
			t.Fatalf("machine %d lost its lease to slowness", m.ID)
		}
	}
	// The slow machine still serves clients.
	if resp := do(t, cl, 3, kvs.Request{Op: kvs.OpPut, Key: "slow-but-alive", Value: val64(9)}); resp.Status != kvs.StatusOK {
		t.Fatalf("slow machine refused a client: %d", resp.Status)
	}
}

// The takeover fence: immediately after a promotion the new primary
// refuses the promoted keys (typed) until every lease the deposed
// primary could hold has lapsed, then serves them.
func TestTakeoverFenceWindow(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 15, Leases: true})

	key := ""
	for i := 0; i < 1000; i++ {
		own := cl.Ring.Owners(keyFor(i), nil, 2)
		if own[0] == 4 {
			key = keyFor(i)
			break
		}
	}
	if key == "" {
		t.Fatal("no key primaried at m4")
	}
	if resp := do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(5)}); resp.Status != kvs.StatusOK {
		t.Fatalf("seed put: %d", resp.Status)
	}

	cl.Kill(4)
	// Run until some machine has declared m4 dead and promoted the key.
	deadline := cl.Eng.Now().Add(20 * sim.Millisecond)
	newPrimary := msg.DeviceID(0)
	for cl.Eng.Now() < deadline && newPrimary == 0 {
		cl.Eng.RunFor(500 * sim.Microsecond)
		for _, m := range cl.Machines {
			if m.ID != 4 && m.Router.PrimaryFor(key) && holdsDead(m.Router, 4) {
				newPrimary = m.ID
			}
		}
	}
	if newPrimary == 0 {
		t.Fatal("no machine promoted the dead primary's key")
	}
	if !cl.Machine(newPrimary).Router.KeyFenced(key) {
		t.Fatalf("m%d promoted %q without a takeover fence", newPrimary, key)
	}
	// Past DefaultLeaseDuration+DefaultFailTimeout the fence lifts and the key serves again,
	// value intact.
	cl.Eng.RunFor(DefaultLeaseDuration + DefaultFailTimeout + sim.Millisecond)
	if cl.Machine(newPrimary).Router.KeyFenced(key) {
		t.Fatal("takeover fence never lifted")
	}
	resp := do(t, cl, newPrimary, kvs.Request{Op: kvs.OpGet, Key: key})
	if resp.Status != kvs.StatusOK || len(resp.Value) != 8 || resp.Value[0] != 5 {
		t.Fatalf("promoted key unreadable after the fence: status=%d value=%v", resp.Status, resp.Value)
	}
}
