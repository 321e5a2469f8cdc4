package exp

import (
	"fmt"
	"testing"

	"nocpu/internal/chaos"
	"nocpu/internal/fabric"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// Fabric mechanism regression tests: the netsim load client hammers a
// rack with writes aimed at chosen replica roles while whole machines
// are killed at scripted instants, then the read-back sweep feeds the
// chaos ledger, which judges R1 (no acked write lost), R2 (no duplicate
// apply) and R3 (every touched key routable after recovery). They use
// only the fabric's exported API and live here, next to the campaign
// runner.
//
// Timeout soundness (DESIGN.md, "The load client"): the client
// timeout (25ms) exceeds the worst in-system lifetime of a write —
// ingress forwarding gives up after OpTimeout (10ms), and an already-
// forwarded request is applied within microseconds of arrival or
// dropped forever (dead machine / dead-set fencing).
const (
	fcWorkers   = 4
	fcKeysPer   = 4
	fcWarmup    = 2 * sim.Millisecond
	fcWindow    = 30 * sim.Millisecond
	fcTail      = 10 * sim.Millisecond
	fcOpTimeout = 25 * sim.Millisecond
	fcSettle    = 20 * sim.Millisecond
	// fcRecoveryBound caps the window from a machine kill to the next
	// acknowledged op: unreachable detection is one RTT and failover is a
	// view change plus one re-route, so even the head-node flavor's
	// heartbeat path (FailTimeout 4ms + sweep) fits with slack.
	fcRecoveryBound = 25 * sim.Millisecond
)

// fcRun runs one kill campaign on a fresh rack: pickKeys chooses the
// workload's keys on the booted rack (worker w owns keys
// [w*fcKeysPer, (w+1)*fcKeysPer)), the kills fire at their offsets and
// open recovery windows, and the sweep runs after fcSettle.
func fcRun(t *testing.T, cfg fabric.Config, pickKeys func(cl *fabric.Cluster) []string, kills ...rackKill) (*fabric.Cluster, chaos.Report) {
	t.Helper()
	var out outages
	cl, _, rep := runRackCampaign(rackCell{
		cfg: cfg,
		client: netsim.Spec{
			Workers: fcWorkers, Timeout: fcOpTimeout, Ops: netsim.Versions, Pick: netsim.Owned, KeysPer: fcKeysPer,
		},
		window: fcWarmup + fcWindow + fcTail,
		schedule: func(cl *fabric.Cluster, s *netsim.Spec, t0 sim.Time) {
			s.Keys = pickKeys(cl)
			out.killSchedule(kills)(cl, s, t0)
		},
		// Let resyncs and view gossip finish.
		settle: func(cl *fabric.Cluster, _ sim.Time) { cl.Eng.RunFor(fcSettle) },
	})
	rep.Recoveries = out.recovered
	return cl, rep
}

// keysOwnedBy collects n keys whose owner at the given replica slot is
// the victim, so a campaign can aim every write at a specific role.
func keysOwnedBy(t *testing.T, cl *fabric.Cluster, victim msg.DeviceID, slot, n int) []string {
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		k := fmt.Sprintf("fc-%d-%05d", slot, i)
		own := cl.Ring.Owners(k, nil, 2)
		if len(own) > slot && own[slot] == victim {
			out = append(out, k)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d keys with owner[%d]=%d", len(out), n, slot, victim)
	}
	return out
}

// mixedKeys collects keys without regard to placement.
func mixedKeys(*fabric.Cluster) []string {
	out := make([]string, fcWorkers*fcKeysPer)
	for i := range out {
		out[i] = fmt.Sprintf("fc-mix-%05d", i)
	}
	return out
}

func assertClean(t *testing.T, cl *fabric.Cluster, rep chaos.Report, kills int) {
	t.Helper()
	if rep.G1Lost != 0 {
		t.Errorf("R1 violated: %d acked writes lost: %v", rep.G1Lost, rep.Violations)
	}
	if rep.G2Dups != 0 {
		t.Errorf("R2 violated: %d duplicate/corrupt applies: %v", rep.G2Dups, rep.Violations)
	}
	if len(rep.Unroutable) != 0 {
		t.Errorf("R3 violated: unroutable keys after recovery: %v", rep.Unroutable)
	}
	if !rep.Clean(fcRecoveryBound) {
		t.Errorf("recovery exceeded %v: windows %v", fcRecoveryBound, rep.Recoveries)
	}
	if len(rep.Recoveries) < kills {
		t.Errorf("only %d/%d kills saw service restored", len(rep.Recoveries), kills)
	}
	if rep.Acks == 0 {
		t.Error("campaign acked nothing; the workload never ran")
	}
	st := cl.RouterStatsSum()
	if kills > 0 && st.ViewChanges == 0 {
		t.Error("machines died but no router changed view")
	}
}

// TestChaosKillPrimaryMidWrite kills the machine that is PRIMARY for
// every workload key, mid-window: all in-flight writes lose their
// serving replica and the backup must take over without losing an ack.
func TestChaosKillPrimaryMidWrite(t *testing.T) {
	const victim = msg.DeviceID(2)
	cl, rep := fcRun(t, fabric.Config{N: 4, Seed: 0xC1},
		func(cl *fabric.Cluster) []string { return keysOwnedBy(t, cl, victim, 0, fcWorkers*fcKeysPer) },
		rackKill{fcWarmup + fcWindow/2, victim})
	assertClean(t, cl, rep, 1)
	if st := cl.RouterStatsSum(); st.Resyncs == 0 {
		t.Error("primary died but no surviving machine resynced its shard")
	}
}

// TestChaosKillBackupMidReplication kills the machine that is BACKUP
// for every workload key: every in-flight replication loses its target
// and the primary must re-replicate to the next live owner before
// acking (solo-ack is allowed only when the ring has no second owner).
func TestChaosKillBackupMidReplication(t *testing.T) {
	const victim = msg.DeviceID(3)
	cl, rep := fcRun(t, fabric.Config{N: 4, Seed: 0xC2},
		func(cl *fabric.Cluster) []string { return keysOwnedBy(t, cl, victim, 1, fcWorkers*fcKeysPer) },
		rackKill{fcWarmup + fcWindow/2, victim})
	assertClean(t, cl, rep, 1)
}

// TestChaosSequentialDoubleFailure kills two machines 10ms apart —
// enough for the first failover's resync to finish, so the second kill
// never erases the last copy (simultaneous kills of a replica pair
// legitimately lose data at R=2 and are out of scope by design).
func TestChaosSequentialDoubleFailure(t *testing.T) {
	const first = fcWarmup + 5*sim.Millisecond
	cl, rep := fcRun(t, fabric.Config{N: 4, Seed: 0xC3}, mixedKeys,
		rackKill{first, 2}, rackKill{first + 10*sim.Millisecond, 3})
	assertClean(t, cl, rep, 2)
	if got := cl.MaxEpoch(); got != 2 {
		t.Errorf("max epoch %d after two deaths, want 2", got)
	}
}

// keysAvoidingPair collects n keys for which the two victims are NOT
// the complete owner set: at replication factor 2, killing both owners
// of a key in the same instant legitimately loses it, so a concurrent
// double-failure campaign aims only at keys with a surviving copy.
func keysAvoidingPair(t *testing.T, cl *fabric.Cluster, a, b msg.DeviceID, n int) []string {
	var out []string
	for i := 0; len(out) < n && i < 100000; i++ {
		k := fmt.Sprintf("fc-pair-%05d", i)
		own := cl.Ring.Owners(k, nil, 2)
		if len(own) == 2 && ((own[0] == a && own[1] == b) || (own[0] == b && own[1] == a)) {
			continue
		}
		if len(own) == 1 && (own[0] == a || own[0] == b) {
			continue
		}
		out = append(out, k)
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d keys avoiding the pair {%d,%d}", len(out), n, a, b)
	}
	return out
}

// TestChaosConcurrentDoubleFailure kills two machines at the SAME
// virtual instant — zero time between deaths, unlike the sequential
// campaign's 10ms gap — mid-window. Every workload key keeps one
// surviving owner (see keysAvoidingPair), so the fabric must absorb
// both failovers concurrently without losing an ack or a route: the
// E19 reconciler's concurrent-failure tolerance leans on exactly this
// mechanism-level property.
func TestChaosConcurrentDoubleFailure(t *testing.T) {
	for _, tc := range []struct {
		flavor  fabric.Flavor
		seed    uint64
		victims [2]msg.DeviceID
	}{
		{fabric.FlavorDecentralized, 0xC5, [2]msg.DeviceID{2, 5}},
		{fabric.FlavorHead, 0xC6, [2]msg.DeviceID{3, 5}}, // head (1) never killed: SPOF by design
	} {
		tc := tc
		t.Run(tc.flavor.String(), func(t *testing.T) {
			t.Parallel()
			const at = fcWarmup + fcWindow/2
			cl, rep := fcRun(t, fabric.Config{N: 6, Seed: tc.seed, Flavor: tc.flavor},
				func(cl *fabric.Cluster) []string {
					return keysAvoidingPair(t, cl, tc.victims[0], tc.victims[1], fcWorkers*fcKeysPer)
				},
				rackKill{at, tc.victims[0]}, rackKill{at, tc.victims[1]})
			assertClean(t, cl, rep, 2)
			if got := cl.MaxEpoch(); got != 2 {
				t.Errorf("max epoch %d after two same-frame deaths, want 2", got)
			}
		})
	}
}

// TestChaosHeadFlavorKillWorker kills a non-head machine under the
// head-node flavor: the head notices via relay failures or heartbeat
// staleness and republishes the ring; workers must not self-detect.
func TestChaosHeadFlavorKillWorker(t *testing.T) {
	cl, rep := fcRun(t, fabric.Config{N: 4, Seed: 0xC4, Flavor: fabric.FlavorHead}, mixedKeys,
		rackKill{fcWarmup + fcWindow/2, 3})
	assertClean(t, cl, rep, 1)
}
