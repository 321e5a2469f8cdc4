package exp

import (
	"fmt"

	"nocpu/internal/chaos"
	"nocpu/internal/fabric"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// E17 is the rack-scale experiment: N complete CPU-less machines on one
// deterministic event loop, joined by a modeled datacenter network,
// running a sharded primary/backup-replicated KVS. Two questions:
//
//  1. Scaling — how do throughput and tail latency grow with N when
//     every smart NIC routes for itself (decentralized) versus when a
//     centralos head node relays every cross-machine request? Under
//     uniform and Zipf-skewed key popularity.
//  2. Resilience — when whole machines are killed mid-workload, does
//     the fabric uphold R1 (no acked write lost), R2 (no duplicate
//     apply) and R3 (all keys routable after recovery), and how wide
//     is the outage window under each control architecture?

// E17 tuning. Workload size and concurrency scale with N (fixed
// per-machine offered work) so the table measures scaling, not
// saturation of a fixed load. The measured phase is a get workload with
// the NIC value cache enabled (write-through replication keeps it
// coherent), so throughput is bound by NICs and the fabric — the layer
// the two control architectures differ in — rather than by flash
// latency, which is identical for both. Replicated writes are measured
// by the preload and stressed by the chaos table. The chaos client op
// timeout must exceed the fabric's in-system write lifetime (ingress
// forwarding gives up after fabric.DefaultOpTimeout, 10ms) so per-key
// order is preserved across driver retries.
const (
	e17ValSize     = 64
	e17KeysPerMach = 64
	e17OpsPerMach  = 256
	e17WorkersPer  = 8
	e17MaxWorkers  = 512
	e17ZipfTheta   = 0.99
	e17Memory      = 4 << 20
	e17Cache       = 512

	e17ChaosN        = 8
	e17ChaosWorkers  = 4
	e17ChaosKeysPer  = 4
	e17ChaosWarmup   = 2 * sim.Millisecond
	e17ChaosWindow   = 30 * sim.Millisecond
	e17ChaosTail     = 10 * sim.Millisecond
	e17ChaosTimeout  = 25 * sim.Millisecond
	e17ChaosSettle   = 20 * sim.Millisecond
	e17RecoveryBound = 25 * sim.Millisecond
)

// e17ChaosTimeout > fabric.DefaultOpTimeout, checked at build time (DESIGN.md
// "Timeout soundness"): a negative constant does not convert to uint.
const _ = uint(e17ChaosTimeout - fabric.DefaultOpTimeout - 1)

func e17Key(i int) string { return fmt.Sprintf("e17-%05d", i) }

// e17Scale runs one scaling cell: a replicated put preload, then a
// closed-loop get workload over uniform or Zipf keys.
func e17Scale(n int, flavor fabric.Flavor, zipf bool) (netsim.Stats, fabric.RouterStats) {
	seed := uint64(0xE17) + uint64(n)<<4
	if zipf {
		seed ^= 0x217F
	}
	// The NIC value cache is on for the scaling cells only; the chaos
	// cells keep the full flash write path in the loop.
	cl := bootRack(fabric.Config{
		N: n, Flavor: flavor, Seed: seed, MachineMemory: e17Memory, CacheEntries: e17Cache,
	})
	nKeys := e17KeysPerMach * n

	keys := keySet(e17Key, nKeys)
	netsim.Run(cl.Eng, &rackIngress{cl: cl}, netsim.Spec{
		Workers: 8, PerWorker: (nKeys + 7) / 8, Keys: keys, Pick: netsim.Sequential,
		Ops: netsim.Puts, ValueSize: e17ValSize,
	})

	preStats := cl.RouterStatsSum()
	workers := e17WorkersPer * n
	if workers > e17MaxWorkers {
		workers = e17MaxWorkers
	}
	load := netsim.Spec{
		Workers: workers, PerWorker: e17OpsPerMach * n / workers, Keys: keys, Rand: sim.NewRand(seed ^ 3),
	}
	if zipf {
		load.Zipf = sim.NewZipf(sim.NewRand(seed^2), nKeys, e17ZipfTheta)
	}
	st := netsim.Run(cl.Eng, &rackIngress{cl: cl}, load)

	// Report the measured phase only: subtract the preload's counters.
	rt := cl.RouterStatsSum()
	rt.Local -= preStats.Local
	rt.Remote -= preStats.Remote
	rt.HeadRelayed -= preStats.HeadRelayed
	rt.Applies -= preStats.Applies
	return st, rt
}

// e17ChaosRow is one machine-kill campaign's outcome.
type e17ChaosRow struct {
	netsim.Stats
	rep      chaos.Report
	stats    fabric.RouterStats
	kills    int
	maxEpoch uint32
}

// e17Chaos runs one machine-kill campaign: a write workload over an
// 8-machine rack while victims are killed at scripted instants.
// Sequential kills only — at replication factor 2, simultaneously
// killing a replica pair legitimately loses data; the fabric's claim is
// surviving any sequence of single-machine failures with a resync gap.
// Under the head-node flavor the head (machine 1) is never a victim:
// it is a single point of failure by construction, which is the point
// of the comparison.
func e17Chaos(flavor fabric.Flavor, victims []msg.DeviceID, seed uint64) e17ChaosRow {
	// Spread kills across the window, 10ms apart (>> one failover+resync).
	kills := make([]rackKill, len(victims))
	for i, v := range victims {
		kills[i] = rackKill{e17ChaosWarmup + sim.Duration(5+10*i)*sim.Millisecond, v}
	}
	var out outages
	cl, st, rep := runRackCampaign(rackCell{
		cfg: fabric.Config{N: e17ChaosN, Flavor: flavor, Seed: seed, MachineMemory: e17Memory},
		client: netsim.Spec{
			Workers: e17ChaosWorkers, Timeout: e17ChaosTimeout, Ops: netsim.Versions,
			Keys: keySet(e17Key, e17ChaosWorkers*e17ChaosKeysPer), Pick: netsim.Owned, KeysPer: e17ChaosKeysPer,
		},
		window:   e17ChaosWarmup + e17ChaosWindow + e17ChaosTail,
		schedule: out.killSchedule(kills),
		settle:   func(cl *fabric.Cluster, _ sim.Time) { cl.Eng.RunFor(e17ChaosSettle) },
	})
	rep.Recoveries = out.recovered
	return e17ChaosRow{
		Stats: st, rep: rep, stats: cl.RouterStatsSum(),
		kills: len(victims), maxEpoch: cl.MaxEpoch(),
	}
}

// e17Flavors pairs each fabric flavor with its chaos victim list.
var e17Flavors = []struct {
	flavor  fabric.Flavor
	victims []msg.DeviceID
}{
	{fabric.FlavorDecentralized, []msg.DeviceID{3, 6}},
	{fabric.FlavorHead, []msg.DeviceID{3, 6}}, // head (1) never killed: SPOF by design
}

// E17Fabric runs the rack-scale scaling and chaos tables.
func E17Fabric() *Result {
	res := &Result{ID: "E17", Title: "Rack-scale fabric: sharded replicated KVS across N machines"}

	scale := metrics.NewTable(
		fmt.Sprintf("closed-loop get workload after a replicated preload (%d ops, %d keys and %d workers per machine, NIC value cache on, Zipf θ=%.2f)",
			e17OpsPerMach, e17KeysPerMach, e17WorkersPer, e17ZipfTheta),
		"machines", "flavor", "dist", "ops", "errors", "throughput (op/s)",
		"p50", "p99", "remote", "head relayed")
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		for _, fl := range []fabric.Flavor{fabric.FlavorDecentralized, fabric.FlavorHead} {
			for _, zipf := range []bool{false, true} {
				dist := "uniform"
				if zipf {
					dist = "zipf"
				}
				st, rt := e17Scale(n, fl, zipf)
				total := rt.Local + rt.Remote
				remote := "0%"
				if total > 0 {
					remote = fmt.Sprintf("%d%%", rt.Remote*100/total)
				}
				scale.AddRow(n, fl.String(), dist, st.Completed, st.Errors(),
					fmt.Sprintf("%.0f", st.Throughput()),
					st.Latency.P50(), st.Latency.P99(), remote, rt.HeadRelayed)
			}
		}
	}
	res.Tables = append(res.Tables, scale)

	kill := metrics.NewTable(
		fmt.Sprintf("machine-kill chaos on an %d-machine rack (%d workers, sequential kills 10ms apart)",
			e17ChaosN, e17ChaosWorkers),
		"flavor", "kills", "puts", "acked", "timeouts", "lost acked (R1)",
		"dup applies (R2)", "unroutable (R3)", "recovered", "max recovery",
		"max epoch", "resyncs")
	for i, fc := range e17Flavors {
		row := e17Chaos(fc.flavor, fc.victims, 0xE17C+uint64(i))
		recovered := fmt.Sprintf("%d/%d", len(row.rep.Recoveries), row.kills)
		kill.AddRow(fc.flavor.String(), row.kills, row.Puts, row.rep.Acks, row.Timeouts,
			row.rep.G1Lost, row.rep.G2Dups, len(row.rep.Unroutable), recovered,
			row.rep.MaxRecovery(), row.maxEpoch, row.stats.Resyncs)
	}
	res.Tables = append(res.Tables, kill)

	res.Notes = append(res.Notes,
		"every machine is a complete emulated system (bus, NIC, SSD, memory controller) sharing ONE deterministic event loop; the fabric models per-link latency plus per-byte serialization, and peer frames contend with client traffic in each NIC's rx queue",
		"decentralized: every smart NIC owns a consistent-hash ring and routes/replicates for itself; head-node: a centralos machine relays all cross-machine requests and is the membership authority — its rx queue is the scaling bottleneck the throughput and relayed columns expose",
		"the measured phase is a get workload with the NIC value cache enabled (write-through replicated puts keep it coherent), so the bottleneck under test is the fabric and control architecture, not flash latency; replicated writes are exercised by the preload and the chaos table",
		"R1/R2 are judged by the fabric ledger from client-visible evidence only (unique per-key increasing values); R3 is the read-back sweep finding every touched key routable after failover",
		"sequential kills only: at replication factor 2, killing a replica pair inside one resync window legitimately loses data — the fabric's guarantee is surviving any sequence of single-machine failures",
		"the head node is never a chaos victim: it is a single point of failure by construction, which is the architectural contrast under test")
	return res
}
