package exp

import (
	"fmt"

	"nocpu/internal/chaos"
	"nocpu/internal/fabric"
	"nocpu/internal/faultinject"
	"nocpu/internal/linearize"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// E21 is the split-brain safety experiment: a rack with epoch leases
// enabled is subjected to the failure modes crash-stop chaos (E15/E17)
// never models — asymmetric one-way link cuts, group partitions that
// HEAL, flapping links faster than the failure timeout, and fail-slow
// machines — while a mixed put/get workload records every
// invocation/response it observes into a linearize.History. Three
// verdicts per cell, all judged from OUTSIDE the fabric:
//
//	L1    — the client history is linearizable (the only audit that can
//	        prove the absence of split-brain: per-machine assertions
//	        cannot see two sides serving diverging truths)
//	split — a probe samples every key at 250µs: at most ONE machine may
//	        simultaneously hold a valid lease, claim the key, and be
//	        past its takeover fence
//	R1/R3 — no acked write lost; every key routable once the schedule
//	        ends (the fabric ledger, as in E17/E19)
//
// plus the worst no-server window (how long a key had NO machine able
// to serve it — the availability price of lease expiry, which safety
// buys). The head-cut schedule is the contrast row: partitioning one
// ordinary machine away from a decentralized rack costs a bounded
// fail-over window; partitioning the HEAD away costs the whole fleet,
// permanently — but typed (StatusFenced), never as silent divergence.

const (
	e21N       = 8
	e21Workers = 4
	e21Keys    = 8 // shared pool: workers collide on keys, so the
	// history has genuine cross-client concurrency for the checker
	e21Window  = 45 * sim.Millisecond
	e21Timeout = 10 * sim.Millisecond
	e21Probe   = 250 * sim.Microsecond

	e21FaultAt = 5 * sim.Millisecond  // after workload start
	e21HealAt  = 25 * sim.Millisecond // partition schedules heal here
	e21SlowFor = 25 * sim.Millisecond // fail-slow degradation window

	e21FlapUp     = 1 * sim.Millisecond // cut shorter than fabric.DefaultFailTimeout:
	e21FlapPeriod = 3 * sim.Millisecond // a gray failure, not a death
	e21FlapCycles = 6

	e21SlowFactor = 20
)

// e21FlapUp < fabric.DefaultFailTimeout, checked at build time: a flap
// that outlasts the failure timeout is a death, not a gray failure.
const _ = uint(fabric.DefaultFailTimeout - e21FlapUp - 1)

func e21Key(i int) string { return fmt.Sprintf("e21-%03d", i) }

// e21Cell is one fault schedule, applied relative to workload start.
type e21Cell struct {
	name  string
	apply func(p *faultinject.Plane, t0 sim.Time)
}

// e21Cells returns the schedule matrix. Machines 7/8 are the victims
// everywhere except the head-cut row, which targets machine 1 — the
// head under FlavorHead, an ordinary machine under the decentralized
// flavor: the same schedule, so the two rows differ only in what the
// architecture makes of losing that one machine.
func e21Cells() []e21Cell {
	rest := []msg.DeviceID{2, 3, 4, 5, 6, 7, 8}
	return []e21Cell{
		{"one-way cut 7→8", func(p *faultinject.Plane, t0 sim.Time) {
			p.PartitionOneWay(7, 8, t0.Add(e21FaultAt), t0.Add(e21HealAt))
		}},
		{"6/2 partition", func(p *faultinject.Plane, t0 sim.Time) {
			p.Partition([]msg.DeviceID{1, 2, 3, 4, 5, 6}, []msg.DeviceID{7, 8},
				t0.Add(e21FaultAt), t0.Add(e21HealAt))
		}},
		{"flapping link", func(p *faultinject.Plane, t0 sim.Time) {
			p.Flap([]msg.DeviceID{7}, []msg.DeviceID{1, 2, 3, 4, 5, 6, 8},
				t0.Add(e21FaultAt), e21FlapUp, e21FlapPeriod, e21FlapCycles)
		}},
		{"fail-slow ×20", func(p *faultinject.Plane, t0 sim.Time) {
			p.SlowMachine(7, e21SlowFactor, t0.Add(e21FaultAt), t0.Add(e21FaultAt+e21SlowFor))
		}},
		{"head cut away", func(p *faultinject.Plane, t0 sim.Time) {
			p.Partition([]msg.DeviceID{1}, rest, t0.Add(e21FaultAt), t0.Add(e21HealAt))
		}},
	}
}

// e21ProbeState is the split-brain probe: every e21Probe interval, for each
// key, count the machines that would serve it RIGHT NOW as primary —
// valid lease, own-view ownership, takeover fence lifted. More than one
// is split-brain; zero is the (bounded) unavailability lease expiry
// costs.
type e21ProbeState struct {
	splits    int // samples with >1 unfenced lease-holding primary
	zeroRun   int
	worstZero int // longest consecutive no-server run, in samples
}

func (p *e21ProbeState) sample(cl *fabric.Cluster) {
	zero := false
	for i := 0; i < e21Keys; i++ {
		key := e21Key(i)
		servers := 0
		for _, id := range cl.LiveIDs() {
			r := cl.Machine(id).Router
			if r.LeaseValid() && r.PrimaryFor(key) && !r.KeyFenced(key) {
				servers++
			}
		}
		if servers > 1 {
			p.splits++
		}
		if servers == 0 {
			zero = true
		}
	}
	if zero {
		p.zeroRun++
		if p.zeroRun > p.worstZero {
			p.worstZero = p.zeroRun
		}
	} else {
		p.zeroRun = 0
	}
}

func (p *e21ProbeState) arm(cl *fabric.Cluster, stopAt sim.Time) {
	cl.Eng.After(e21Probe, func() {
		if cl.Eng.Now() >= stopAt {
			return
		}
		p.sample(cl)
		p.arm(cl, stopAt)
	})
}

// e21Row is one cell's outcome.
type e21Row struct {
	cell   string
	flavor fabric.Flavor

	netsim.Stats
	lin       linearize.Result
	splits    int
	worstZero sim.Duration
	rep       chaos.Report
	st        fabric.RouterStats
	maxEpoch  uint32
	leasedEnd int
}

// e21Run executes one cell: N=8 with epoch leases on, the schedule
// applied mid-workload, the probe sampling throughout, the readback
// after.
func e21Run(flavor fabric.Flavor, idx int, cell e21Cell) e21Row {
	seed := uint64(0xE21)<<8 | uint64(idx)
	if flavor == fabric.FlavorHead {
		seed ^= 0x4EAD
	}
	plane := faultinject.New(seed ^ 0xF17)
	hist := linearize.NewHistory()
	var probe e21ProbeState
	cl, st, rep := runRackCampaign(rackCell{
		cfg: fabric.Config{
			N: e21N, Flavor: flavor, Seed: seed, MachineMemory: e17Memory,
			Leases: true, Net: fabric.NetConfig{Plane: plane},
		},
		// Workers walk the shared pool from staggered offsets, so their
		// collisions interleave.
		client: netsim.Spec{
			Workers: e21Workers, Timeout: e21Timeout, Ops: netsim.Alternate, History: hist,
			Keys: keySet(e21Key, e21Keys), Pick: netsim.Walk, KeysPer: 2,
		},
		window: e21Window,
		schedule: func(cl *fabric.Cluster, s *netsim.Spec, t0 sim.Time) {
			cell.apply(plane, t0)
			probe.arm(cl, s.Stop)
		},
		// Let in-flight frames, fences, and the last lease rounds settle
		// before judging routability.
		settle: func(cl *fabric.Cluster, _ sim.Time) {
			cl.Eng.RunFor(fabric.DefaultLeaseDuration + fabric.DefaultFailTimeout + 2*sim.Millisecond)
		},
	})

	leased := 0
	for _, m := range cl.Machines {
		if m.Router.LeaseValid() {
			leased++
		}
	}
	return e21Row{
		cell: cell.name, flavor: flavor, Stats: st,
		lin: linearize.Check(hist), splits: probe.splits,
		worstZero: sim.Duration(probe.worstZero) * e21Probe,
		rep:       rep, st: cl.RouterStatsSum(), maxEpoch: cl.MaxEpoch(),
		leasedEnd: leased,
	}
}

func e21L1(r e21Row) string {
	if len(r.lin.Aborted) > 0 {
		return "UNKNOWN"
	}
	if r.lin.OK {
		return "clean"
	}
	return "FAIL:" + r.lin.BadKey
}

// E21SplitBrain runs the split-brain safety tables.
func E21SplitBrain() *Result {
	res := &Result{ID: "E21", Title: "Split-brain safety: asymmetric partitions, gray failures, and the client-history audit"}

	safety := metrics.NewTable(
		fmt.Sprintf("N=%d, epoch leases on (lease %v, renew %v, fail timeout %v); fault at +%v, partitions heal at +%v; %d workers × put/get over %d shared keys; probe every %v",
			e21N, fabric.DefaultLeaseDuration, fabric.DefaultLeaseRenewEvery, fabric.DefaultFailTimeout,
			e21FaultAt, e21HealAt, e21Workers, e21Keys, e21Probe),
		"schedule", "flavor", "puts", "gets", "acked", "fenced", "timeouts", "ambiguous",
		"L1 history", "L1 ops", "split samples", "worst no-server", "lost acked (R1)", "unroutable (R3)")
	detect := metrics.NewTable(
		"failure-detector and lease traffic per cell (suspicions are transport-level, directional; deaths only from inbound silence)",
		"schedule", "flavor", "suspicions", "silence deaths", "view changes",
		"renews", "grants", "revokes", "fenced ops", "lapses", "max epoch", "leased after")

	for idx, cell := range e21Cells() {
		for _, flavor := range []fabric.Flavor{fabric.FlavorDecentralized, fabric.FlavorHead} {
			row := e21Run(flavor, idx, cell)
			safety.AddRow(row.cell, row.flavor.String(), row.Puts, row.Gets, row.rep.Acks,
				row.Fenced(), row.Timeouts, row.Ambiguous(),
				e21L1(row), fmt.Sprintf("%d+%d?", row.lin.Required, row.lin.Optional),
				row.splits, row.worstZero, row.rep.G1Lost, len(row.rep.Unroutable))
			detect.AddRow(row.cell, row.flavor.String(), row.st.Suspicions, row.st.SilenceDeaths,
				row.st.ViewChanges, row.st.LeaseRenews, row.st.LeaseGrants, row.st.LeaseRevokes,
				row.st.LeaseFenced, row.st.LeaseLapses, row.maxEpoch, row.leasedEnd)
		}
	}
	res.Tables = append(res.Tables, safety, detect)

	res.Notes = append(res.Notes,
		"L1 is the Wing–Gong linearizability check over the client-observed history, per key (linearizability is compositional): 'clean' means ONE sequential order explains every definitive response — the only audit that can prove the absence of split-brain from outside the fabric",
		"timed-out and error'd writes are carried as AMBIGUOUS operations ('N?' in the ops column): the checker may place their effect at any point after invocation or drop it entirely; typed refusals (shed/fenced/denied) are excluded outright — the refusal contract says they did not execute, and a refused write whose value is later READ is itself an L1 violation",
		"a primary serves only while holding a quorum-countersigned epoch lease (2ms, renewed every 500µs) strictly shorter than the 4ms failure timeout, and a promoted machine fences taken-over keys for lease+timeout before serving: the split-sample probe (>1 unfenced lease-holding primary for a key) stays at zero through every schedule because the two windows cannot overlap",
		"the 'worst no-server' column is the price safety pays: between a partitioned primary's lease lapsing and its successor's takeover fence lifting, a key has NO server — bounded by lease + fail timeout + detection, about 10ms here, versus the permanent split a lease-less fabric risks",
		"transport-level send failures record directional SUSPICION only; death needs inbound silence for a full timeout (halved for suspects). The flapping and fail-slow rows show the payoff: zero deaths, zero view changes, zero repair churn — a gray failure is ridden out, not amplified into a membership storm",
		"dead sets never shrink, so a healed partition does not resurrect the exiled side: its machines stay fenced (typed StatusFenced) and the fleet runs on without them — rejoin is the reconciler's job (E19), not the failure detector's",
		"the head-cut contrast: decentralized, machine 1 is one of eight — a bounded fail-over and life goes on. Under the head flavor the SAME schedule decapitates the control plane: the head (patience-limited, hearing nobody) declares the fleet dead, and on heal its revocations propagate the excommunication everywhere — permanent, fleet-wide, TYPED unavailability (R3 unroutable, never wrong data). Safety holds in both architectures; only the blast radius differs — the paper's §2 argument measured end to end",
	)
	return res
}
