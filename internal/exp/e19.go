package exp

import (
	"fmt"

	"nocpu/internal/chaos"
	"nocpu/internal/fabric"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
	"nocpu/internal/reconcile"
	"nocpu/internal/sim"
)

// E19 is the self-healing fleet experiment: a rack under a declarative
// reconciler (internal/reconcile) is subjected to one campaign per cell
// — a machine kill, then a rolling config upgrade v1→v2, then a
// same-frame DOUBLE kill landing mid-upgrade — while a per-op-timeout
// write workload measures the disruption clients actually see. Four
// verdicts per cell:
//
//	C1 — every divergence (kill, spec change) converges within the bound
//	C2 — no acked write lost across any reconcile action (fabric R1/R2)
//	C3 — voluntary disruption never exceeds the maxUnavailable budget
//	R3 — every touched key routable once the dust settles
//
// plus the disruption profile: goodput floor (worst bucket vs peak) and
// put tail latency across the whole campaign. Both control
// architectures run the same campaign; under the head-node flavor the
// head can never rotate ITSELF out of the ring to flash, so it finishes
// the campaign pinned on config v1 — the "upgraded" column and the
// notes call out that asymmetry.

// E19 tuning. The campaign window must cover a full rolling upgrade at
// N=16 (each rotation pays a cordon, a staged transfer, a commit, and a
// 2ms flash of the victim); the converge budget past the workload
// window is generous because the double kill mid-upgrade forces a
// repair before rotations resume. Bucketed goodput uses 4ms buckets so
// a single in-flight op timeout (25ms) is visible as a multi-bucket
// dip, not averaged away.
const (
	e19Spares     = 2
	e19MaxUnavail = 1
	e19Workers    = 4
	e19KeysPer    = 4
	e19Warmup     = 2 * sim.Millisecond
	e19Window     = 120 * sim.Millisecond
	e19Tail       = 10 * sim.Millisecond
	e19Timeout    = 25 * sim.Millisecond
	e19Bucket     = 4 * sim.Millisecond

	e19KillAt    = 6 * sim.Millisecond
	e19UpgradeAt = 16 * sim.Millisecond
	e19DoubleAt  = 40 * sim.Millisecond

	e19ConvergeBudget = 600 * sim.Millisecond
)

// e19Timeout > fabric.DefaultOpTimeout, checked at build time (DESIGN.md
// "Timeout soundness"): a negative constant does not convert to uint.
const _ = uint(e19Timeout - fabric.DefaultOpTimeout - 1)

func e19Key(i int) string { return fmt.Sprintf("e19-%05d", i) }

func e19Keys() []string { return keySet(e19Key, e19Workers*e19KeysPer) }

// e19SingleVictim picks the first scripted kill: the highest-ID serving
// machine that is not the head. Any single victim is safe at
// replication factor 2 — the surviving replica covers every key.
func e19SingleVictim(cl *fabric.Cluster) msg.DeviceID {
	head := cl.Machines[0].Router.Head()
	var victim msg.DeviceID
	for _, id := range cl.ServingIDs() {
		if id != head && id > victim {
			victim = id
		}
	}
	return victim
}

// e19Quiesced reports whether no live machine has a staged ring
// transition. The double kill waits for this instant: mid-transfer, a
// key's only copies can sit on its CURRENT owners while the staged
// owners are still syncing, so no pair of machines is provably safe to
// kill together until the transition lands.
func e19Quiesced(cl *fabric.Cluster) bool {
	for _, id := range cl.LiveIDs() {
		if cl.Machine(id).Router.PendingVer() != 0 {
			return false
		}
	}
	return true
}

// e19SafePair picks two serving machines that do not jointly hold the
// only copies of any workload key under the committed ring — the
// honest boundary of a replication-factor-2 fabric: any pair that is
// not a replica pair may die in the SAME event frame without data
// loss. The head is never a victim (SPOF by construction, as in E17).
func e19SafePair(cl *fabric.Cluster, keys []string) (msg.DeviceID, msg.DeviceID) {
	serving := cl.ServingIDs()
	if len(serving) < 4 {
		return 0, 0
	}
	head := cl.Machines[0].Router.Head()
	dead := make(map[msg.DeviceID]bool)
	for _, id := range cl.MachineIDs() {
		if !cl.Alive(id) {
			dead[id] = true
		}
	}
	ring := fabric.NewRing(cl.Machine(serving[0]).Router.RingMembers(), fabric.DefaultVnodes)
	replicaPair := make(map[[2]msg.DeviceID]bool)
	soleOwner := make(map[msg.DeviceID]bool)
	for _, k := range keys {
		own := ring.Owners(k, dead, fabric.DefaultReplicas)
		switch len(own) {
		case 1:
			soleOwner[own[0]] = true
		case 2:
			p := [2]msg.DeviceID{own[0], own[1]}
			if p[0] > p[1] {
				p[0], p[1] = p[1], p[0]
			}
			replicaPair[p] = true
		}
	}
	for i := 0; i < len(serving); i++ {
		for j := i + 1; j < len(serving); j++ {
			a, b := serving[i], serving[j]
			if a == head || b == head || soleOwner[a] || soleOwner[b] {
				continue
			}
			if !replicaPair[[2]msg.DeviceID{a, b}] {
				return a, b
			}
		}
	}
	return 0, 0
}

// e19Row is one cell's outcome.
type e19Row struct {
	netsim.Stats
	kills int

	rep   chaos.Report
	fleet reconcile.Report

	// Acked feeds the put latency and the acks per e19Bucket from t0.
	eng         *sim.Engine
	t0          sim.Time
	lat         *metrics.Histogram
	buckets     []uint64 // fixed length: the window's buckets
	floor, peak uint64   // worst and best ack bucket past the ramp-up bucket

	upgraded  string
	converged bool
	maxEpoch  uint32
}

func (r *e19Row) Acked(issued sim.Time) {
	if i := int(r.eng.Now().Sub(r.t0) / e19Bucket); i < len(r.buckets) {
		r.buckets[i]++
	}
	r.lat.Observe(r.eng.Now().Sub(issued))
}

// e19Cell runs one cell of N machines under the write workload.
// campaign=true boots spares too, attaches the reconciler and fires the
// scripted campaign; campaign=false is the same workload window with NO
// reconciler and no chaos — the undisturbed goodput/latency reference
// the campaign rows are read against.
func e19Cell(n int, flavor fabric.Flavor, campaign bool) e19Row {
	cfg := fabric.Config{N: n, Flavor: flavor, Seed: uint64(0xE19B)<<8 | uint64(n), MachineMemory: e17Memory}
	if campaign {
		cfg.Spares, cfg.Seed = e19Spares, uint64(0xE19)<<8|uint64(n)
	}
	if flavor == fabric.FlavorHead {
		cfg.Seed ^= 0x4EAD
	}
	const window = e19Warmup + e19Window + e19Tail
	row := e19Row{lat: metrics.NewHistogram(), buckets: make([]uint64, int(window/e19Bucket))}
	var fl *reconcile.Fleet

	cl, st, rep := runRackCampaign(rackCell{
		cfg: cfg,
		client: netsim.Spec{
			Workers: e19Workers, Timeout: e19Timeout, Ops: netsim.Versions,
			Keys: e19Keys(), Pick: netsim.Owned, KeysPer: e19KeysPer,
		},
		window: window,
		schedule: func(cl *fabric.Cluster, s *netsim.Spec, t0 sim.Time) {
			eng := cl.Eng
			row.eng, row.t0, s.Acks = eng, t0, &row
			if !campaign {
				return
			}
			fl = reconcile.Attach(cl, reconcile.Config{
				Spec: reconcile.Spec{Size: n, ConfigVersion: 1, MaxUnavailable: e19MaxUnavail},
			})
			eng.At(t0.Add(e19KillAt), func() {
				if v := e19SingleVictim(cl); v != 0 {
					fl.Kill(v)
					row.kills++
				}
			})
			eng.At(t0.Add(e19UpgradeAt), func() {
				fl.SetSpec(reconcile.Spec{Size: n, ConfigVersion: 2, MaxUnavailable: e19MaxUnavail})
			})
			// The double kill lands at the first quiescent instant at or
			// after its scheduled time: both victims die in ONE event
			// frame, zero virtual time apart — the concurrent-failure
			// case E15/E17 only approached sequentially.
			var tryDouble func()
			tryDouble = func() {
				if !e19Quiesced(cl) {
					eng.After(2*sim.Millisecond, tryDouble)
					return
				}
				a, b := e19SafePair(cl, e19Keys())
				if a == 0 || b == 0 {
					return
				}
				fl.Kill(a)
				fl.Kill(b)
				row.kills += 2
			}
			eng.At(t0.Add(e19DoubleAt), tryDouble)
		},
		settle: func(cl *fabric.Cluster, t0 sim.Time) {
			if !campaign {
				return
			}
			convergeBy := t0.Add(e19ConvergeBudget)
			for !fl.Converged() && cl.Eng.Now() < convergeBy {
				cl.Eng.RunFor(sim.Millisecond)
			}
			cl.Eng.RunFor(2 * sim.Millisecond) // let the probe close the final windows
		},
	})

	row.Stats, row.rep = st, rep
	for i, b := range row.buckets[1:] {
		if b > row.peak {
			row.peak = b
		}
		if i == 0 || b < row.floor {
			row.floor = b
		}
	}
	if !campaign {
		return row
	}
	row.fleet, row.converged, row.maxEpoch = fl.Report(), fl.Converged(), cl.MaxEpoch()
	live := cl.LiveIDs()
	up := 0
	for _, id := range live {
		if cl.Machine(id).Router.ConfigVersion() >= 2 {
			up++
		}
	}
	row.upgraded = fmt.Sprintf("%d/%d", up, len(live))
	return row
}

func e19Floor(r e19Row) string {
	if r.peak == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d%%", r.floor*100/r.peak)
}

// E19SelfHealing runs the self-healing fleet tables.
func E19SelfHealing() *Result {
	res := &Result{ID: "E19", Title: "Self-healing fleet: reconciliation, live membership change, concurrent failures"}

	sizes := []int{8, 16}
	flavors := []fabric.Flavor{fabric.FlavorDecentralized, fabric.FlavorHead}

	disrupt := metrics.NewTable(
		fmt.Sprintf("campaign per cell: kill at +%v, rolling upgrade v1→v2 from +%v, same-frame double kill from +%v (%d spares, maxUnavailable=%d, %d writers; baseline rows run the same window undisturbed)",
			e19KillAt, e19UpgradeAt, e19DoubleAt, e19Spares, e19MaxUnavail, e19Workers),
		"machines", "flavor", "campaign", "kills", "puts", "acked", "timeouts",
		"lost acked (R1)", "dup applies (R2)", "unroutable (R3)",
		"goodput floor", "p50 put", "p99 put")
	conv := metrics.NewTable(
		fmt.Sprintf("convergence and reconcile activity (C1 bound %v; C3 audited every %v)",
			reconcile.DefaultBound, reconcile.DefaultProbeEvery),
		"machines", "flavor", "windows", "max window", "C1 viol", "C3 viol",
		"repairs", "swaps", "shrinks", "aborts", "commits", "upgraded", "max epoch")

	for _, n := range sizes {
		for _, flavor := range flavors {
			base := e19Cell(n, flavor, false)
			disrupt.AddRow(n, flavor.String(), "baseline", 0, base.Puts, base.rep.Acks,
				base.Timeouts, base.rep.G1Lost, base.rep.G2Dups, len(base.rep.Unroutable),
				e19Floor(base), base.lat.P50(), base.lat.P99())

			row := e19Cell(n, flavor, true)
			disrupt.AddRow(n, flavor.String(), "chaos+upgrade", row.kills, row.Puts, row.rep.Acks,
				row.Timeouts, row.rep.G1Lost, row.rep.G2Dups, len(row.rep.Unroutable),
				e19Floor(row), row.lat.P50(), row.lat.P99())

			st := row.fleet.Stats
			conv.AddRow(n, flavor.String(), len(row.fleet.Windows), row.fleet.MaxWindow(),
				row.fleet.C1Violations, row.fleet.C3Violations,
				st.Repairs, st.Swaps, st.Shrinks, st.Aborts, st.Commits,
				row.upgraded, row.maxEpoch)
		}
	}
	res.Tables = append(res.Tables, disrupt, conv)

	res.Notes = append(res.Notes,
		"the reconciler is pure policy over the fabric's mechanisms: level-triggered agents re-derive (spec, observed conditions) → action every tick, so lost frames and dead coordinators cost a retry, never correctness",
		"every ring change is one staged two-phase transition (prepare/transfer/commit) riding the consistent-hash ring's minimal-movement property; writes replicate to the UNION of current and staged owners, which is why no campaign loses an acked write (C2 via R1/R2)",
		"the double kill fires in ONE event frame — zero virtual time between deaths — at a quiescent instant, with victims chosen to not be a replica pair: the honest boundary of a replication-factor-2 fabric (killing both copies of a key legitimately loses it, same rule as E17)",
		"C3 (disruption budget): voluntary actions — cordons and shrink-for-upgrade — may never push serving capacity below size − maxUnavailable − involuntary losses; the audit samples every probe tick, including mid-transition instants",
		"under the head-node flavor the head cannot rotate itself out of the ring to flash: it IS the control plane, so it finishes every campaign pinned on config v1 (the 'upgraded' column stays one short) — decentralized actors hand the reconciler role to the next machine and upgrade themselves last",
		"goodput floor is the worst 4ms ack bucket over the campaign as a fraction of the best; the dip tracks op timeouts (25ms) on writes in flight at each kill, not reconcile actions themselves — planned rotations drain cordoned members first",
	)
	return res
}
