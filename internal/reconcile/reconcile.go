// Package reconcile is the fleet's self-healing policy layer: a
// level-triggered reconciler (machine-controller style) that drives the
// fabric's OBSERVED state toward a declared Spec — replace dead ring
// members from a spare pool, keep the ring at the declared size, and
// roll config upgrades through the fleet under a maxUnavailable
// disruption budget. The fabric supplies the mechanism (staged ring
// transitions, drain orders, condition reports); this package supplies
// only the control loop, so the layering mirrors the paper's §2 split:
// devices self-manage, policy observes and nudges.
//
// The loop is level-triggered, never edge-triggered: every agent tick
// re-derives the full desired action from (spec, own view, latest
// condition reports) and re-issues it. Lost frames, killed
// coordinators, and concurrent failures therefore cost retries, not
// correctness — the same divergence is simply observed again next tick.
//
// One machine acts at a time. Under FlavorHead the head node is the
// reconciler (and, by construction, can never rotate ITSELF out of the
// ring for an upgrade — the centralized baseline cannot self-upgrade,
// which E19 surfaces as a finding). Under FlavorDecentralized the actor
// is the lowest live in-ring machine per its own view; when it dies or
// rotates itself out, the role falls to the next machine with no
// handoff protocol, because the loop re-derives everything from
// observed state.
//
// Invariants, audited by the Fleet's engine-driven probe (E19):
//
//	C1 — convergence: every divergence (a kill, a spec change) closes
//	     within the configured bound: live machines agree on one ring,
//	     its members are alive, the ring is at the declared size, and
//	     every live machine runs the declared config version.
//	C2 — no acked write lost across reconcile actions: delegated to the
//	     chaos.Ledger (R1/R2/R3); reconciliation rides the same staged-
//	     ring/union-replication mechanism the ledger already audits.
//	C3 — disruption budget: voluntary disruption (cordons, shrink-for-
//	     upgrade) never pushes serving capacity below
//	     Size − MaxUnavailable − involuntary, sampled at probe ticks.
package reconcile

import (
	"nocpu/internal/fabric"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// Control-loop tuning defaults.
const (
	// DefaultReconcileEvery is the agent tick: condition reports flow and
	// the actor re-derives its next action at this cadence.
	DefaultReconcileEvery = 1 * sim.Millisecond
	// DefaultProbeEvery is the fleet ledger's sampling cadence for C1
	// convergence windows and the C3 budget audit.
	DefaultProbeEvery = 500 * sim.Microsecond
	// DefaultBound is the C1 convergence bound: generous enough for a
	// full rolling upgrade at N=16 (each rotation pays a transfer, a
	// commit, and an upgrade flash), tight enough to catch a wedged
	// transition.
	DefaultBound = 400 * sim.Millisecond

	// maxWindows bounds the divergence-window log (later windows are
	// counted, not stored).
	maxWindows = 512
)

// Spec is the declared fleet state the reconciler converges on.
type Spec struct {
	// Ver orders specs; SetSpec bumps it automatically when the caller
	// leaves it zero. Agents adopt only newer versions, so stale gossip
	// can never roll the fleet backward.
	Ver uint64
	// Size is the declared ring membership count.
	Size int
	// ConfigVersion is the config/firmware version every machine must
	// run. Raising it triggers a rolling upgrade.
	ConfigVersion uint32
	// MaxUnavailable caps VOLUNTARY disruption: the reconciler may
	// cordon or shrink-for-upgrade only while the count of disrupted
	// ring slots stays within this budget. 0 forbids rolling upgrades
	// entirely (there is no budget to drain into).
	MaxUnavailable int
}

// Config assembles a Fleet.
type Config struct {
	// Spec is the initial declared state (Ver defaults to 1).
	Spec Spec
	// ReconcileEvery / ProbeEvery / Bound default to the constants above.
	ReconcileEvery sim.Duration
	ProbeEvery     sim.Duration
	Bound          sim.Duration
}

// Stats aggregates every agent's reconcile activity.
type Stats struct {
	Ticks         uint64 // agent ticks executed
	Gossips       uint64 // SpecGossip frames sent by actors
	Transitions   uint64 // ring transitions proposed (prepare broadcast)
	Commits       uint64 // transitions committed
	Aborts        uint64 // transitions aborted (deaths, orphan cleanup)
	Repairs       uint64 // transitions proposed to replace dead / fix size
	Swaps         uint64 // upgrade rotations done as stale-out/upgraded-in
	Shrinks       uint64 // upgrade rotations done as budgeted shrink
	UpgradeOrders uint64 // Drain(upgrade) orders issued
	Cordons       uint64 // Drain(cordon) orders issued
}

// Report is the fleet ledger's verdict.
type Report struct {
	// Windows holds closed divergence windows (kill/spec-change →
	// converged), in close order; WindowsLost counts overflow beyond
	// maxWindows.
	Windows     []sim.Duration
	WindowsLost int
	// OpenWindows counts divergences still unconverged at Report time.
	OpenWindows int
	// C1Violations counts windows (closed or still open) exceeding the
	// bound; C3Violations counts probe samples where serving capacity
	// fell below the budget floor, with WorstShortfall the deepest dip.
	C1Violations   int
	C3Violations   int
	WorstShortfall int
	Probes         uint64
	SpecVer        uint64
	Stats          Stats
}

// Clean reports whether the run upheld C1 and C3 and left no
// divergence open. C2 is chaos.Ledger's verdict, judged by the
// workload harness alongside this one.
func (r Report) Clean() bool {
	return r.C1Violations == 0 && r.C3Violations == 0 && r.OpenWindows == 0
}

// MaxWindow returns the longest divergence window seen (0 when none).
func (r Report) MaxWindow() sim.Duration {
	var max sim.Duration
	for _, w := range r.Windows {
		if w > max {
			max = w
		}
	}
	return max
}

// Fleet attaches one reconcile agent per machine to a booted cluster
// and audits convergence from the outside. The Fleet itself is a test
// oracle plus the operator's spec store; all reconciliation decisions
// happen inside the per-machine agents.
type Fleet struct {
	cl  *fabric.Cluster
	cfg Config

	agents []*Agent
	spec   Spec

	killed []msg.DeviceID

	open        []sim.Time // divergence windows awaiting convergence
	windows     []sim.Duration
	windowsLost int

	probes         uint64
	c3Violations   int
	worstShortfall int
}

// Attach wires a reconcile agent onto every machine of a BOOTED
// cluster, arms the agent ticks and the audit probe, and hands every
// agent the initial spec (modeling the operator's durable spec store,
// which every machine can read at boot; later changes still propagate
// via SpecGossip so late observers converge).
func Attach(cl *fabric.Cluster, cfg Config) *Fleet {
	if cfg.ReconcileEvery == 0 {
		cfg.ReconcileEvery = DefaultReconcileEvery
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = DefaultProbeEvery
	}
	if cfg.Bound == 0 {
		cfg.Bound = DefaultBound
	}
	if cfg.Spec.Ver == 0 {
		cfg.Spec.Ver = 1
	}
	if cfg.Spec.Size == 0 {
		cfg.Spec.Size = cl.Cfg.N
	}
	if cfg.Spec.ConfigVersion == 0 {
		cfg.Spec.ConfigVersion = 1
	}
	f := &Fleet{cl: cl, cfg: cfg, spec: cfg.Spec}
	for _, m := range cl.Machines {
		a := newAgent(f, m.Router)
		a.spec = f.spec
		m.Router.AttachControl(a)
		f.agents = append(f.agents, a)
		a.arm()
	}
	f.armProbe()
	return f
}

// Spec returns the current declared state.
func (f *Fleet) Spec() Spec { return f.spec }

// SetSpec declares a new desired state and opens a divergence window.
// A zero Ver is auto-bumped past the current spec. The spec reaches
// every live agent immediately (the operator writes the spec store);
// actors keep gossiping it so any machine that was unreachable at
// write time still converges.
func (f *Fleet) SetSpec(s Spec) {
	if s.Ver <= f.spec.Ver {
		s.Ver = f.spec.Ver + 1
	}
	f.spec = s
	for _, a := range f.agents {
		if !a.r.Halted() {
			a.adoptSpec(s)
		}
	}
	f.openWindow()
}

// Kill crash-stops a machine through the cluster and opens a
// divergence window for the fleet to close.
func (f *Fleet) Kill(id msg.DeviceID) {
	f.cl.Kill(id)
	f.killed = append(f.killed, id)
	f.openWindow()
}

func (f *Fleet) openWindow() {
	if len(f.open) < maxWindows {
		f.open = append(f.open, f.cl.Eng.Now())
	} else {
		f.windowsLost++
	}
}

// Converged reports whether the observed fleet matches the declared
// spec: all live machines agree on one committed ring, its members are
// alive and uncordoned, the ring is at the declared size (capped by
// how many machines remain), no transition is staged, no machine is
// mid-flash, and every live machine runs the declared config version.
// Under FlavorHead the head's own config version is exempt: the
// centralized reconciler cannot rotate itself out of the ring to
// flash, so it pins its version forever — E19's head-flavor finding.
func (f *Fleet) Converged() bool {
	live := f.cl.LiveIDs()
	if len(live) == 0 {
		return false
	}
	first := f.cl.Machine(live[0]).Router
	ver, members := first.RingVer(), first.RingMembers()
	for _, id := range live {
		r := f.cl.Machine(id).Router
		if r.PendingVer() != 0 || r.Upgrading() {
			return false
		}
		if r.RingVer() != ver || !sameMembers(r.RingMembers(), members) {
			return false
		}
		if f.cl.Cfg.Flavor == fabric.FlavorHead && id == r.Head() {
			continue
		}
		if r.ConfigVersion() != f.spec.ConfigVersion {
			return false
		}
	}
	for _, id := range members {
		if !f.cl.Alive(id) || f.cl.Machine(id).Router.Cordoned() {
			return false
		}
	}
	want := f.spec.Size
	if want > len(live) {
		want = len(live)
	}
	return len(members) == want
}

// armProbe runs the audit loop: close divergence windows on
// convergence, and sample the C3 budget. The probe is an outside
// observer — it never feeds back into the agents.
func (f *Fleet) armProbe() { f.cl.Eng.Schedule(f.cfg.ProbeEvery, (*probe)(f)) }

// probe is the fleet as the event of one audit sample.
type probe Fleet

func (e *probe) Fire() {
	f := (*Fleet)(e)
	f.probes++
	f.sampleBudget()
	if len(f.open) > 0 && f.Converged() {
		now := f.cl.Eng.Now()
		for _, at := range f.open {
			if len(f.windows) < maxWindows {
				f.windows = append(f.windows, now.Sub(at))
			} else {
				f.windowsLost++
			}
		}
		f.open = f.open[:0]
	}
	f.armProbe()
}

// sampleBudget audits C3: serving capacity must never fall below
// Size − MaxUnavailable − involuntary − residual. The involuntary
// allowance is the ring's shortfall against what the surviving fleet
// could provide, capped by the number of kills (so a voluntary
// shrink-for-upgrade cannot masquerade as failure damage); residual is
// capacity the fleet no longer possesses at all (spare pool
// exhausted). Everything past those allowances must fit inside the
// declared MaxUnavailable budget — that is C3.
func (f *Fleet) sampleBudget() {
	live := f.cl.LiveIDs()
	if len(live) == 0 {
		return
	}
	// Judge the capacity gap against the LEAST-converged live view: a
	// commit propagates machine by machine, and until the last machine
	// adopts the new ring the fleet genuinely serves at the old ring's
	// capacity. Sampling only the coordinator's (already-committed)
	// view would misread that propagation skew as a budget overrun.
	ringAlive := -1
	for _, id := range live {
		alive := 0
		for _, m := range f.cl.Machine(id).Router.RingMembers() {
			if f.cl.Alive(m) {
				alive++
			}
		}
		if ringAlive < 0 || alive < ringAlive {
			ringAlive = alive
		}
	}
	want := f.spec.Size
	if want > len(live) {
		want = len(live)
	}
	involuntary := want - ringAlive
	if involuntary > len(f.killed) {
		involuntary = len(f.killed)
	}
	if involuntary < 0 {
		involuntary = 0
	}
	residual := f.spec.Size - len(live)
	if residual < 0 {
		residual = 0
	}
	floor := f.spec.Size - f.spec.MaxUnavailable - involuntary - residual
	if avail := len(f.cl.ServingIDs()); avail < floor {
		f.c3Violations++
		if floor-avail > f.worstShortfall {
			f.worstShortfall = floor - avail
		}
	}
}

// Report tallies the run.
func (f *Fleet) Report() Report {
	rep := Report{
		Windows:        append([]sim.Duration(nil), f.windows...),
		WindowsLost:    f.windowsLost,
		OpenWindows:    len(f.open),
		C3Violations:   f.c3Violations,
		WorstShortfall: f.worstShortfall,
		Probes:         f.probes,
		SpecVer:        f.spec.Ver,
	}
	for _, w := range rep.Windows {
		if w > f.cfg.Bound {
			rep.C1Violations++
		}
	}
	now := f.cl.Eng.Now()
	for _, at := range f.open {
		if now.Sub(at) > f.cfg.Bound {
			rep.C1Violations++
		}
	}
	for _, a := range f.agents {
		s := a.stats
		rep.Stats.Ticks += s.Ticks
		rep.Stats.Gossips += s.Gossips
		rep.Stats.Transitions += s.Transitions
		rep.Stats.Commits += s.Commits
		rep.Stats.Aborts += s.Aborts
		rep.Stats.Repairs += s.Repairs
		rep.Stats.Swaps += s.Swaps
		rep.Stats.Shrinks += s.Shrinks
		rep.Stats.UpgradeOrders += s.UpgradeOrders
		rep.Stats.Cordons += s.Cordons
	}
	return rep
}

func sameMembers(a, b []msg.DeviceID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func memberOf(ms []msg.DeviceID, id msg.DeviceID) bool {
	for _, m := range ms {
		if m == id {
			return true
		}
	}
	return false
}
