package reconcile

import (
	"sort"

	"nocpu/internal/fabric"
	"nocpu/internal/msg"
)

// condState is the actor's last word from one machine.
type condState struct {
	ok  bool
	rep msg.CondReport
}

// Agent is one machine's reconcile loop. Every machine runs one; most
// ticks it only reports its conditions to the acting machine. The
// actor — the head under FlavorHead, the lowest live in-ring machine
// per its own view otherwise — re-derives the next action from
// observed state each tick and re-issues it (level-triggered: lost
// frames and dead coordinators cost a tick, not the fleet).
//
// The actor applies one rule per tick, in priority order:
//
//  1. abort orphaned transitions a dead actor left staged;
//  2. drive its own staged transition (abort on any death, re-send the
//     prepare until every live machine reports transfer-done, commit);
//  3. repair membership — replace dead ring members and fill the ring
//     to the declared size from Ready spares (upgraded spares first;
//     stale ones only when deaths opened the hole);
//  4. upgrade — flash out-of-ring machines to the declared config
//     version (free: they serve nothing), uncordon freshly-upgraded
//     ring members, and rotate ONE stale ring member out within the
//     MaxUnavailable budget: swap in an upgraded spare when one is
//     Ready, else shrink the ring by one and let the flashed victim
//     rejoin through rule 3.
//
// Exactly one ring transition is in flight at a time, so the ring's
// minimal-movement property bounds every step's data motion.
type Agent struct {
	fl *Fleet
	r  *fabric.Router

	spec  Spec
	conds []condState // indexed by machine ID − 1

	nextVer uint32

	// Staged-transition coordination (actor only): waitIDs are the
	// machines whose transfer-done the prepare awaits.
	pendingVer     uint32
	pendingMembers []msg.DeviceID
	waitIDs        []msg.DeviceID
	reported       []bool

	stats Stats
}

func newAgent(fl *Fleet, r *fabric.Router) *Agent {
	return &Agent{fl: fl, r: r, conds: make([]condState, len(fl.cl.Machines))}
}

// Stats returns a copy of this agent's counters.
func (a *Agent) Stats() Stats { return a.stats }

func (a *Agent) adoptSpec(s Spec) {
	if s.Ver > a.spec.Ver {
		a.spec = s
	}
}

// arm schedules the next tick. A halted machine's agent simply never
// rearms — crash-stop silences policy and mechanism together.
func (a *Agent) arm() {
	a.fl.cl.Eng.Schedule(a.fl.cfg.ReconcileEvery, (*tick)(a))
}

// tick is the agent as the event of its reconcile tick (a pointer
// conversion: arming it allocates nothing).
type tick Agent

func (e *tick) Fire() {
	a := (*Agent)(e)
	if a.r.Halted() {
		return
	}
	a.stats.Ticks++
	if actor := a.actorID(); actor != a.r.ID() {
		a.clearPending() // a role we no longer hold; orphan cleanup is the new actor's
		a.report(actor)
	} else {
		a.act()
	}
	a.arm()
}

// report sends this machine's conditions to the actor, folding in the
// level-triggered transfer-done signal so a staged transition survives
// a lost push frame.
func (a *Agent) report(actor msg.DeviceID) {
	rep := a.r.Conditions()
	if a.r.TransferDone() {
		rep.TransferVer = a.r.PendingVer()
	}
	a.r.SendControl(actor, rep)
}

// actorID picks the acting machine under this agent's own view: the
// head when one is configured, else the lowest live in-ring machine.
// No handoff protocol exists or is needed — when the actor dies, the
// next tick of the next machine in line re-derives everything from
// observed state.
func (a *Agent) actorID() msg.DeviceID {
	if h := a.r.Head(); h != 0 {
		return h
	}
	dead := a.deadSet()
	for _, id := range a.r.RingMembers() {
		if !dead[id] {
			return id
		}
	}
	return a.r.ID()
}

func (a *Agent) deadSet() map[msg.DeviceID]bool {
	ids := a.r.DeadIDs()
	out := make(map[msg.DeviceID]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// act is one actor tick. With epoch leases enabled, the actor role is
// fenced exactly like a primary: a machine that believes it is the
// lowest live in-ring member but cannot hold a quorum-countersigned
// lease (it is on the wrong side of a partition) must not drive
// membership change — otherwise an asymmetric cut elects two actors
// and they fight over the ring. Leases off, LeaseValid is always true.
func (a *Agent) act() {
	if !a.r.LeaseValid() {
		return
	}
	dead := a.deadSet()
	a.gossipSpec(dead)
	if a.pendingVer != 0 {
		a.drivePending(dead)
		return
	}
	if a.abortOrphans(dead) {
		return
	}
	if a.repair(dead) {
		return
	}
	a.upgradeStep(dead)
}

// gossipSpec pushes the declared spec to every machine the view holds
// live. Versioned and idempotent, so re-gossip every tick is the
// simple way to cover machines that missed earlier waves.
func (a *Agent) gossipSpec(dead map[msg.DeviceID]bool) {
	g := &msg.SpecGossip{
		SpecVer:        a.spec.Ver,
		Size:           uint16(a.spec.Size),
		ConfigVersion:  a.spec.ConfigVersion,
		MaxUnavailable: uint8(a.spec.MaxUnavailable),
	}
	for _, id := range a.fl.cl.MachineIDs() {
		if id == a.r.ID() || dead[id] {
			continue
		}
		a.stats.Gossips++
		a.r.SendControl(id, g)
	}
}

// abortOrphans clears transitions a dead actor left staged: any live
// machine reporting a PendingVer above the committed ring version that
// this actor does not own gets that version aborted fleet-wide. The
// RingVer guard keeps stale reports (a PendingVer our own commit
// already resolved) from triggering spurious aborts.
func (a *Agent) abortOrphans(dead map[msg.DeviceID]bool) bool {
	var aborted []uint32
	for i := range a.conds {
		id := msg.DeviceID(i + 1)
		c := a.conds[i]
		if !c.ok || dead[id] || c.rep.PendingVer <= a.r.RingVer() {
			continue
		}
		ver := c.rep.PendingVer
		seen := false
		for _, v := range aborted {
			if v == ver {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		aborted = append(aborted, ver)
		if ver >= a.nextVer {
			a.nextVer = ver + 1
		}
		a.stats.Aborts++
		a.r.ProposeRing(ver, msg.RingAbort, nil)
	}
	return len(aborted) > 0
}

// drivePending advances the actor's staged transition. Deaths abort
// it (the level-triggered loop re-proposes once failover settles —
// union replication made every acked write durable either way);
// otherwise the prepare is re-broadcast until every live machine
// reported transfer-done, then the commit goes out.
func (a *Agent) drivePending(dead map[msg.DeviceID]bool) {
	if a.r.TransferDone() && a.r.PendingVer() == a.pendingVer {
		a.markReported(a.r.ID())
	}
	for _, id := range a.waitIDs {
		if dead[id] {
			a.stats.Aborts++
			a.r.ProposeRing(a.pendingVer, msg.RingAbort, nil)
			a.clearPending()
			return
		}
	}
	for i := range a.waitIDs {
		if !a.reported[i] {
			// Prepares are idempotent at machines that already staged this
			// version; a machine that missed the first wave stages now.
			a.r.ProposeRing(a.pendingVer, msg.RingPrepare, a.pendingMembers)
			return
		}
	}
	a.stats.Commits++
	a.r.ProposeRing(a.pendingVer, msg.RingCommit, a.pendingMembers)
	a.clearPending()
}

func (a *Agent) clearPending() {
	a.pendingVer = 0
	a.pendingMembers = nil
	a.waitIDs = nil
	a.reported = nil
}

// propose stages one ring transition: pick a version above everything
// observed, record who must report transfer-done (every machine the
// view holds live — leavers drain, joiners wipe, bystanders ack
// trivially), and broadcast the prepare. Local agent state is set
// BEFORE ProposeRing because the local prepare can complete (and
// report) synchronously inside it.
func (a *Agent) propose(members []msg.DeviceID, dead map[msg.DeviceID]bool) {
	ver := a.r.RingVer() + 1
	for i := range a.conds {
		if c := a.conds[i]; c.ok {
			if c.rep.RingVer >= ver {
				ver = c.rep.RingVer + 1
			}
			if c.rep.PendingVer >= ver {
				ver = c.rep.PendingVer + 1
			}
		}
	}
	if a.nextVer > ver {
		ver = a.nextVer
	}
	a.nextVer = ver + 1

	var wait []msg.DeviceID
	for _, id := range a.fl.cl.MachineIDs() {
		if !dead[id] {
			wait = append(wait, id)
		}
	}
	a.pendingVer = ver
	a.pendingMembers = append([]msg.DeviceID(nil), members...)
	a.waitIDs = wait
	a.reported = make([]bool, len(wait))
	a.stats.Transitions++
	a.r.ProposeRing(ver, msg.RingPrepare, members)
}

// repair drives the ring back to the declared membership: dead members
// out, Ready spares in, size honored. Stale spares fill only holes
// that deaths opened — a voluntary shrink (rule 4's upgrade path) must
// wait for an UPGRADED spare, or the rotation would churn forever.
func (a *Agent) repair(dead map[msg.DeviceID]bool) bool {
	cur := a.r.RingMembers()
	liveCur := make([]msg.DeviceID, 0, len(cur))
	for _, id := range cur {
		if !dead[id] {
			liveCur = append(liveCur, id)
		}
	}
	deadInRing := len(cur) - len(liveCur)
	deficit := a.spec.Size - len(liveCur)
	if deadInRing == 0 && deficit == 0 {
		return false
	}
	if deficit < 0 {
		// Oversize (the spec shrank): drop the highest members; they
		// keep serving until the commit and then become spares.
		target := liveCur[:a.spec.Size]
		a.stats.Repairs++
		a.propose(target, dead)
		return true
	}
	var spares []msg.DeviceID
	for _, id := range a.fl.cl.MachineIDs() {
		if !dead[id] && !memberOf(cur, id) {
			spares = append(spares, id)
		}
	}
	add := a.pickSpares(spares, deficit, deadInRing > 0)
	if deficit > 0 && len(add) == 0 && len(spares) > 0 {
		// Spares exist but none is eligible yet (booting or mid-flash):
		// wait a tick instead of committing an under-provisioned ring.
		return false
	}
	target := append(append([]msg.DeviceID(nil), liveCur...), add...)
	sortIDs(target)
	if len(target) == 0 || sameMembers(target, cur) {
		return false
	}
	a.stats.Repairs++
	a.propose(target, dead)
	return true
}

// pickSpares selects up to n join candidates, lowest ID first:
// upgraded Ready spares always qualify; stale Ready spares only when
// staleOK (a death opened the hole — availability beats version
// purity, and the rotation rule will cycle them later).
func (a *Agent) pickSpares(spares []msg.DeviceID, n int, staleOK bool) []msg.DeviceID {
	var out []msg.DeviceID
	for pass := 0; pass < 2 && len(out) < n; pass++ {
		if pass == 1 && !staleOK {
			break
		}
		for _, id := range spares {
			if len(out) >= n {
				break
			}
			if memberOf(out, id) {
				continue
			}
			c, ok := a.condOf(id)
			if !ok || !c.Ready {
				continue
			}
			upgraded := c.ConfigVersion >= a.spec.ConfigVersion
			if (pass == 0) == upgraded {
				out = append(out, id)
			}
		}
	}
	return out
}

// upgradeStep runs rule 4 on a healthy ring: flash spares, uncordon
// finished members, and rotate one stale member within the budget.
func (a *Agent) upgradeStep(dead map[msg.DeviceID]bool) {
	cur := a.r.RingMembers()
	for _, id := range cur {
		if dead[id] {
			return // repair is waiting on a spare; don't rotate on top
		}
	}

	// Uncordon ring members that are done upgrading: a swapped-back
	// victim rejoins cordoned and is released here.
	for _, id := range cur {
		c, ok := a.condOf(id)
		if ok && c.Cordoned && c.ConfigVersion >= a.spec.ConfigVersion {
			a.r.SendControl(id, &msg.Drain{Mode: msg.DrainUncordon})
		}
	}

	// Flash stale out-of-ring machines — free, they serve no shard.
	anyFlashing := false
	for _, id := range a.fl.cl.MachineIDs() {
		if dead[id] || memberOf(cur, id) {
			continue
		}
		c, ok := a.condOf(id)
		if !ok {
			continue
		}
		if c.Upgrading {
			anyFlashing = true
		}
		if c.ConfigVersion < a.spec.ConfigVersion && !c.Upgrading {
			a.stats.UpgradeOrders++
			anyFlashing = true
			a.r.SendControl(id, &msg.Drain{
				Mode: msg.DrainUpgrade, ConfigVersion: a.spec.ConfigVersion,
			})
		}
	}

	// Rotate one stale ring member. The head can never rotate itself
	// out (it IS the control plane), so under FlavorHead it stays on
	// its boot config forever — the asymmetry E19 reports.
	var stale []msg.DeviceID
	for _, id := range cur {
		if a.r.Head() != 0 && id == a.r.Head() {
			continue
		}
		c, ok := a.condOf(id)
		if ok && c.ConfigVersion < a.spec.ConfigVersion {
			stale = append(stale, id)
		}
	}
	if len(stale) == 0 {
		return
	}
	// Prefer a victim whose cordon is already paid for; else go
	// highest-ID first so the decentralized actor rotates itself last.
	victim := stale[len(stale)-1]
	for _, id := range stale {
		if c, ok := a.condOf(id); ok && c.Cordoned {
			victim = id
			break
		}
	}
	// Voluntary disruption already on the books (cordoned members other
	// than the victim, plus any shrink deficit) must leave budget room.
	// The deficit is judged against what the surviving fleet can still
	// provide: capacity lost with dead machines (spares exhausted) is
	// involuntary and must not eat the rotation budget forever.
	aliveTotal := 0
	for _, id := range a.fl.cl.MachineIDs() {
		if !dead[id] {
			aliveTotal++
		}
	}
	achievable := a.spec.Size
	if aliveTotal < achievable {
		achievable = aliveTotal
	}
	voluntary := achievable - len(cur)
	if voluntary < 0 {
		voluntary = 0
	}
	for _, id := range cur {
		if id == victim {
			continue
		}
		if c, ok := a.condOf(id); ok && c.Cordoned {
			voluntary++
		}
	}
	if voluntary >= a.spec.MaxUnavailable {
		return
	}
	var upSpare msg.DeviceID
	for _, id := range a.fl.cl.MachineIDs() {
		if dead[id] || memberOf(cur, id) {
			continue
		}
		c, ok := a.condOf(id)
		if ok && c.Ready && c.ConfigVersion >= a.spec.ConfigVersion {
			upSpare = id
			break
		}
	}
	target := make([]msg.DeviceID, 0, len(cur))
	for _, id := range cur {
		if id != victim {
			target = append(target, id)
		}
	}
	switch {
	case upSpare != 0:
		target = append(target, upSpare)
		sortIDs(target)
		a.stats.Swaps++
	case anyFlashing:
		return // an upgraded spare is seconds away; swapping beats shrinking
	case len(target) == 0:
		return
	default:
		a.stats.Shrinks++
	}
	if c, ok := a.condOf(victim); !ok || !c.Cordoned {
		a.stats.Cordons++
		a.r.SendControl(victim, &msg.Drain{Mode: msg.DrainCordon})
	}
	a.propose(target, dead)
}

// condOf returns the latest conditions known for a machine. The
// actor's own state is read straight off its router — it never mails
// itself a report.
func (a *Agent) condOf(id msg.DeviceID) (msg.CondReport, bool) {
	if id == a.r.ID() {
		return msg.CondReport{
			Ready:         !a.r.Halted() && !a.r.Upgrading(),
			Cordoned:      a.r.Cordoned(),
			Upgrading:     a.r.Upgrading(),
			ConfigVersion: a.r.ConfigVersion(),
			RingVer:       a.r.RingVer(),
			PendingVer:    a.r.PendingVer(),
		}, true
	}
	i := int(id) - 1
	if i < 0 || i >= len(a.conds) || !a.conds[i].ok {
		return msg.CondReport{}, false
	}
	return a.conds[i].rep, true
}

func (a *Agent) markReported(id msg.DeviceID) {
	for i, w := range a.waitIDs {
		if w == id {
			a.reported[i] = true
			return
		}
	}
}

// OnControl implements fabric.ControlAgent: spec gossip updates this
// machine's spec, condition reports feed the actor's world view and
// the transfer-done tally.
func (a *Agent) OnControl(src msg.DeviceID, m msg.Message) {
	if a.r.Halted() {
		return
	}
	switch rep := m.(type) {
	case *msg.SpecGossip:
		a.adoptSpec(Spec{
			Ver:            rep.SpecVer,
			Size:           int(rep.Size),
			ConfigVersion:  rep.ConfigVersion,
			MaxUnavailable: int(rep.MaxUnavailable),
		})
	case *msg.CondReport:
		i := int(src) - 1
		if i >= 0 && i < len(a.conds) && (!a.conds[i].ok || rep.Seq > a.conds[i].rep.Seq) {
			a.conds[i] = condState{ok: true, rep: *rep}
		}
		if a.pendingVer != 0 && rep.TransferVer == a.pendingVer {
			a.markReported(src)
		}
	}
}

func sortIDs(ids []msg.DeviceID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
