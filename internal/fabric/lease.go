package fabric

import (
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// --- epoch leases (Config.Leases) ---
//
// The split-brain defense. A machine serves as primary (or acts as the
// reconcile actor) only while holding a lease countersigned by a quorum
// — a majority of the full ring membership, counting itself — within
// the last DefaultLeaseDuration of virtual time. Two disjoint
// majorities cannot exist, so two machines cannot hold live leases
// under contradictory membership views: the side of a partition that
// cannot assemble a quorum loses its lease within DefaultLeaseDuration
// and refuses every client op with StatusFenced. Renewal runs every
// DefaultLeaseRenewEvery; since grantors stop countersigning the moment
// their view declares the holder dead (and dead sets never shrink), a
// deposed primary's authority dies no later than DefaultLeaseDuration
// after its last quorum.

// lease is one machine's epoch lease. A router with leases off holds a
// nil *lease: it is always valid, fences nothing and records nothing.
//
// The machine serves as primary only while until is in the future,
// i.e. while a quorum of the ring membership countersigned its most
// recent renewal round (seq, whose signers are round). lastHeard feeds
// the inbound-silence failure detector (the renewal chatter gives every
// pair of ring members periodic traffic, which is what makes silence
// meaningful); suspects holds directional transport suspicion (I could
// not reach them — says nothing about whether they can reach me); views
// holds the takeover-fence history: each entry is a membership view
// this machine replaced, so a freshly promoted primary refuses any key
// whose recent-past view named a different primary until every lease
// that primary could possibly hold has lapsed. A history (rather than a
// per-key fence map) covers keys the promoted machine holds no replica
// of — mass view changes promote machines for key ranges they never
// stored, and those keys must be fenced too.
type lease struct {
	v *view

	seq       uint64
	round     map[msg.DeviceID]bool
	until     sim.Time
	lastHeard map[msg.DeviceID]sim.Time
	suspects  map[msg.DeviceID]bool
	views     []viewSnap
	renew     msg.LeaseRenew
	grant     msg.LeaseGrant
	rev       msg.LeaseRevoke
}

// viewSnap is one entry of the takeover-fence history: the membership
// view (ring + dead set) that was in effect strictly before `until`.
type viewSnap struct {
	until sim.Time
	ring  *Ring
	dead  map[msg.DeviceID]bool
}

// quorum is a majority of the full ring membership. The membership (not
// the live view) is the electorate: a machine that declares everyone
// else dead must still find itself short of quorum.
func (l *lease) quorum() int { return len(l.v.ring.machines)/2 + 1 }

// valid reports whether this machine holds a quorum-countersigned lease.
func (l *lease) valid() bool {
	return l == nil || (l.v.inRing() && l.v.eng.Now() < l.until)
}

// fences reports whether key sits behind a still-live takeover fence:
// the view in effect DefaultLeaseDuration+DefaultFailTimeout ago named
// a different primary, and that primary may still hold a lease granted
// under it (one gossip round for its last grantor to learn of the
// death, ≤ DefaultFailTimeout, plus the lease itself). The check
// consults the view history rather than a per-key map so that keys
// promoted WITHOUT a local replica are fenced too. Dead sets only grow,
// so a machine that was primary for a key at the window's start stays
// primary through now — checking the single view at the cutoff covers
// the whole window.
func (l *lease) fences(key string) bool {
	if l == nil {
		return false
	}
	cutoff := l.v.eng.Now().Add(-(DefaultLeaseDuration + DefaultFailTimeout))
	// Views replaced at or before the cutoff can never fence again (the
	// cutoff only advances); drop them.
	for len(l.views) > 0 && l.views[0].until <= cutoff {
		l.views = l.views[1:]
	}
	if len(l.views) == 0 {
		return false
	}
	v := l.views[0] // the view in effect at the cutoff instant
	was := v.ring.Owners(key, v.dead, DefaultReplicas)
	return len(was) > 0 && was[0] != l.v.id
}

// replaced records the takeover fence of a view change: the view it
// replaced, the current ring with the dead set prev. Any key whose
// primary differs between a recent-past view and now is refused (typed,
// StatusFenced) until every lease the deposed primary could possibly
// hold has lapsed — see fences. Rings are immutable after construction,
// so keeping the pointer is a snapshot.
func (l *lease) replaced(prev map[msg.DeviceID]bool) {
	if l != nil {
		l.views = append(l.views, viewSnap{until: l.v.eng.Now(), ring: l.v.ring, dead: prev})
	}
}

// heard records a frame from src. Any inbound frame — even a duplicate —
// is proof the sender can reach us: it feeds the silence detector and
// clears directional transport suspicion.
func (l *lease) heard(src msg.DeviceID) {
	if l != nil {
		l.lastHeard[src] = l.v.eng.Now()
		delete(l.suspects, src)
	}
}

// suspect records that a send to dst failed. That proves only that the
// forward path is broken — dst may be healthy and still hearing us
// (asymmetric cut), or merely slow. Death is declared only once the
// INBOUND direction confirms it (the silence sweep, at half the usual
// patience for suspects). Without this, a one-way cut A→B made A declare
// B dead even while B answered everyone. A peer we have NEVER heard from
// is exempt: a connection refused during someone else's boot is normal,
// not evidence.
func (l *lease) suspect(dst msg.DeviceID) {
	if _, heard := l.lastHeard[dst]; heard && !l.suspects[dst] {
		l.suspects[dst] = true
		l.v.stats.Suspicions++
	}
}

// Fire is the renewal tick.
func (l *lease) Fire() {
	if l.v.halted {
		return
	}
	l.renewRound()
	l.v.eng.Schedule(DefaultLeaseRenewEvery, l)
}

// renewRound starts one countersigning round: a fresh seq, a self-grant,
// and a LeaseRenew to every ring member this view holds alive. Stale
// grants (older seq) are ignored, so a slow round can never resurrect an
// expired lease with old signatures.
func (l *lease) renewRound() {
	v := l.v
	if !v.inRing() {
		return
	}
	if v.eng.Now() >= l.until {
		v.stats.LeaseLapses++
	}
	l.seq++
	v.stats.LeaseRenews++
	clear(l.round)
	l.round[v.id] = true
	until := v.eng.Now().Add(DefaultLeaseDuration)
	if len(l.round) >= l.quorum() {
		// Single-member ring: the self-grant is the quorum.
		l.extend(until)
		return
	}
	l.renew = msg.LeaseRenew{Seq: l.seq, Until: uint64(until)}
	for _, id := range v.ring.machines {
		if id != v.id && !v.dead[id] {
			v.send(id, &l.renew)
		}
	}
}

func (l *lease) extend(until sim.Time) {
	if until > l.until {
		l.until = until
	}
}

// onRenew countersigns a renewal round. Frames from machines this view
// holds dead never reach here (the hub answers those with revoke), so
// reaching this handler IS the grant decision.
func (l *lease) onRenew(src msg.DeviceID, m *msg.LeaseRenew) {
	l.v.stats.LeaseGrants++
	l.grant = msg.LeaseGrant{Seq: m.Seq, Until: m.Until}
	l.v.send(src, &l.grant)
}

func (l *lease) onGrant(src msg.DeviceID, m *msg.LeaseGrant) {
	if m.Seq != l.seq {
		return // a stale round's signature proves nothing about now
	}
	l.round[src] = true
	if len(l.round) >= l.quorum() {
		l.extend(sim.Time(m.Until))
	}
}

// revoke refuses the renewal m from src, a machine this view holds dead,
// with a typed LeaseRevoke carrying the dead set.
func (l *lease) revoke(src msg.DeviceID, m *msg.LeaseRenew) {
	l.v.stats.LeaseRevokes++
	l.rev = msg.LeaseRevoke{Seq: m.Seq, Dead: l.v.deadSorted}
	l.v.send(src, &l.rev)
}
