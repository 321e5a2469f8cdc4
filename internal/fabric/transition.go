package fabric

import (
	"slices"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
)

// --- planned membership change (fleet reconciliation) ---
//
// A membership change is a two-phase protocol over ring versions:
//
//	prepare(v, members) — every live machine stages ring v. Each
//	  current primary re-replicates the keys whose owner set changes
//	  (the ring's minimal-movement property keeps this to the moved
//	  arc), and client mutations replicate to the UNION of current and
//	  staged owners for the duration. Routing stays on the current
//	  ring, so reads always land where the data already is. When a
//	  machine's transfer drains it reports transfer-done to the
//	  coordinator.
//	commit(v, members) — after every live participant reported, the
//	  coordinator broadcasts commit and all routers adopt ring v
//	  atomically (per machine). The commit broadcast happens inside
//	  one event, so a coordinator crash cannot split it.
//	abort(v) — any death during the transition aborts it (the level-
//	  triggered reconciler retries once failover settles); union
//	  replication has kept every acked write durable at both owner
//	  sets, so aborting loses nothing.
//
// Phases are idempotent: versions at or below the running ring are
// ignored, so duplicated or re-driven phases are harmless.

// transition is the router's side of fleet reconciliation: the staged
// ring and its transfer, the reconciler's drain orders (cordon and
// config flash), and the condition reports the agent sends. It owns
// that state and the attached ControlAgent; the staged ring itself sits
// in the view, since replication reads it.
type transition struct {
	v    *view
	repl *replicator

	// The staged ring's version (0 when none is staged) and members, the
	// coordinator to notify on transfer-done, the staged-ring sync tasks
	// still in flight, and whether transfer-done was sent.
	ver      uint32
	members  []msg.DeviceID
	from     msg.DeviceID
	left     int
	reported bool

	// Reconciler-driven machine conditions.
	cordoned  bool
	upgradeTo uint32 // nonzero while an upgrade installs this config version
	confVer   uint32
	condSeq   uint64
	ctrl      ControlAgent
}

// apply runs one RingConfig phase from src (this machine itself when it
// coordinates).
func (t *transition) apply(src msg.DeviceID, m *msg.RingConfig) {
	v := t.v
	if v.halted || m.Ver <= v.ringVer {
		return
	}
	switch m.Phase {
	case msg.RingPrepare:
		if len(m.Members) == 0 || (v.staged != nil && m.Ver <= t.ver) {
			return
		}
		joining := !v.inRing() && slices.Contains(m.Members, v.id)
		t.ver = m.Ver
		t.members = append([]msg.DeviceID(nil), m.Members...)
		v.stage(NewRing(m.Members, DefaultVnodes))
		t.from = src
		t.reported = false
		v.stats.RingStaged++
		v.tracef("m%d ring stage v%d members=%v", v.id, m.Ver, m.Members)
		t.startXfer()
		if joining {
			// Joining: wipe whatever a previous ring stint left behind
			// before reporting transfer-done — a commit must never find
			// stale keys here. Keys this very transition is syncing over
			// are kept: a watermark at the ring version current NOW (pinned,
			// so a commit mid-sweep cannot reinterpret it) proves freshness.
			minVer, staged := v.ringVer, v.staged
			t.left++
			t.repl.purge(v.store.KeyList(), func(key string) bool {
				return t.repl.fresh(key, minVer)
			}, func() { t.synced(staged) })
		}
		t.xferCheck()
	case msg.RingCommit:
		members := m.Members
		if len(members) == 0 && v.staged != nil && m.Ver == t.ver {
			members = t.members
		}
		if len(members) == 0 {
			return
		}
		v.adopt(NewRing(members, DefaultVnodes), m.Ver)
		t.clear()
		v.stats.RingCommits++
		v.tracef("m%d ring commit v%d members=%v epoch=%d", v.id, m.Ver, members, v.epoch)
		t.repl.purge(v.store.KeyList(), t.repl.keepOwned, nil)
	case msg.RingAbort:
		if v.staged == nil || m.Ver != t.ver {
			return
		}
		v.stage(nil)
		t.clear()
		v.stats.RingAborts++
		v.tracef("m%d ring abort v%d", v.id, m.Ver)
		t.repl.purge(v.store.KeyList(), t.repl.keepOwned, nil)
	}
}

func (t *transition) clear() {
	t.ver, t.members, t.from, t.left, t.reported = 0, nil, 0, 0, false
}

// startXfer enqueues one sync task per local key whose owner set
// changes under the staged ring and this machine currently leads. The
// tasks ride the per-key gates, so they serialize behind (and carry
// the values of) any in-flight client writes.
func (t *transition) startXfer() {
	v := t.v
	t.left = 0
	for _, key := range v.store.KeyList() {
		cur := v.owners(key)
		if len(cur) == 0 || cur[0] != v.id {
			continue
		}
		if slices.Equal(cur, v.staged.Owners(key, v.dead, DefaultReplicas)) {
			continue
		}
		t.left++
		v.stats.Xfers++
		t.repl.enqueue(t.repl.newTask(kvs.Request{Op: kvs.OpGet, Key: key}, nil, v.staged))
	}
}

// synced counts one finished transfer step toward staged (a sync task,
// or a joining machine's purge); a step toward a ring no longer staged
// counts for nothing. The ring, not its version, names the transfer: an
// aborted version can be staged again (by the next actor after a
// failover) while the aborted transfer's tasks are still in flight.
func (t *transition) synced(staged *Ring) {
	if staged == t.v.staged {
		t.left--
		t.xferCheck()
	}
}

// xferCheck reports this machine's transfer complete to the
// coordinator, exactly once per staged ring, when nothing is left.
func (t *transition) xferCheck() {
	if t.v.staged == nil || t.left != 0 || t.reported {
		return
	}
	t.reported = true
	rep := t.conditions()
	rep.TransferVer = t.ver
	t.v.tracef("m%d ring xfer done v%d", t.v.id, t.ver)
	t.sendControl(t.from, rep)
}

// conditions assembles the machine's condition report; each call stamps
// a fresh sequence number.
func (t *transition) conditions() *msg.CondReport {
	t.condSeq++
	return &msg.CondReport{
		Seq:           t.condSeq,
		Ready:         !t.v.halted && t.upgradeTo == 0,
		Cordoned:      t.cordoned,
		Upgrading:     t.upgradeTo != 0,
		ConfigVersion: t.confVer,
		RingVer:       t.v.ringVer,
		PendingVer:    t.ver,
		Keys:          uint32(t.v.store.Keys()),
	}
}

// sendControl puts a management-plane message on the fabric, or hands it
// straight to this machine when addressed to it.
func (t *transition) sendControl(dst msg.DeviceID, m msg.Message) {
	if t.v.halted {
		return
	}
	if dst == t.v.id {
		// Self-delivery: drain orders are mechanism (the decentralized
		// actor must be able to cordon and rotate ITSELF out of the ring);
		// everything else is policy traffic for the agent.
		if d, ok := m.(*msg.Drain); ok {
			t.onDrain(d)
			return
		}
		if t.ctrl != nil {
			t.ctrl.OnControl(t.v.id, m)
		}
		return
	}
	t.v.send(dst, m)
}

// onDrain executes a reconciler order. Upgrade is legal only out of
// the ring (flashing never races serving); an unknown mode is ignored.
func (t *transition) onDrain(m *msg.Drain) {
	v := t.v
	switch m.Mode {
	case msg.DrainCordon:
		if !t.cordoned {
			t.cordoned = true
			v.stats.Cordons++
			v.tracef("m%d cordoned", v.id)
		}
	case msg.DrainUncordon:
		t.cordoned = false
	case msg.DrainUpgrade:
		if v.inRing() || t.upgradeTo != 0 || t.confVer >= m.ConfigVersion {
			return
		}
		t.upgradeTo = m.ConfigVersion
		v.stats.Upgrades++
		v.tracef("m%d upgrading to conf v%d", v.id, t.upgradeTo)
		v.eng.Schedule(DefaultUpgradeDelay, t)
	}
}

// Fire ends the config flash an upgrade order started. A halted
// router's flash never ends.
func (t *transition) Fire() {
	if t.v.halted {
		return
	}
	t.confVer, t.upgradeTo = t.upgradeTo, 0
	t.v.tracef("m%d upgraded to conf v%d", t.v.id, t.confVer)
}
