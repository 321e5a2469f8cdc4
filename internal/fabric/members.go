package fabric

import (
	"maps"
	"slices"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// view is one machine's membership as every router component reads it:
// who the machine is, the ring it serves and the ring staged beside it,
// the dead set, and the epoch they fold into. Only the hub writes it:
// noteDead the dead set, stage and adopt the rings, Cluster.Kill halted.
// Components count into stats and fill the scratch; the rest they read.
type view struct {
	id    msg.DeviceID
	head  msg.DeviceID   // 0 = decentralized membership
	ids   []msg.DeviceID // every machine of the rack in ID order, dead or alive
	net   *Network
	eng   *sim.Engine
	store *kvs.Store

	halted bool

	// ring is the ring this machine serves, at version ringVer; staged is
	// the ring a RingConfig prepare staged (nil when none).
	ring    *Ring
	ringVer uint32
	staged  *Ring

	// dead is the dead set, and deadSorted the same set in ID order
	// (gossip payloads, deterministic iteration), read-only: noteDead, the
	// only writer, replaces the slice rather than editing it.
	dead       map[msg.DeviceID]bool
	deadSorted []msg.DeviceID
	epoch      uint32

	// own and targets hold the last ring lookup (owners) and replication
	// set (repTargets): scratch, valid until the next lookup.
	own, targets []msg.DeviceID

	stats RouterStats
}

// send puts m on the fabric from this machine, stamped with its epoch.
// Network.Send encodes m before it returns and keeps no reference, so
// each component refills one body per kind it sends.
func (v *view) send(dst msg.DeviceID, m msg.Message) { v.net.Send(v.id, dst, v.epoch, m) }

// tracef adds a line to the cluster trace when one is recorded.
func (v *view) tracef(format string, args ...any) {
	if v.net.trace != nil {
		v.net.trace(format, args...)
	}
}

func (v *view) isHead() bool { return v.head != 0 && v.head == v.id }

func (v *view) inRing() bool { return slices.Contains(v.ring.machines, v.id) }

// owners is the ring lookup under this view. The result is view
// scratch, valid until the next lookup.
func (v *view) owners(key string) []msg.DeviceID {
	v.own = v.ring.ownersInto(v.own, key, v.dead, DefaultReplicas)
	return v.own
}

// repTargets computes a mutation's replication set: every live owner of
// the key under the current ring, plus — while a ring is staged — every
// live owner under the staged ring, minus this machine. Order is ring
// order (current first), so the set is deterministic. The result is
// view scratch, like owners'.
func (v *view) repTargets(key string) []msg.DeviceID {
	out := v.targets[:0]
	for _, id := range v.owners(key) {
		if id != v.id {
			out = append(out, id)
		}
	}
	if v.staged != nil {
		v.own = v.staged.ownersInto(v.own, key, v.dead, DefaultReplicas)
		for _, id := range v.own {
			if id != v.id && !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
	}
	v.targets = out
	return out
}

// recalcEpoch folds the ring version and the dead count into the
// fencing epoch. Both components are monotone (the dead set never
// shrinks; ring versions only grow), so the epoch is monotone per
// router — which is what the per-key (epoch, seq) watermark needs. The
// low byte holds the dead count; machines are addressed in one byte,
// so it cannot overflow into the ring version.
func (v *view) recalcEpoch() { v.epoch = v.ringVer<<8 | uint32(len(v.dead)) }

// stage sets the staged ring (nil drops it).
func (v *view) stage(r *Ring) { v.staged = r }

// adopt makes ring the served ring at version ver: the staged ring is
// dropped and the epoch follows.
func (v *view) adopt(ring *Ring, ver uint32) {
	v.ring, v.ringVer, v.staged = ring, ver, nil
	v.recalcEpoch()
}

// noteUnreachable is the network's transport-failure signal. Under
// decentralized membership the observer rules the peer dead and tells
// everyone; under a head node only the head's own observations count
// (it is the authority), and everyone else waits for its RingUpdate.
// With leases on, the failure is only a directional suspicion (see
// lease.suspect).
func (r *Router) noteUnreachable(dst msg.DeviceID) {
	if r.v.halted {
		return
	}
	if r.lease != nil {
		r.lease.suspect(dst)
		return
	}
	if r.v.head != 0 && !r.v.isHead() {
		return
	}
	r.noteDead("unreachable", dst)
}

// noteDead merges machine deaths into the view; on change it bumps the
// epoch, fails pending ops aimed at the dead, re-replicates the shards
// this machine now leads, and (as detector or head) broadcasts the view.
func (r *Router) noteDead(why string, ids ...msg.DeviceID) {
	v := &r.v
	if v.halted {
		return
	}
	fresh := make([]msg.DeviceID, 0, len(ids))
	for _, id := range ids {
		if id != v.id && !v.dead[id] {
			v.dead[id] = true
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return
	}
	// The clipped capacity makes append copy: the slice is replaced, never edited.
	v.deadSorted = append(v.deadSorted[:len(v.deadSorted):len(v.deadSorted)], fresh...)
	slices.Sort(v.deadSorted)
	// prev is the view before this change: the dead set minus the
	// machines that just joined it.
	prev := maps.Clone(v.dead)
	for _, id := range fresh {
		delete(prev, id)
	}
	v.stats.ViewChanges++
	v.recalcEpoch()
	v.tracef("m%d view epoch=%d dead=%v (%s)", v.id, v.epoch, v.deadSorted, why)

	r.lease.replaced(prev)
	r.client.failPendingTo(fresh)
	r.repl.resync(prev)

	// Gossip radius: the machine that detected the death (or the head,
	// whose word is law) broadcasts; learners stay quiet so one death
	// costs one broadcast wave, not a storm. Silence-detected deaths
	// broadcast for the same reason transport-detected ones do: the
	// detector is the only machine that knows.
	if why == "unreachable" || why == "silence" || (v.isHead() && why != "ring.update") {
		r.broadcastView()
	}
}

// broadcastView sends the dead set to every machine still in the view.
func (r *Router) broadcastView() {
	v := &r.v
	for _, id := range v.ids {
		if id != v.id && !v.dead[id] {
			v.send(id, &msg.RingUpdate{Epoch: v.epoch, Dead: v.deadSorted})
		}
	}
}

// heartbeat, sweep and silence are the router as the event of its next
// failure-detector round (a pointer conversion: arming one allocates
// nothing). A halted router's next one does nothing and re-arms nothing.
// heartbeat is the next heartbeat to the head.
type heartbeat Router

func (e *heartbeat) Fire() {
	r := (*Router)(e)
	if r.v.halted {
		return
	}
	r.hbSeq++
	r.v.send(r.v.head, &msg.Heartbeat{Seq: r.hbSeq})
	r.v.eng.Schedule(DefaultHeartbeatEvery, e)
}

// sweep is the head's staleness sweep: a machine whose heartbeat is older
// than DefaultFailTimeout is declared dead and the view broadcast.
type sweep Router

func (e *sweep) Fire() {
	r := (*Router)(e)
	v := &r.v
	if v.halted {
		return
	}
	now := v.eng.Now()
	var stale []msg.DeviceID
	for _, id := range v.ids {
		if id == v.id || v.dead[id] {
			continue
		}
		last, beaten := r.lastBeat[id]
		if beaten && now.Sub(last) > DefaultFailTimeout {
			stale = append(stale, id)
		}
	}
	if len(stale) > 0 {
		r.noteDead("heartbeat", stale...)
	}
	v.eng.Schedule(DefaultFailTimeout/2, e)
}

// silence is the decentralized inbound-silence failure detector, armed
// only with leases on. The lease renewal chatter guarantees every pair
// of ring members periodic traffic, so "I have heard nothing from p for
// DefaultFailTimeout" is meaningful evidence — and unlike a transport-level send failure it
// measures the direction that matters for death: whether p can still
// reach us. Directionally-suspected peers (we failed to reach them) get
// half the patience: two independent signals, outbound failure plus
// inbound silence, converge on a declaration sooner than either alone.
type silence Router

func (e *silence) Fire() {
	r := (*Router)(e)
	v, l := &r.v, r.lease
	if v.halted {
		return
	}
	if v.inRing() {
		now := v.eng.Now()
		var silent []msg.DeviceID
		for _, id := range v.ring.machines {
			if id == v.id || v.dead[id] {
				continue
			}
			last, heard := l.lastHeard[id]
			if !heard {
				// A peer that has never spoken to us cannot be judged
				// silent: during a staggered boot it is indistinguishable
				// from a machine still coming up, and declaring it dead
				// here is exactly the false positive that cascades (the
				// boot window grows with N, so any fixed grace loses).
				// Once it speaks, the renewal chatter keeps every pair's
				// clock fresh within microseconds — and a booted machine
				// that dies IS heard-from by its neighbors first, whose
				// silence verdict then reaches us as view gossip.
				continue
			}
			patience := DefaultFailTimeout
			if l.suspects[id] {
				patience /= 2
			}
			if now.Sub(last) > patience {
				silent = append(silent, id)
			}
		}
		if len(silent) > 0 {
			v.stats.SilenceDeaths += uint64(len(silent))
			r.noteDead("silence", silent...)
		} else if len(v.dead) > 0 {
			// Level-triggered view gossip: re-broadcast the dead set
			// each sweep so machines the original wave could not reach
			// (one-way cuts) still converge, which bounds how long a
			// deposed primary keeps finding willing grantors.
			r.broadcastView()
		}
	}
	v.eng.Schedule(DefaultFailTimeout/2, e)
}
