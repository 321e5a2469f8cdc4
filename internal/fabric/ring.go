// Package fabric scales the CPU-less machine to a rack: N complete
// machines — each with its own bus, devices and (optionally) a
// centralos kernel — co-scheduled on ONE deterministic sim event loop
// and joined by a modeled datacenter network. On top of the fabric runs
// a sharded, replicated KVS: consistent-hash key partitioning, client-
// side routing at the smart NICs, cross-machine request forwarding, and
// primary/backup replication with fenced failover, so a whole-machine
// kill loses no acknowledged write.
//
// The recovery invariants, audited from the client side by chaos.Ledger
// (G1/G2 read as R1/R2, NoteUnroutable as R3; E17):
//
//	R1 — no acked write lost: a read after failover never returns a
//	     value older than the newest acknowledged write for that key.
//	R2 — no duplicate apply: replica state never regresses; duplicate
//	     or post-failover straggler Replicates are fenced by a per-key
//	     (epoch, seq) watermark.
//	R3 — all keys routable after recovery: once failover settles, every
//	     key the workload ever touched gets a definitive answer from
//	     some live machine.
//
// Determinism: everything — machine boots, link flights, heartbeats,
// failovers — runs on the shared engine's (time, insertion-seq) order,
// and all randomness is drawn from seeded sim.Rand streams. A fixed
// seed reproduces a run byte-for-byte (golden-trace tested).
package fabric

import (
	"slices"
	"sort"

	"nocpu/internal/msg"
)

// DefaultVnodes is the number of ring points per machine. 64 points
// keep the shard-size spread under ~1.3x of fair share at N=64 while
// costing only N*64 sorted entries.
const DefaultVnodes = 64

// point is one vnode on the hash circle.
type point struct {
	hash    uint64
	machine msg.DeviceID
}

// Ring is the deterministic consistent-hash ring. It is immutable
// after construction; membership changes are expressed at lookup time
// by the caller's dead set, so every machine computes ownership from
// (shared ring, local view) without any coordination.
type Ring struct {
	// machines is never written after NewRing, so the package reads it in
	// place; Machines copies it for callers outside.
	machines []msg.DeviceID
	points   []point
}

// hashKey is FNV-1a 64 with a murmur3-style finalizer. Raw FNV leaves
// the high bits of short inputs badly mixed, and ring position is the
// FULL 64-bit value — without the final avalanche, vnode points and
// key hashes cluster and the shard balance collapses. A local
// implementation keeps the ring free of stdlib hash dependencies and
// pins the placement function forever — golden traces and the
// minimal-movement property both depend on it.
func hashKey(s string) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnodeHash names machine m's v-th ring point. The byte mixing keeps
// vnode names of adjacent machines uncorrelated.
func vnodeHash(m msg.DeviceID, v int) uint64 {
	return hashKey(string([]byte{
		byte(m), byte(uint16(m) >> 8), '#',
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
	}))
}

// NewRing builds the ring over the given machines with vnodes points
// each (DefaultVnodes if vnodes <= 0).
func NewRing(machines []msg.DeviceID, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	ms := append([]msg.DeviceID(nil), machines...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	r := &Ring{machines: ms}
	for _, m := range ms {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: vnodeHash(m, v), machine: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare) break by machine ID so the order is total.
		return r.points[i].machine < r.points[j].machine
	})
	return r
}

// Machines returns the ring membership in ID order.
func (r *Ring) Machines() []msg.DeviceID {
	return append([]msg.DeviceID(nil), r.machines...)
}

// Owners returns the first `replicas` distinct live machines clockwise
// from the key's hash: Owners(...)[0] is the primary, [1] the backup.
// dead may be nil. Fewer than `replicas` live machines returns all of
// them; none returns nil. This is the classic consistent-hashing
// property the ring tests pin: a machine's death promotes exactly its
// old successors, and a join steals only the arc it lands on.
func (r *Ring) Owners(key string, dead map[msg.DeviceID]bool, replicas int) []msg.DeviceID {
	if len(r.points) == 0 || replicas <= 0 {
		return nil
	}
	return r.ownersInto(make([]msg.DeviceID, 0, replicas), key, dead, replicas)
}

// ownersInto is Owners written over dst's storage, for a caller that
// keeps one slice to refill (the router's lookup scratch).
func (r *Ring) ownersInto(dst []msg.DeviceID, key string, dead map[msg.DeviceID]bool, replicas int) []msg.DeviceID {
	out := dst[:0]
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		// out holds at most `replicas` entries (two or three), so scanning
		// it is the whole "already chosen" check.
		if slices.Contains(out, p.machine) || dead[p.machine] {
			continue
		}
		out = append(out, p.machine)
	}
	return out
}
