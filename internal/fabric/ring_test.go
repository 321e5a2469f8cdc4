package fabric

import (
	"fmt"
	"slices"
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

func ringMachines(n int) []msg.DeviceID {
	out := make([]msg.DeviceID, n)
	for i := range out {
		out[i] = msg.DeviceID(i + 1)
	}
	return out
}

// TestRingFullCoverage: every key resolves to a full replica set of
// distinct live machines, for every cluster size and under deaths.
func TestRingFullCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 64} {
		r := NewRing(ringMachines(n), 0)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("cov-%05d", i)
			own := r.Owners(key, nil, 2)
			want := 2
			if n < 2 {
				want = n
			}
			if len(own) != want {
				t.Fatalf("n=%d key %s: owners %v, want %d", n, key, own, want)
			}
			if len(own) == 2 && own[0] == own[1] {
				t.Fatalf("n=%d key %s: replica set not distinct: %v", n, key, own)
			}
		}
	}
}

// TestRingDeadExcluded: dead machines never own anything; killing a
// machine only moves the keys it owned.
func TestRingDeadExcluded(t *testing.T) {
	r := NewRing(ringMachines(8), 0)
	dead := map[msg.DeviceID]bool{3: true, 5: true}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("dead-%05d", i)
		for _, o := range r.Owners(key, dead, 2) {
			if dead[o] {
				t.Fatalf("key %s owned by dead machine %d", key, o)
			}
		}
	}
}

// TestRingImbalanceUnderZipf bounds shard imbalance for Zipf-sampled
// workloads at θ ∈ {0, 0.9, 1.2}. Under heavy skew one key dominates,
// so the principled bound is: the busiest machine's load share may not
// exceed the hottest key's share by more than c/N (placement slack) —
// a machine can be unlucky enough to own the hot key, but consistent
// hashing must not additionally pile unrelated load onto it.
func TestRingImbalanceUnderZipf(t *testing.T) {
	const (
		nKeys   = 4096
		samples = 200000
		slack   = 2.5
	)
	for _, n := range []int{4, 16, 64} {
		r := NewRing(ringMachines(n), 0)
		for _, theta := range []float64{0, 0.9, 1.2} {
			rng := sim.NewRand(uint64(n)<<8 | uint64(theta*10))
			z := sim.NewZipf(rng, nKeys, theta)
			perMachine := make(map[msg.DeviceID]int, n)
			perKey := make([]int, nKeys)
			for s := 0; s < samples; s++ {
				k := z.Next()
				perKey[k]++
				perMachine[r.Owners(fmt.Sprintf("zipf-%05d", k), nil, 1)[0]]++
			}
			maxMachine, maxKey := 0, 0
			for _, c := range perMachine {
				if c > maxMachine {
					maxMachine = c
				}
			}
			for _, c := range perKey {
				if c > maxKey {
					maxKey = c
				}
			}
			machineShare := float64(maxMachine) / samples
			hotKeyShare := float64(maxKey) / samples
			bound := hotKeyShare + slack/float64(n)
			if machineShare > bound {
				t.Errorf("n=%d θ=%.1f: busiest machine %.3f > hot key %.3f + %.1f/N (%.3f)",
					n, theta, machineShare, hotKeyShare, slack, bound)
			}
		}
	}
}

// TestRingMinimalMovementOnLeave: a machine's death moves only the keys
// it owned — every key whose old primary survives keeps that primary.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	const nKeys = 2000
	r := NewRing(ringMachines(16), 0)
	victim := msg.DeviceID(7)
	dead := map[msg.DeviceID]bool{victim: true}
	moved := 0
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("move-%05d", i)
		before := r.Owners(key, nil, 1)[0]
		after := r.Owners(key, dead, 1)[0]
		if before != victim && after != before {
			t.Fatalf("key %s: primary moved %d -> %d though %d survives", key, before, after, before)
		}
		if before == victim {
			moved++
			if after == victim {
				t.Fatalf("key %s: still owned by dead machine", key)
			}
		}
	}
	// The victim owned roughly 1/16th of the keyspace; its death must
	// not have cascaded.
	if lo, hi := nKeys/16/3, nKeys*3/16; moved < lo || moved > hi {
		t.Errorf("victim owned %d/%d keys, far from the fair 1/16 share", moved, nKeys)
	}
}

// TestRingMinimalMovementOnJoin: adding a machine steals keys only for
// itself — no key moves between two pre-existing machines.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	const nKeys = 2000
	small := NewRing(ringMachines(8), 0)
	big := NewRing(ringMachines(9), 0) // machine 9 joined
	stolen := 0
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("join-%05d", i)
		before := small.Owners(key, nil, 1)[0]
		after := big.Owners(key, nil, 1)[0]
		if after != before {
			if after != 9 {
				t.Fatalf("key %s: moved %d -> %d, but only the joiner may steal", key, before, after)
			}
			stolen++
		}
	}
	if lo, hi := nKeys/9/3, nKeys*3/9; stolen < lo || stolen > hi {
		t.Errorf("joiner stole %d/%d keys, far from the fair 1/9 share", stolen, nKeys)
	}
}

// TestRingDeterministic: same membership, same ring, same answers.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(ringMachines(32), 0)
	b := NewRing([]msg.DeviceID{32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17,
		16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0) // same set, reversed input order
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("det-%05d", i)
		ao, bo := a.Owners(key, nil, 2), b.Owners(key, nil, 2)
		if !slices.Equal(ao, bo) {
			t.Fatalf("key %s: owners differ across construction orders: %v vs %v", key, ao, bo)
		}
	}
}

var ownersSink []msg.DeviceID

// BenchmarkRingOwners is the lookup every client op pays at least once:
// primary and backup of a key on a 16-machine ring with nobody dead.
func BenchmarkRingOwners(b *testing.B) {
	r := NewRing(ringMachines(16), 0)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = keyFor(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ownersSink = r.Owners(keys[i%len(keys)], nil, 2)
	}
}
