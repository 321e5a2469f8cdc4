package fabric

import (
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// Ops of a FuzzRingTransition step (its first byte, mod 4).
const (
	fuzzPrepare = iota
	fuzzCommit
	fuzzAbort
	fuzzBurst // DefaultWriteBound+1 puts to one key at machine 1's primary path
)

// FuzzRingTransition drives machine 1's transition, in a 3-machine ring
// with one spare, through whatever schedule of ring phases a byte string
// decodes to. Each 4-byte step is an op, a version step (-1 to +2 from
// the newest version the machine knows), a member subset (a bitmask over
// machines 1-4) and a byte whose low two bits pick the phase's source and
// whose high six bits how long the engine runs after it (in 50µs units).
// The other machines hear no phase: they are backups that apply what
// machine 1 replicates. After every step the ring version has not gone
// back, a staged version exists exactly when a staged ring does and is
// newer than the ring, and a drained transfer implies a staged ring.
// Once the engine runs quiet, a staged ring's transfer has drained.
func FuzzRingTransition(f *testing.F) {
	ring := NewRing(ringMachines(3), DefaultVnodes)
	key, _ := keyLedBy(ring, 1, 0)
	backup := ring.Owners(key, nil, DefaultReplicas)[1]
	// A burst fills key's pipeline, then a prepare drops its backup: the
	// transfer task for key meets a full pipeline.
	f.Add([]byte{fuzzBurst, 0, 0, 0, fuzzPrepare, 2, 0xF &^ (1 << (backup - 1)), 0x40})
	// v1 is staged, aborted and staged again while the aborted
	// transfer's tasks are still in flight.
	f.Add([]byte{fuzzPrepare, 2, 0x1, 0x30, fuzzAbort, 1, 0, 0x08, fuzzPrepare, 2, 0x1, 0x30})
	f.Add([]byte{fuzzPrepare, 2, 0xF, 0x04, fuzzCommit, 1, 0, 0x40})
	f.Add([]byte{fuzzPrepare, 2, 0xB, 0, fuzzPrepare, 2, 0xF, 0x01, fuzzAbort, 1, 0, 0x40})
	f.Add([]byte{fuzzPrepare, 2, 0xE, 0, fuzzCommit, 1, 0, 0x08, fuzzPrepare, 2, 0xF, 0x02, fuzzBurst, 0, 0, 0x10})
	f.Fuzz(func(t *testing.T, sched []byte) {
		cl := mustBoot(t, Config{N: 3, Spares: 1, Seed: 31})
		for i := 0; i < 8; i++ {
			do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: keyFor(i), Value: val64(uint64(i))})
		}
		r := cl.Machine(1).Router
		ringVer := r.RingVer()
		check := func(when string) {
			t.Helper()
			staged := r.v.staged != nil
			switch {
			case r.RingVer() < ringVer:
				t.Fatalf("%s: ring version went back from %d to %d", when, ringVer, r.RingVer())
			case (r.PendingVer() == 0) == staged:
				t.Fatalf("%s: staged version %d with staged ring %v", when, r.PendingVer(), staged)
			case staged && r.PendingVer() <= r.RingVer():
				t.Fatalf("%s: staged v%d is not newer than ring v%d", when, r.PendingVer(), r.RingVer())
			case r.TransferDone() && !staged:
				t.Fatalf("%s: a transfer is done with no ring staged", when)
			}
			ringVer = r.RingVer()
		}
		for i := 0; i+4 <= len(sched) && i < 4*64; i += 4 {
			op, step, mask, b := sched[i]%4, int(sched[i+1]%4)-1, sched[i+2], sched[i+3]
			ver := int(max(r.RingVer(), r.PendingVer())) + step
			var members []msg.DeviceID
			for id := msg.DeviceID(1); id <= 4; id++ {
				if mask&(1<<(id-1)) != 0 {
					members = append(members, id)
				}
			}
			switch op {
			case fuzzBurst:
				for n := 0; n <= DefaultWriteBound; n++ {
					req := kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(uint64(n))}
					r.repl.servePrimary(req, smartnic.ReplyFunc(func([]byte) {}))
				}
			default:
				phase := [...]uint8{msg.RingPrepare, msg.RingCommit, msg.RingAbort}[op]
				ringPhase(r, msg.DeviceID(1+b&3), phase, uint32(max(ver, 0)), members...)
			}
			check("after the phase")
			cl.Eng.RunFor(sim.Duration(b>>2) * 50 * sim.Microsecond)
			check("after running")
		}
		cl.Eng.Run()
		check("quiet")
		if r.v.staged != nil && !r.TransferDone() {
			t.Fatalf("staged v%d's transfer never drained: %d tasks left", r.PendingVer(), r.tr.left)
		}
	})
}
