package fabric

import (
	"bytes"
	"slices"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/smartnic"
)

// A router's ring lookups fill its scratch. They must answer what the
// allocating Ring.Owners answers under the same view — owners the current
// ring's owners, repTargets those minus the router itself followed by the
// staged ring's new ones — across keys, dead sets and a staged ring.
func TestRouterLookupsMatchRing(t *testing.T) {
	ring := NewRing(ringMachines(8), 0)
	staged := NewRing(ringMachines(9)[1:], 0) // machine 1 leaves, 9 joins
	deads := []map[msg.DeviceID]bool{
		{},
		{3: true},
		{1: true, 5: true},
		{2: true, 4: true, 6: true, 8: true},
		{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true},
		{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true, 9: true},
	}
	for _, pending := range []*Ring{nil, staged} {
		for _, dead := range deads {
			v := &newRouter(view{id: 1, ring: ring}, false).v
			v.dead, v.staged = dead, pending
			for i := 0; i < 1000; i++ {
				key := keyFor(i)
				want := ring.Owners(key, dead, DefaultReplicas)
				if got := v.owners(key); !slices.Equal(got, want) {
					t.Fatalf("dead %v staged %v: owners(%q) = %v, Ring.Owners = %v", dead, pending != nil, key, got, want)
				}
				var targets []msg.DeviceID
				for _, id := range want {
					if id != v.id {
						targets = append(targets, id)
					}
				}
				if pending != nil {
					for _, id := range pending.Owners(key, dead, DefaultReplicas) {
						if id != v.id && !slices.Contains(targets, id) {
							targets = append(targets, id)
						}
					}
				}
				if got := v.repTargets(key); !slices.Equal(got, targets) {
					t.Fatalf("dead %v staged %v: repTargets(%q) = %v, want %v", dead, pending != nil, key, got, targets)
				}
			}
		}
	}
}

// Two puts queued on one key at its primary, with a live backup: the
// backup's ack of the first completes it from inside onReplicateAck, and
// ackTask starts the second before the first's answer has left the NIC.
// Both must replicate to the same backup in order, so no caller may hold
// a lookup result across the lookups that the nested start makes.
func TestQueuedPutStartsInsideAck(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 6})
	key := keyOwnedBy(cl, 1)
	backup := cl.Ring.Owners(key, nil, 2)[1]
	r, b := cl.Machine(1).Router, cl.Machine(backup).Router
	applies := b.Stats().Applies
	first, second := bytes.Repeat([]byte{1}, 16), bytes.Repeat([]byte{2}, 16)

	var answered []kvs.Status
	ingress := cl.Ingress(1)
	ingress(kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: first}), func(resp []byte) {
		answered = append(answered, kvs.Status(resp[0]))
		// The second put started when the first was acked, ahead of this
		// answer's trip through tx.
		if g := r.repl.gates[key]; g == nil || g.cur == nil || !bytes.Equal(g.cur.req.Value, second) {
			t.Error("the first put's answer arrived before the second put started")
		}
	})
	ingress(kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: second}), func(resp []byte) {
		answered = append(answered, kvs.Status(resp[0]))
	})
	cl.Eng.Run()

	if !slices.Equal(answered, []kvs.Status{kvs.StatusOK, kvs.StatusOK}) {
		t.Fatalf("answers %v, want two OKs in order", answered)
	}
	if n := b.Stats().Applies - applies; n != 2 {
		t.Errorf("the backup applied %d puts, want 2", n)
	}
	if len(r.repl.gates) != 0 || len(r.repl.inflight) != 0 {
		t.Errorf("the primary still holds %d gates and %d tasks", len(r.repl.gates), len(r.repl.inflight))
	}
	var held []byte
	cl.Machine(backup).Store.Serve(kvs.Request{Op: kvs.OpGet, Key: key}, smartnic.ReplyFunc(func(resp []byte) {
		if r, err := kvs.DecodeResponse(resp); err == nil && r.Status == kvs.StatusOK {
			held = r.Value
		}
	}))
	cl.Eng.Run()
	if !bytes.Equal(held, second) {
		t.Errorf("the backup holds %v, want the second put's value", held)
	}
}
