package fabric

import (
	"slices"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// A forwarded op refused WrongOwner is re-routed once, under the origin's
// view as it is when the refusal lands; a second refusal answers the
// client Unavailable. The origin holds the key's primary o1 dead and its
// successor o2 does not, so o2 refuses what the origin sends it. What
// changes while the refusal is in flight picks the outcome.
func TestWrongOwnerReroutesOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inFlight func(cl *Cluster, origin, o1, o2 msg.DeviceID)
		want     kvs.Status
		refusals uint64
		server   string // the machine that served the put: "o2", "origin" or none
	}{
		{"o2 learns o1 died", func(cl *Cluster, _, o1, o2 msg.DeviceID) {
			cl.Machine(o2).Router.noteDead("test", o1)
		}, kvs.StatusOK, 1, "o2"},
		{"a ring commit makes the origin the owner", func(cl *Cluster, origin, _, _ msg.DeviceID) {
			r := cl.Machine(origin).Router
			r.tr.apply(origin, &msg.RingConfig{Ver: r.RingVer() + 1, Phase: msg.RingCommit, Members: []msg.DeviceID{origin}})
		}, kvs.StatusOK, 1, "origin"},
		{"o2 refuses again", nil, kvs.StatusUnavailable, 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := mustBoot(t, Config{N: 4, Seed: 5})
			key := keyFor(0)
			own := cl.Ring.Owners(key, nil, 2)
			o1, o2 := own[0], own[1]
			origin := cl.MachineIDs()[0]
			for slices.Contains(own, origin) {
				origin++
			}
			ro, r2 := cl.Machine(origin).Router, cl.Machine(o2).Router
			ro.noteDead("test", o1)

			var resp kvs.Response
			got := false
			cl.Ingress(origin)(kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(1)}), func(b []byte) {
				resp, _ = kvs.DecodeResponse(b)
				got = true
			})
			for r2.Stats().WrongOwner == 0 && cl.Eng.Step() {
			}
			if tc.inFlight != nil {
				tc.inFlight(cl, origin, o1, o2)
			}
			for deadline := cl.Eng.Now().Add(sim.Second); !got && cl.Eng.Now() < deadline; {
				cl.Eng.RunFor(100 * sim.Microsecond)
			}
			if !got || resp.Status != tc.want {
				t.Fatalf("answered %v with status %d, want %d", got, resp.Status, tc.want)
			}
			if n := r2.Stats().WrongOwner; n != tc.refusals {
				t.Errorf("o2 refused %d times, want %d", n, tc.refusals)
			}
			if n := ro.Stats().Reroutes; n != 1 {
				t.Errorf("origin re-routed %d times, want 1", n)
			}
			server := map[string]msg.DeviceID{"o2": o2, "origin": origin}[tc.server]
			for _, m := range cl.Machines {
				switch has := m.Store.Keys() > 0; {
				case m.ID == server && !has:
					t.Errorf("machine %d served the put but does not hold the key", m.ID)
				case server == 0 && has:
					t.Errorf("machine %d holds the key of a put nobody served", m.ID)
				}
			}
		})
	}
}
