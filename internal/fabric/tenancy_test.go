package fabric

import (
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/tenant"
)

// A router keeps the store's two tenancy rules across fabric hops. An
// unstamped request (Ingress) is the trusted path: its in-payload Tenant
// reaches the owner's store as sent. A stamped one (the NIC's DeliverFrom,
// what a netsim.Edge with a Tenant calls) carries the tenant its edge
// authenticated, which overwrites the payload's claim on every machine, a
// stamp of 0 included.
func TestTenantStampAcrossHops(t *testing.T) {
	reg := tenant.NewRegistry()
	cl := mustBoot(t, Config{N: 3, Seed: 1, Tenancy: reg})
	payload := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: "t3/k", Tenant: 5})
	stamped := func(tn uint16) func(msg.DeviceID) func([]byte, func([]byte)) {
		return func(id msg.DeviceID) func([]byte, func([]byte)) {
			nic := cl.Machine(id).Sys.NIC()
			return func(b []byte, reply func([]byte)) { nic.DeliverFrom(tn, RouterApp, b, reply) }
		}
	}
	for _, c := range []struct {
		name string
		send func(id msg.DeviceID) func([]byte, func([]byte))
		want kvs.Status
	}{
		{"Ingress trusts the payload", cl.Ingress, kvs.StatusDenied},
		{"stamp 0 clears it", stamped(0), kvs.StatusNotFound},
		{"stamp 3 is the owner", stamped(3), kvs.StatusNotFound},
		{"stamp 7 is a prober", stamped(7), kvs.StatusDenied},
	} {
		// Every machine as the ingress: the key's owner serves some
		// requests locally and has the others forwarded to it.
		for _, id := range cl.MachineIDs() {
			var got []kvs.Status
			c.send(id)(payload, func(b []byte) {
				resp, err := kvs.DecodeResponse(b)
				if err != nil {
					t.Fatalf("bad response: %v", err)
				}
				got = append(got, resp.Status)
			})
			cl.Eng.RunFor(10 * sim.Millisecond)
			if len(got) != 1 || got[0] != c.want {
				t.Errorf("%s at %v: answered %v, want one %v", c.name, id, got, c.want)
			}
		}
	}
	n := len(cl.MachineIDs())
	if d5, d7 := len(reg.DenialsBy(5)), len(reg.DenialsBy(7)); d5 != n || d7 != n {
		t.Errorf("denials against tenant 5 and 7: %d and %d, want %d each", d5, d7, n)
	}
	if d := len(reg.DenialsBy(0)) + len(reg.DenialsBy(3)); d != 0 {
		t.Errorf("%d denials against the untenanted path or the owner, want 0", d)
	}
}
