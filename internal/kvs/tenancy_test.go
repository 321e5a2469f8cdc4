package kvs

import (
	"bytes"
	"testing"

	"nocpu/internal/tenant"
)

func TestKeyTenant(t *testing.T) {
	cases := []struct {
		key  string
		want tenant.ID
	}{
		{"t1/secret", 1},
		{"t42/orders/7", 42},
		{"t65535/x", 65535},
		{"shared", 0},
		{"temp/x", 0},   // non-digit after 't'
		{"t/x", 0},      // no id
		{"t1", 0},       // no '/'
		{"t99999/x", 0}, // overflows uint16
		{"", 0},
		{"x1/t2", 0},
	}
	for _, c := range cases {
		if got := KeyTenant(c.key); got != c.want {
			t.Errorf("KeyTenant(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

// The tenant stamp is a second trailing optional behind Deadline: every
// combination must round-trip, and tenant-free requests must stay
// byte-identical to the legacy format.
func TestRequestTenantWire(t *testing.T) {
	cases := []Request{
		{Op: OpGet, Key: "k"},
		{Op: OpGet, Key: "k", Deadline: 77},
		{Op: OpGet, Key: "k", Tenant: 3},
		{Op: OpPut, Key: "k", Value: []byte("v"), Deadline: 77, Tenant: 3},
	}
	for _, c := range cases {
		got, err := DecodeRequest(EncodeRequest(c))
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got.Op != c.Op || got.Key != c.Key || !bytes.Equal(got.Value, c.Value) ||
			got.Deadline != c.Deadline || got.Tenant != c.Tenant {
			t.Errorf("round trip %+v -> %+v", c, got)
		}
	}
	plain := EncodeRequest(Request{Op: OpGet, Key: "k"})
	if n := len(plain); n != 7+1 {
		t.Errorf("tenant-free request grew to %d bytes (format break)", n)
	}
}

// tenantStore boots a second, tenancy-enabled store instance (app 12)
// on the shared testbed file.
func tenantStore(t *testing.T, tb *testbed, reg *tenant.Registry) *Store {
	t.Helper()
	st := New(Config{App: 12, FileName: "kv.dat", Control: mcID, QueueEntries: 64, Tenancy: reg})
	var bootErr error
	booted := false
	st.OnReady = func(err error) { bootErr, booted = err, true }
	tb.nic.AddApp(st)
	tb.run()
	if !booted || bootErr != nil {
		t.Fatalf("tenant store boot: booted=%v err=%v", booted, bootErr)
	}
	return st
}

// opFrom issues one request through the NIC edge with an authenticated
// tenant stamp.
func opFrom(t *testing.T, tb *testbed, tn uint16, req Request) Response {
	t.Helper()
	var resp Response
	got := false
	tb.nic.DeliverFrom(tn, 12, EncodeRequest(req), func(b []byte) {
		r, err := DecodeResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		resp, got = r, true
	})
	tb.run()
	if !got {
		t.Fatal("no response")
	}
	return resp
}

// S1 at the application layer: no cross-tenant key access ever
// succeeds, every probe is refused with the typed StatusDenied (never
// NotFound, which would leak existence), and the registry attributes
// each refusal to the probing tenant.
func TestCrossTenantKeyAccessDenied(t *testing.T) {
	tb := newTestbed(t, 0)
	reg := tenant.NewRegistry()
	st := tenantStore(t, tb, reg)

	if r := opFrom(t, tb, 1, Request{Op: OpPut, Key: "t1/secret", Value: []byte("mine")}); r.Status != StatusOK {
		t.Fatalf("owner put: %+v", r)
	}
	if r := opFrom(t, tb, 1, Request{Op: OpGet, Key: "t1/secret"}); r.Status != StatusOK || string(r.Value) != "mine" {
		t.Fatalf("owner get: %+v", r)
	}

	// Probes from tenant 2: read, blind read, overwrite, delete — all
	// StatusDenied, and existing vs. absent keys are indistinguishable.
	probes := []Request{
		{Op: OpGet, Key: "t1/secret"},
		{Op: OpGet, Key: "t1/absent"},
		{Op: OpPut, Key: "t1/secret", Value: []byte("evil")},
		{Op: OpDelete, Key: "t1/secret"},
	}
	for _, p := range probes {
		if r := opFrom(t, tb, 2, p); r.Status != StatusDenied {
			t.Errorf("probe %v %q: status %d, want StatusDenied", p.Op, p.Key, r.Status)
		}
	}
	// A forged in-payload stamp does not survive the edge.
	if r := opFrom(t, tb, 2, Request{Op: OpGet, Key: "t1/secret", Tenant: 1}); r.Status != StatusDenied {
		t.Errorf("forged stamp: status %d, want StatusDenied", r.Status)
	}
	// The victim's data is intact.
	if r := opFrom(t, tb, 1, Request{Op: OpGet, Key: "t1/secret"}); r.Status != StatusOK || string(r.Value) != "mine" {
		t.Fatalf("victim data after probes: %+v", r)
	}
	// Untenanted requests are trusted infrastructure (replication,
	// recovery): they pass.
	var infra Response
	tb.nic.Deliver(12, EncodeRequest(Request{Op: OpGet, Key: "t1/secret"}), func(b []byte) {
		infra, _ = DecodeResponse(b)
	})
	tb.run()
	if infra.Status != StatusOK {
		t.Errorf("untenanted infrastructure read: %+v", infra)
	}
	// Shared keys stay open to every tenant.
	if r := opFrom(t, tb, 2, Request{Op: OpPut, Key: "shared/x", Value: []byte("ok")}); r.Status != StatusOK {
		t.Errorf("shared put: %+v", r)
	}

	if got := st.Stats().Denied; got != 5 {
		t.Errorf("Denied = %d, want 5", got)
	}
	dens := reg.DenialsBy(2)
	if len(dens) != 5 {
		t.Fatalf("registry denials by t2 = %d, want 5", len(dens))
	}
	for _, d := range dens {
		if d.Class != tenant.DenyKVS || d.Victim != 1 {
			t.Errorf("denial %+v, want class kvs victim t1", d)
		}
	}
	if len(reg.DenialsBy(1)) != 0 {
		t.Error("victim accrued denials for the attacker's probes")
	}
}

// S3 at the application layer: a tenant at its admission budget sheds
// only its own requests; an unbudgeted tenant's traffic is untouched.
func TestPerTenantAdmissionBudget(t *testing.T) {
	tb := newTestbed(t, 0)
	reg := tenant.NewRegistry()
	reg.SetBudget(2, tenant.Budget{KVSInflight: 1})
	st := tenantStore(t, tb, reg)

	if r := opFrom(t, tb, 2, Request{Op: OpPut, Key: "t2/k", Value: []byte("v")}); r.Status != StatusOK {
		t.Fatalf("seed put: %+v", r)
	}
	if r := opFrom(t, tb, 1, Request{Op: OpPut, Key: "t1/k", Value: []byte("v")}); r.Status != StatusOK {
		t.Fatalf("seed put: %+v", r)
	}

	// A concurrent burst from each tenant. Tenant 2 (budget 1) must see
	// sheds; tenant 1 (no budget) must not.
	count := func(tn uint16, key string) map[Status]int {
		out := make(map[Status]int)
		for i := 0; i < 8; i++ {
			tb.nic.DeliverFrom(tn, 12, EncodeRequest(Request{Op: OpGet, Key: key}), func(b []byte) {
				r, err := DecodeResponse(b)
				if err != nil {
					t.Fatal(err)
				}
				out[r.Status]++
			})
		}
		tb.run()
		return out
	}
	attacker := count(2, "t2/k")
	victim := count(1, "t1/k")

	if attacker[StatusShed] == 0 {
		t.Errorf("budgeted tenant burst never shed: %v", attacker)
	}
	if attacker[StatusOK] == 0 {
		t.Errorf("budgeted tenant starved entirely: %v", attacker)
	}
	if victim[StatusOK] != 8 {
		t.Errorf("unbudgeted tenant sheds leaked: %v", victim)
	}
	if st.Stats().TenantShed == 0 {
		t.Error("TenantShed not counted")
	}
	for _, d := range reg.DenialsBy(2) {
		if d.Class != tenant.DenyBudget {
			t.Errorf("denial %+v, want class budget", d)
		}
	}
	if len(reg.DenialsBy(2)) == 0 {
		t.Error("budget sheds not attributed in the registry")
	}
	if len(reg.DenialsBy(1)) != 0 {
		t.Error("victim accrued denials")
	}
}

// The store keeps two tenancy rules however a request reaches it. An
// unstamped request (Deliver) is the trusted path: its in-payload Tenant
// stands. A stamped one (DeliverFrom) carries the tenant its edge
// authenticated, which overwrites the payload's claim — a stamp of 0
// included.
func TestTenantStampRules(t *testing.T) {
	tb := newTestbed(t, 0)
	reg := tenant.NewRegistry()
	tenantStore(t, tb, reg)
	payload := EncodeRequest(Request{Op: OpGet, Key: "t3/k", Tenant: 5})
	for _, c := range []struct {
		name    string
		deliver func(reply func([]byte))
		want    Status
		blamed  tenant.ID
	}{
		{"Deliver trusts the payload", func(reply func([]byte)) { tb.nic.Deliver(12, payload, reply) }, StatusDenied, 5},
		{"DeliverFrom(0) clears it", func(reply func([]byte)) { tb.nic.DeliverFrom(0, 12, payload, reply) }, StatusNotFound, 0},
		{"DeliverFrom(3) stamps the owner", func(reply func([]byte)) { tb.nic.DeliverFrom(3, 12, payload, reply) }, StatusNotFound, 0},
		{"DeliverFrom(7) stamps a prober", func(reply func([]byte)) { tb.nic.DeliverFrom(7, 12, payload, reply) }, StatusDenied, 7},
	} {
		var got []Response
		c.deliver(func(b []byte) {
			r, err := DecodeResponse(b)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, r)
		})
		tb.run()
		if len(got) != 1 || got[0].Status != c.want {
			t.Errorf("%s: answered %+v, want one %v", c.name, got, c.want)
		}
		if c.blamed != 0 && len(reg.DenialsBy(c.blamed)) != 1 {
			t.Errorf("%s: %d denials recorded against %v, want 1", c.name, len(reg.DenialsBy(c.blamed)), c.blamed)
		}
	}
	if n := len(reg.DenialsBy(3)) + len(reg.DenialsBy(0)); n != 0 {
		t.Errorf("%d denials recorded against the owner or tenant 0", n)
	}
}
