package smartnic

import (
	"testing"

	"nocpu/internal/tenant"
)

// tenantEcho is a RequestApp that records the authenticated tenant of
// every stamped request it serves.
type tenantEcho struct {
	testApp
	seen []uint16
}

func (a *tenantEcho) ServeRequest(tn uint16, stamped bool, p []byte, rep Replier) {
	if stamped {
		a.seen = append(a.seen, tn)
	}
	rep.Reply(p)
}

// DeliverFrom hands the edge-authenticated tenant to RequestApp apps;
// plain Deliver keeps the legacy unstamped path.
func TestDeliverFromStampsTenant(t *testing.T) {
	m := newMachine(t)
	app := &tenantEcho{testApp: testApp{id: 7}}
	m.nic.AddApp(app)
	m.eng.Run()

	replies := 0
	m.nic.DeliverFrom(3, 7, []byte("a"), func([]byte) { replies++ })
	m.nic.DeliverFrom(0, 7, []byte("b"), func([]byte) { replies++ })
	m.nic.Deliver(7, []byte("c"), func([]byte) { replies++ })
	m.eng.Run()

	if replies != 3 {
		t.Fatalf("replies = %d, want 3", replies)
	}
	// Deliver (unstamped) must not reach ServeRequest with a stamp.
	if len(app.seen) != 2 || app.seen[0] != 3 || app.seen[1] != 0 {
		t.Errorf("stamped tenants = %v, want [3 0]", app.seen)
	}
}

// A tenant at its rx partition sheds at the edge — attributed in the
// registry — while other tenants' traffic is untouched. Blast radius
// stays with the flooder even when the shared bound has headroom.
func TestPerTenantRxPartition(t *testing.T) {
	m := newMachine(t)
	reg := tenant.NewRegistry()
	reg.SetBudget(2, tenant.Budget{RxBound: 1})
	m.nic.cfg.Tenancy = reg
	app := &tenantEcho{testApp: testApp{id: 7}}
	m.nic.AddApp(app)
	m.eng.Run()

	// 5 simultaneous frames from tenant 2 against an rx partition of 1:
	// one holds the slot, four shed (wire-drop: the app is no Shedder).
	replies := 0
	for i := 0; i < 5; i++ {
		m.nic.DeliverFrom(2, 7, []byte("flood"), func([]byte) { replies++ })
	}
	// Tenant 1 has no partition: all of its frames pass.
	for i := 0; i < 5; i++ {
		m.nic.DeliverFrom(1, 7, []byte("fine"), func([]byte) { replies++ })
	}
	m.eng.Run()

	if m.nic.TenantRxShed != 4 {
		t.Errorf("TenantRxShed = %d, want 4", m.nic.TenantRxShed)
	}
	if replies != 6 {
		t.Errorf("replies = %d, want 6 (1 flood + 5 fine)", replies)
	}
	dens := reg.DenialsBy(2)
	if len(dens) != 4 {
		t.Fatalf("registry denials by t2 = %d, want 4", len(dens))
	}
	for _, d := range dens {
		if d.Class != tenant.DenyBudget {
			t.Errorf("denial %+v, want class budget", d)
		}
	}
	if len(reg.DenialsBy(1)) != 0 {
		t.Error("well-behaved tenant accrued denials")
	}
}
