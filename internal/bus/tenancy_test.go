package bus

// Bus-level tenancy tests: grant refusal, discovery scoping, the refused
// TenantGrant and per-tenant credit windows. The attacks an adversary
// device would mount against the bus must each produce a typed,
// attributed refusal — and with tenancy off the bus must behave exactly
// as before (asserted globally by the golden-table tests).

import (
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/tenant"
)

// tenancyHarness builds a bus with a registry binding device 1 to
// tenant 1 (victim side) and device 2 to tenant 2 (attacker side);
// device 3 stays untenanted infrastructure.
func tenancyHarness(t *testing.T, cfg Config) (*harness, *tenant.Registry) {
	t.Helper()
	h := newHarness(t, cfg)
	reg := tenant.NewRegistry()
	reg.BindDevice(1, 1)
	reg.BindDevice(2, 2)
	reg.BindApp(100, 1)
	reg.BindApp(200, 2)
	h.bus.SetTenancy(reg)
	return h, reg
}

func TestCrossTenantGrantRefused(t *testing.T) {
	h, reg := tenancyHarness(t, DefaultConfig)
	victim := h.addDev(1, "victim", msg.RoleAccelerator)
	attacker := h.addDev(2, "attacker", msg.RoleAccelerator)
	h.addDev(3, "mc", msg.RoleMemoryController)
	h.boot()

	// The attacker asks the bus to map its app into the victim's device.
	attacker.port.Send(msg.BusID, &msg.GrantReq{App: 200, VA: 0x1000, Bytes: 4096, Target: 1})
	h.eng.Run()

	// Typed refusal: GrantResp !OK, plus a DenialReport naming the
	// attacking tenant.
	gr, ok := attacker.lastOfKind(msg.KindGrantResp).(*msg.GrantResp)
	if !ok || gr.OK {
		t.Fatalf("grant resp = %+v, want typed refusal", gr)
	}
	dr, ok := attacker.lastOfKind(msg.KindDenialReport).(*msg.DenialReport)
	if !ok {
		t.Fatal("no DenialReport reached the attacker")
	}
	if dr.Tenant != 2 || dr.Victim != 1 || tenant.Class(dr.Class) != tenant.DenyGrant {
		t.Fatalf("denial report = %+v, want attacker 2 victim 1 class grant", dr)
	}
	// Registry record, attributed to the attacker.
	dens := reg.DenialsBy(2)
	if len(dens) != 1 || dens[0].Class != tenant.DenyGrant || dens[0].Victim != 1 {
		t.Fatalf("registry denials = %+v", dens)
	}
	if len(reg.DenialsBy(1)) != 0 {
		t.Error("victim accrued denials for the attacker's act")
	}
	// The victim never saw any of it.
	if n := victim.countKind(msg.KindGrantResp) + victim.countKind(msg.KindDenialReport); n != 0 {
		t.Errorf("victim received %d grant/denial messages, want 0", n)
	}
}

func TestDiscoveryScopedToDomain(t *testing.T) {
	h, reg := tenancyHarness(t, DefaultConfig)
	victim := h.addDev(1, "victim", msg.RoleAccelerator)
	attacker := h.addDev(2, "attacker", msg.RoleAccelerator)
	shared := h.addDev(3, "shared", msg.RoleStorage)
	h.boot()

	attacker.port.Send(msg.Broadcast, &msg.DiscoverReq{Query: "kvstore"})
	h.eng.Run()

	if n := victim.countKind(msg.KindDiscoverReq); n != 0 {
		t.Errorf("victim saw %d cross-tenant discovery probes, want 0", n)
	}
	if n := shared.countKind(msg.KindDiscoverReq); n != 1 {
		t.Errorf("untenanted device saw %d discoveries, want 1", n)
	}
	dr, ok := attacker.lastOfKind(msg.KindDenialReport).(*msg.DenialReport)
	if !ok {
		t.Fatal("scoped discovery produced no DenialReport (silent narrowing)")
	}
	if dr.Tenant != 2 || tenant.Class(dr.Class) != tenant.DenyDiscovery {
		t.Fatalf("denial report = %+v", dr)
	}
	if len(reg.DenialsBy(2)) != 1 {
		t.Errorf("registry denials by attacker = %d, want 1", len(reg.DenialsBy(2)))
	}

	// Broadcasts within the domain (or from untenanted devices) fan out
	// as before.
	shared.port.Send(msg.Broadcast, &msg.DiscoverReq{Query: "anything"})
	h.eng.Run()
	if n := victim.countKind(msg.KindDiscoverReq); n != 1 {
		t.Errorf("victim saw %d untenanted discoveries, want 1", n)
	}
	if n := attacker.countKind(msg.KindDiscoverReq); n != 1 {
		t.Errorf("attacker saw %d untenanted discoveries, want 1", n)
	}
}

// A device may not push a tenant binding: bindings are set by whoever
// builds the machine. A tenant-2 device that sends a TenantGrant moving
// itself and its app into tenant 1 gets a typed NACK, stays in tenant 2,
// and its next discovery broadcast is still scoped away from the victim.
func TestTenantSelfRebindRefused(t *testing.T) {
	h, reg := tenancyHarness(t, DefaultConfig)
	victim := h.addDev(1, "victim", msg.RoleAccelerator)
	attacker := h.addDev(2, "attacker", msg.RoleAccelerator)
	h.boot()

	attacker.port.Send(msg.BusID, &msg.TenantGrant{Tenant: 1, Device: 2, App: 200})
	h.eng.Run()

	n, ok := attacker.lastOfKind(msg.KindNack).(*msg.Nack)
	if !ok || n.Of != msg.KindTenantGrant || n.Code != msg.NackUnknownKind {
		t.Fatalf("self-rebind answered %+v, want NackUnknownKind of TenantGrant", n)
	}
	if got := reg.DeviceTenant(2); got != 2 {
		t.Fatalf("attacker rebound itself to %v, want t2", got)
	}
	if err := reg.CheckDevApp(1, 200); err == nil {
		t.Fatal("attacker's app 200 moved into the victim's domain")
	}

	attacker.port.Send(msg.Broadcast, &msg.DiscoverReq{Query: "kvstore"})
	h.eng.Run()
	if n := victim.countKind(msg.KindDiscoverReq); n != 0 {
		t.Errorf("victim saw %d discovery probes after the rebind attempt, want 0", n)
	}
	if n := attacker.countKind(msg.KindDenialReport); n != 1 {
		t.Errorf("attacker earned %d DenialReports, want 1", n)
	}
}

// TenantGrant has no sender the bus can authorize, so it is refused as an
// unknown kind whether tenancy is on or off.
func TestTenantGrantNacked(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tenancy bool
	}{{"tenancy off", false}, {"tenancy on", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var h *harness
			if tc.tenancy {
				h, _ = tenancyHarness(t, DefaultConfig)
			} else {
				h = newHarness(t, DefaultConfig)
			}
			d := h.addDev(1, "a", msg.RoleAccelerator)
			h.boot()
			d.port.Send(msg.BusID, &msg.TenantGrant{Tenant: 1, Device: 2})
			h.eng.Run()
			n, ok := d.lastOfKind(msg.KindNack).(*msg.Nack)
			if !ok || n.Of != msg.KindTenantGrant || n.Code != msg.NackUnknownKind {
				t.Fatalf("want NackUnknownKind for TenantGrant, got %+v", n)
			}
		})
	}
}

// A tenant budget turns flow control on for that tenant's devices even
// when the global window is off, and only the budgeted tenant stalls.
func TestPerTenantCreditWindow(t *testing.T) {
	h, reg := tenancyHarness(t, DefaultConfig) // global CreditWindow 0
	reg.SetBudget(2, tenant.Budget{CreditWindow: 2})
	victim := h.addDev(1, "victim", msg.RoleAccelerator)
	attacker := h.addDev(2, "attacker", msg.RoleAccelerator)
	h.boot()

	// The attacker floods; its 2-credit window stalls everything past
	// the bound and drops the overflow with an attributed denial.
	for i := 0; i < 20; i++ {
		attacker.port.Send(1, &msg.Heartbeat{Seq: uint64(i + 1)})
	}
	st := h.bus.Stats()
	if st.CreditStalls == 0 {
		t.Error("attacker flood never stalled against its tenant window")
	}
	if st.StallDropped == 0 {
		t.Error("attacker flood never exhausted its stall bound")
	}
	budgetDenials := 0
	for _, d := range reg.DenialsBy(2) {
		if d.Class == tenant.DenyBudget {
			budgetDenials++
		}
	}
	if budgetDenials == 0 {
		t.Error("stall-bound drops were not recorded as budget denials")
	}

	// The victim, with no budget and global flow control off, is
	// untouched: every send goes straight to the wire.
	for i := 0; i < 20; i++ {
		victim.port.Send(2, &msg.Heartbeat{Seq: uint64(i + 1)})
	}
	if got := h.bus.Stats().CreditStalls; got != st.CreditStalls {
		t.Errorf("victim sends stalled (%d -> %d): blast radius escaped the attacker", st.CreditStalls, got)
	}
	if len(reg.DenialsBy(1)) != 0 {
		t.Error("victim accrued denials during the attacker's flood")
	}
}

// lastOfKind returns the most recent message of the kind, or nil.
func (d *testDev) lastOfKind(k msg.Kind) msg.Message {
	for i := len(d.inbox) - 1; i >= 0; i-- {
		if d.inbox[i].Msg.Kind() == k {
			return d.inbox[i].Msg
		}
	}
	return nil
}
