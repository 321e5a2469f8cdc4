package adversary_test

import (
	"reflect"
	"testing"

	"nocpu/internal/adversary"
	"nocpu/internal/bus"
	"nocpu/internal/core"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/tenant"
	"nocpu/internal/trace"
)

// rig is the minimal battlefield: a bus with one victim device (tenant
// 1, app 100) and one adversary device (tenant 2, with a small credit
// budget so the flood and stale-credit paths exist).
type rig struct {
	eng    *sim.Engine
	bus    *bus.Bus
	reg    *tenant.Registry
	adv    *adversary.Device
	victim []msg.Envelope
}

func newRig(t *testing.T, seed uint64) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(), reg: tenant.NewRegistry()}
	mem := physmem.MustNew(1024 * physmem.PageSize)
	r.bus = bus.New(r.eng, bus.DefaultConfig, trace.New())
	r.reg.BindDevice(1, 1)
	r.reg.BindApp(100, 1)
	r.reg.SetBudget(2, tenant.Budget{CreditWindow: 2})
	r.bus.SetTenancy(r.reg)

	mmu := iommu.New("victim", mem, iommu.DefaultConfig)
	port, err := r.bus.Attach(1, "victim", msg.RoleAccelerator, mmu, func(env msg.Envelope) {
		r.victim = append(r.victim, env)
	})
	if err != nil {
		t.Fatal(err)
	}
	port.Send(msg.BusID, &msg.Hello{Role: msg.RoleAccelerator, Name: "victim"})

	r.adv, err = adversary.Attach(r.eng, r.bus, mem, r.reg, adversary.Config{
		ID: 2, Name: "mole", Tenant: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	return r
}

// mount runs the full attack matrix against the rig's victim.
func (r *rig) mount() []adversary.Outcome {
	run := func() { r.eng.Run() }
	r.adv.AttackRogueDMA(100)
	r.adv.AttackStaleCredit(run)
	r.adv.AttackReplay(1, run)
	r.adv.AttackDiscovery("kvstore", run)
	r.adv.AttackFlood(1, 24, run)
	return r.adv.Outcomes()
}

// S1 at the unit level: every attack in the matrix is refused, and
// every refusal is typed — no silent drops, no partial successes.
func TestAttackMatrixAllRefused(t *testing.T) {
	r := newRig(t, 42)
	outcomes := r.mount()
	if len(outcomes) != 5 {
		t.Fatalf("outcomes = %d, want 5", len(outcomes))
	}
	for _, o := range outcomes {
		if !o.Refused {
			t.Errorf("%s: attack succeeded (%s)", o.Attack, o.Detail)
		}
		if !o.Typed {
			t.Errorf("%s: refusal not typed (%s)", o.Attack, o.Detail)
		}
	}
}

// S3 at the unit level: every denial the matrix produces is attributed
// to the attacking tenant; the victim's ledger stays clean.
func TestAttackMatrixAttribution(t *testing.T) {
	r := newRig(t, 42)
	r.mount()
	dens := r.reg.Denials()
	if len(dens) == 0 {
		t.Fatal("attack matrix produced no denial records")
	}
	for _, d := range dens {
		if d.Tenant != 2 {
			t.Errorf("denial %+v attributed to %v, want t2", d, d.Tenant)
		}
	}
	if got := r.reg.DenialsBy(1); len(got) != 0 {
		t.Errorf("victim accrued %d denials: %+v", len(got), got)
	}
}

// The adversary is seeded: the same seed mounts the same attack trace
// with identical outcomes, so E20 cells are reproducible.
func TestAttacksDeterministic(t *testing.T) {
	a := newRig(t, 7).mount()
	b := newRig(t, 7).mount()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// The KVS probe rides a full machine: an adversary attached to a booted
// decentralized system probes another tenant's key prefix through the
// NIC edge and must see nothing but StatusDenied — existence of the
// keys included.
func TestKVSProbeThroughEdge(t *testing.T) {
	reg := tenant.NewRegistry()
	sys := core.MustNew(core.Options{Flavor: core.Decentralized, Tenancy: reg})
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	st := sys.NewKVS(core.KVSOptions{App: 10, File: "kv.dat"})
	if err := sys.WaitReady(st); err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.Attach(sys.Eng, sys.Bus, sys.Mem, reg, adversary.Config{
		ID: 77, Tenant: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Eng.Run()

	keys := []string{"t1/accounts", "t1/absent", "t1/orders/3", "t1/x"}
	o := adv.AttackKVSProbe(sys.NIC(), 10, keys, func() { sys.Eng.Run() })
	if !o.Refused || !o.Typed {
		t.Fatalf("kvs probe outcome %+v, want refused and typed", o)
	}
	dens := reg.DenialsBy(2)
	if len(dens) != len(keys) {
		t.Fatalf("denials by t2 = %d, want %d", len(dens), len(keys))
	}
	for _, d := range dens {
		if d.Class != tenant.DenyKVS || d.Victim != 1 {
			t.Errorf("denial %+v, want class kvs victim t1", d)
		}
	}
	if st.Stats().Denied != uint64(len(keys)) {
		t.Errorf("store Denied = %d, want %d", st.Stats().Denied, len(keys))
	}
}
