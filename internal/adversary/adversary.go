// Package adversary is E20's seeded malicious device: a bus endpoint
// bound to an attacking tenant that mounts, deterministically, every
// cross-tenant attack the tenancy layer claims to refuse — rogue DMA
// outside its isolation domain, replayed credit replenishments,
// stale-incarnation frame replay, discovery-broadcast abuse, doorbell
// floods past its budget, and cross-tenant KVS key probing.
//
// The device records one Outcome per attack. The S1 invariant requires
// every outcome to be Refused (the access never succeeded) and Typed
// (the refusal was a typed error, wire report, or attributed ledger
// record — never a silent drop). The tenancy ledger audits S2/S3 from
// the victim's goodput and the registry's attribution alongside.
//
// The adversary is malicious *firmware*, not malicious hardware: it
// still DMAs through its own IOMMU (the isolation-domain check lives in
// the translation unit, which firmware cannot bypass) and it still
// sends through its own bus port. What it forges is everything software
// can forge — PASIDs, incarnation stamps, broadcast queries, tenant
// claims inside payloads.
package adversary

import (
	"errors"
	"fmt"

	"nocpu/internal/bus"
	"nocpu/internal/iommu"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/tenant"
)

// Config describes one adversary device.
type Config struct {
	ID     msg.DeviceID
	Name   string
	Tenant tenant.ID // the attacking tenant (must be nonzero)
	Seed   uint64    // per-attack determinism: same seed, same attack trace
}

// Outcome is the audited result of one mounted attack.
type Outcome struct {
	Attack  string       // which attack ("rogue-dma", "stale-credit", ...)
	Class   tenant.Class // the denial class the attack should produce
	Refused bool         // S1: the access never succeeded
	Typed   bool         // S1: the refusal was typed/attributed, not a silent drop
	Detail  string
}

// Device is the attached adversary. Each Attack* method mounts one
// attack and appends (and returns) its Outcome; run, where taken,
// advances the simulation so asynchronous refusals land.
type Device struct {
	cfg  Config
	eng  *sim.Engine
	bus  *bus.Bus
	reg  *tenant.Registry
	mmu  *iommu.IOMMU
	port *bus.Port
	rnd  *sim.Rand

	inbox    []msg.Envelope
	outcomes []Outcome
}

// Attach connects an adversary device to the bus, binds it to its
// tenant, installs the isolation-domain check on its translation unit
// (the hardware half the firmware cannot disable), and announces it
// with a Hello so the bus marks it alive.
func Attach(eng *sim.Engine, b *bus.Bus, mem *physmem.Memory, reg *tenant.Registry, cfg Config) (*Device, error) {
	if cfg.Tenant == 0 {
		return nil, fmt.Errorf("adversary: must be bound to a tenant")
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("adversary-%d", cfg.ID)
	}
	d := &Device{
		cfg: cfg,
		eng: eng,
		bus: b,
		reg: reg,
		rnd: sim.NewRand(cfg.Seed ^ 0xad5e),
	}
	d.mmu = iommu.New(cfg.Name, mem, iommu.DefaultConfig)
	d.mmu.SetDomainCheck(tenant.DomainCheck[iommu.PASID](reg, eng, cfg.ID))
	port, err := b.Attach(cfg.ID, cfg.Name, msg.RoleAccelerator, d.mmu, func(env msg.Envelope) {
		d.inbox = append(d.inbox, env)
	})
	if err != nil {
		return nil, err
	}
	d.port = port
	reg.BindDevice(cfg.ID, cfg.Tenant)
	port.Send(msg.BusID, &msg.Hello{Role: msg.RoleAccelerator, Name: cfg.Name})
	return d, nil
}

// IOMMU exposes the adversary's translation unit (testing).
func (d *Device) IOMMU() *iommu.IOMMU { return d.mmu }

// Outcomes returns every attack mounted so far, in order.
func (d *Device) Outcomes() []Outcome { return d.outcomes }

func (d *Device) note(o Outcome) Outcome {
	d.outcomes = append(d.outcomes, o)
	return o
}

// denialReports tallies wire DenialReports of one class in the inbox.
func (d *Device) denialReports(c tenant.Class) int {
	n := 0
	for _, e := range d.inbox {
		if dr, ok := e.Msg.(*msg.DenialReport); ok && tenant.Class(dr.Class) == c {
			n++
		}
	}
	return n
}

// denialsOf tallies registry denials attributed to this tenant with the
// given class.
func (d *Device) denialsOf(c tenant.Class) int {
	n := 0
	for _, den := range d.reg.DenialsBy(d.cfg.Tenant) {
		if den.Class == c {
			n++
		}
	}
	return n
}

// AttackRogueDMA tries to reach a foreign app's memory through the
// device's own translation unit: first by instantiating a context for
// the victim's PASID, then by walking an address under that PASID
// anyway. Both must fail typed — the first with the registry's
// *tenant.Error from the domain check, the second with an *iommu.Fault
// (no context exists, because the domain check refused it).
func (d *Device) AttackRogueDMA(victim msg.AppID) Outcome {
	o := Outcome{Attack: "rogue-dma", Class: tenant.DenyDMA}
	cerr := d.mmu.CreateContext(iommu.PASID(victim))
	var terr *tenant.Error
	typedCreate := errors.As(cerr, &terr)
	va := iommu.VirtAddr(uint64(d.rnd.Intn(1<<20)) * physmem.PageSize)
	_, _, werr := d.mmu.Translate(iommu.PASID(victim), va, iommu.AccessWrite)
	var fault *iommu.Fault
	typedWalk := errors.As(werr, &fault)
	o.Refused = cerr != nil && werr != nil && !d.mmu.HasContext(iommu.PASID(victim))
	o.Typed = typedCreate && typedWalk
	o.Detail = fmt.Sprintf("create: %v; walk: %v", cerr, werr)
	return d.note(o)
}

// AttackStaleCredit replays a credit replenishment captured from the
// device's previous incarnation: it records the current incarnation,
// crashes and rejoins (bumping it), then feeds the port a replenish
// fenced to the old life. The fence must drop it typed — credits
// unchanged, StaleCreditDropped counted, DenyStaleCredit attributed.
// The attacker needs a per-tenant credit window for the replenish path
// to exist at all.
func (d *Device) AttackStaleCredit(run func()) Outcome {
	o := Outcome{Attack: "stale-credit", Class: tenant.DenyStaleCredit}
	oldInc := d.port.Incarnation()
	d.port.NewIncarnation()
	d.port.Send(msg.BusID, &msg.Hello{Role: msg.RoleAccelerator, Name: d.cfg.Name, Incarnation: d.port.Incarnation()})
	run()

	staleBefore := d.bus.Stats().StaleCreditDropped
	denBefore := d.denialsOf(tenant.DenyStaleCredit)
	credBefore := d.port.Credits()
	d.port.AddCredits(64, oldInc) // the captured replenish, replayed
	staleDelta := d.bus.Stats().StaleCreditDropped - staleBefore
	o.Refused = d.port.Credits() == credBefore && staleDelta == 1
	o.Typed = staleDelta == 1 && d.denialsOf(tenant.DenyStaleCredit) == denBefore+1
	o.Detail = fmt.Sprintf("credits %d unchanged=%v, stale drops +%d", credBefore,
		d.port.Credits() == credBefore, staleDelta)
	return d.note(o)
}

// AttackReplay injects a captured frame stamped with the device's
// previous incarnation straight onto the wire (bus.Replay models the
// capture-and-replay). The bus must fence it as dead-sender traffic —
// DeadSenderDropped counted, DenyStaleReplay attributed — and the
// victim must never see it.
func (d *Device) AttackReplay(victim msg.DeviceID, run func()) Outcome {
	o := Outcome{Attack: "stale-replay", Class: tenant.DenyStaleReplay}
	if d.port.Incarnation() == 0 {
		d.port.NewIncarnation()
		d.port.Send(msg.BusID, &msg.Hello{Role: msg.RoleAccelerator, Name: d.cfg.Name, Incarnation: d.port.Incarnation()})
		run()
	}
	captured := msg.Envelope{
		Src: d.cfg.ID,
		Dst: victim,
		Seq: uint32(1000 + d.rnd.Intn(1000)),
		Inc: d.port.Incarnation() - 1,
		Msg: &msg.Heartbeat{Seq: uint64(d.rnd.Intn(1 << 16))},
	}
	fencedBefore := d.bus.Stats().DeadSenderDropped
	denBefore := d.denialsOf(tenant.DenyStaleReplay)
	d.bus.Replay(captured)
	run()
	fencedDelta := d.bus.Stats().DeadSenderDropped - fencedBefore
	o.Refused = fencedDelta >= 1
	o.Typed = d.denialsOf(tenant.DenyStaleReplay) > denBefore
	o.Detail = fmt.Sprintf("replayed inc %d, fenced +%d", captured.Inc, fencedDelta)
	return d.note(o)
}

// AttackDiscovery broadcasts a service-discovery probe hoping to
// enumerate other tenants' devices. The bus must scope the broadcast to
// the adversary's own domain (plus untenanted infrastructure) and tell
// it so with a DenialReport — no device in a foreign tenant may answer,
// or even see the probe.
func (d *Device) AttackDiscovery(query string, run func()) Outcome {
	o := Outcome{Attack: "discovery-abuse", Class: tenant.DenyDiscovery}
	before := len(d.inbox)
	reportsBefore := d.denialReports(tenant.DenyDiscovery)
	d.port.Send(msg.Broadcast, &msg.DiscoverReq{Query: query, Nonce: uint32(d.rnd.Intn(1 << 30))})
	run()
	foreign := 0
	for _, e := range d.inbox[before:] {
		if _, ok := e.Msg.(*msg.DiscoverResp); !ok {
			continue
		}
		if t := d.reg.DeviceTenant(e.Src); t != 0 && t != d.cfg.Tenant {
			foreign++
		}
	}
	o.Refused = foreign == 0
	o.Typed = d.denialReports(tenant.DenyDiscovery) > reportsBefore
	o.Detail = fmt.Sprintf("foreign answers %d, denial reports +%d", foreign,
		d.denialReports(tenant.DenyDiscovery)-reportsBefore)
	return d.note(o)
}

// AttackFlood hammers a victim device with n back-to-back doorbell
// messages, far past the adversary's per-tenant credit window. The
// window must contain the flood at the attacker's own port — overflow
// dropped from its bounded stall queue, DenyBudget attributed to the
// attacker, its stall gauge never exceeding the bound.
func (d *Device) AttackFlood(victim msg.DeviceID, n int, run func()) Outcome {
	o := Outcome{Attack: "doorbell-flood", Class: tenant.DenyBudget}
	stBefore := d.bus.Stats()
	denBefore := d.denialsOf(tenant.DenyBudget)
	for i := 0; i < n; i++ {
		d.port.Send(victim, &msg.Heartbeat{Seq: uint64(i)})
	}
	run()
	st := d.bus.Stats()
	dropped := st.StallDropped - stBefore.StallDropped
	stalled := st.CreditStalls - stBefore.CreditStalls
	o.Refused = dropped > 0 && !d.port.StallGauge().Exceeded()
	o.Typed = d.denialsOf(tenant.DenyBudget) > denBefore
	o.Detail = fmt.Sprintf("%d sent, %d stalled, %d dropped at the attacker's port", n, stalled, dropped)
	return d.note(o)
}

// AttackKVSProbe sends cross-tenant key probes (reads, overwrites,
// deletes against another tenant's prefix) into a store through the NIC
// edge, stamped — authentically, by the edge — with the adversary's own
// tenant. Every probe must come back StatusDenied: StatusOK is a
// breach, and StatusNotFound would leak key existence.
func (d *Device) AttackKVSProbe(nic *smartnic.NIC, app msg.AppID, keys []string, run func()) Outcome {
	o := Outcome{Attack: "kvs-probe", Class: tenant.DenyKVS}
	denied, shed, leaked, lost := 0, 0, 0, len(keys)
	for _, k := range keys {
		var req kvs.Request
		switch d.rnd.Intn(3) {
		case 0:
			req = kvs.Request{Op: kvs.OpGet, Key: k}
		case 1:
			req = kvs.Request{Op: kvs.OpPut, Key: k, Value: []byte("owned")}
		default:
			req = kvs.Request{Op: kvs.OpDelete, Key: k}
		}
		nic.DeliverFrom(uint16(d.cfg.Tenant), app, kvs.EncodeRequest(req), func(b []byte) {
			lost--
			r, err := kvs.DecodeResponse(b)
			if err != nil {
				return
			}
			switch r.Status {
			case kvs.StatusDenied:
				denied++
			case kvs.StatusShed:
				shed++ // the probe burst tripping the prober's own admission budget
			case kvs.StatusOK, kvs.StatusNotFound:
				leaked++
			}
		})
	}
	run()
	o.Refused = leaked == 0
	o.Typed = denied > 0 && denied+shed == len(keys) && lost == 0
	o.Detail = fmt.Sprintf("%d probes: %d denied, %d shed, %d leaked, %d unanswered",
		len(keys), denied, shed, leaked, lost)
	return d.note(o)
}
