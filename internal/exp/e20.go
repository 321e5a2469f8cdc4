package exp

import (
	"errors"
	"fmt"

	"nocpu/internal/adversary"
	"nocpu/internal/core"
	"nocpu/internal/fabric"
	"nocpu/internal/metrics"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
	"nocpu/internal/tenant"
)

// E20 is the adversarial multi-tenancy experiment: a seeded malicious
// device (tenant 2) mounts the full attack matrix — rogue DMA, stale
// credit replay, stale-incarnation frame replay, discovery abuse,
// doorbell floods, cross-tenant KVS probing — against a well-behaved
// tenant (tenant 1) on both machine flavors and on the N-machine
// fabric, while the tenancy ledger audits three invariants:
//
//	S1  no cross-tenant access ever succeeds, and every refusal is
//	    typed (an error, a DenialReport, a denial record) — never a
//	    silent drop;
//	S2  the victim's goodput and p99 under attack stay within the
//	    declared bound of its unattacked baseline;
//	S3  every denial is attributed to the attacker, and only the
//	    attacker's budget is exhausted.
//
// The blast-radius comparison is the compromised-kernel cell: a
// centralos head that misprograms a cross-tenant mapping succeeds
// instantly when the kernel is the only authority, and is refused by
// the device's own isolation-domain check when per-device enforcement
// is on — the paper's decentralization argument restated as a security
// property.

// E20 tuning. The attacked phase overlays an open-loop cross-tenant
// probe spam on the victim's closed-loop workload; budgets for the
// attacking tenant keep the damage on the attacker's side of the
// boundary. S2's declared bound is deliberately loose — the claim is
// containment, not zero interference.
const (
	e20Seed      = uint64(0xE20)
	e20Keys      = 48
	e20ValSize   = 64
	e20Workers   = 8
	e20PerWorker = 64

	e20SpamRate   = 400_000.0 // attacker probes/s, open loop
	e20SpamWindow = 2 * sim.Millisecond

	e20MinGoodput = 0.50 // S2: attacked goodput >= 50% of baseline
	e20MaxP99Mult = 8.0  // S2: attacked p99 <= 8x baseline

	e20AdversaryID = 90
	e20FloodSends  = 40

	e20FabricN         = 8
	e20FabricKeys      = 64
	e20FabricWorkers   = 16
	e20FabricPerWorker = 32
)

func e20Key(i int) string { return fmt.Sprintf("t1/e20-%04d", i) }

// e20Budget is the attacking tenant's declared share. RxBound only
// applies on the single machine (the KVS store answers sheds at the
// edge); the fabric router wire-drops edge sheds, so the fabric cell
// contains the attacker at the stores' admission budget instead.
func e20Budget(rxBound uint32) tenant.Budget {
	return tenant.Budget{CreditWindow: 4, KVSInflight: 2, RxBound: rxBound}
}

// e20Cell is one audited attack run.
type e20Cell struct {
	label    string
	rep      tenant.Report
	refused  int
	mounted  int
	baseline netsim.Stats
	attacked netsim.Stats
	denAtk   int // denials attributed to the attacker
	denVic   int // denials attributed to the victim (must be 0)
	probes   uint64
	leaked   uint64
}

func (c *e20Cell) goodputRatio() float64 {
	if c.baseline.Throughput() == 0 {
		return 0
	}
	return c.attacked.Throughput() / c.baseline.Throughput()
}

// e20Audit runs the shared ledger judgment for one cell.
func e20Audit(cell *e20Cell, led *tenant.Ledger, reg *tenant.Registry) {
	led.AuditGoodput(float64(cell.baseline.Completed), float64(cell.attacked.Completed),
		cell.baseline.Latency.P99(), cell.attacked.Latency.P99(),
		e20MinGoodput, e20MaxP99Mult)
	led.AuditAttribution(reg.Denials())
	led.AuditContainment(e20BudgetDenials(reg, 2), e20BudgetDenials(reg, 1))
	cell.denAtk = len(reg.DenialsBy(2))
	cell.denVic = len(reg.DenialsBy(1))
	cell.rep = led.Report()
}

// e20BudgetDenials counts budget-exhaustion denials charged to one
// tenant.
func e20BudgetDenials(reg *tenant.Registry, t tenant.ID) uint64 {
	var n uint64
	for _, d := range reg.DenialsBy(t) {
		if d.Class == tenant.DenyBudget {
			n++
		}
	}
	return n
}

// e20NoteOutcomes feeds the adversary's outcome log to the ledger.
func e20NoteOutcomes(led *tenant.Ledger, cell *e20Cell, outcomes []adversary.Outcome) {
	for _, o := range outcomes {
		led.NoteAttack(o.Class, !o.Refused, o.Typed, o.Attack+": "+o.Detail)
		cell.mounted++
		if o.Refused && o.Typed {
			cell.refused++
		}
	}
}

// e20Run is the sequence every cell shares: preload the victim's keys,
// measure its unattacked baseline, run the cell's attack step, overlay
// the attacker's probe spam on a second victim workload, and audit.
// target(tn) is a fresh ingress stamped with tenant tn; every RNG is
// seeded from seed alone, so a cell's draws are fixed by its seed.
func e20Run(cell *e20Cell, eng *sim.Engine, reg *tenant.Registry, seed uint64, keys, workers, perWorker int,
	target func(tn uint16) netsim.Target, attack func(led *tenant.Ledger)) {
	led, pool := tenant.NewLedger(2, 1), keySet(e20Key, keys)
	victim := func(seed uint64) netsim.Spec { // the well-behaved tenant's gets
		return netsim.Spec{Workers: workers, PerWorker: perWorker, Keys: pool, Rand: sim.NewRand(seed)}
	}
	netsim.Run(eng, target(1), netsim.Spec{
		Workers: 8, PerWorker: (keys + 7) / 8, Keys: pool, Pick: netsim.Sequential, Ops: netsim.Puts, ValueSize: e20ValSize,
	})
	cell.baseline = netsim.Run(eng, target(1), victim(seed^2))

	attack(led)

	// The attacker's open-loop cross-tenant probes, overlaid on a second
	// victim workload. A probe answered OK or NotFound leaked; StatusShed
	// is the attacker's own budget biting.
	spam := netsim.Start(eng, target(2), netsim.Spec{
		Rate: e20SpamRate, Window: e20SpamWindow, Keys: pool, Rand: sim.NewRand(seed ^ 3),
	})
	atk := netsim.Start(eng, target(1), victim(seed^4))
	atk.Wait()
	spam.Wait()
	cell.attacked = atk.Stats()
	probes := spam.Stats()
	cell.probes, cell.leaked = probes.Completed, probes.Served()
	led.NoteAttack(tenant.DenyKVS, cell.leaked > 0, cell.probes > cell.leaked,
		fmt.Sprintf("probe spam: %d probes, %d leaked", cell.probes, cell.leaked))
	cell.mounted++
	if cell.leaked == 0 {
		cell.refused++
	}
	e20Audit(cell, led, reg)
}

// e20Machine runs the full matrix on one booted machine: its attack step
// is the adversary device's control-plane matrix plus, on a centralized
// machine, the compromised kernel.
func e20Machine(kind machineKind) *e20Cell {
	seed := e20Seed ^ uint64(kind)<<8
	reg := tenant.NewRegistry()
	reg.BindApp(1, 1) // the victim store's address space is tenant 1's
	reg.SetBudget(2, e20Budget(2))
	rig := newKVSRig(kind, seed, func(o *core.Options) { o.Tenancy = reg }, nil)
	// The victim's NIC joins its tenant's domain (so discovery scoping
	// has something to hide from the adversary).
	nicID := rig.sys.NIC().Device().ID()
	reg.BindDevice(nicID, 1)

	cell := &e20Cell{label: kind.label()}
	eng := rig.sys.Eng
	stamped := func(tn uint16) netsim.Target {
		return netsim.Edge{NIC: rig.sys.NIC(), App: rig.store.AppID(), Tenant: tn}
	}
	e20Run(cell, eng, reg, seed, e20Keys, e20Workers, e20PerWorker, stamped, func(led *tenant.Ledger) {
		adv, err := adversary.Attach(eng, rig.sys.Bus, rig.sys.Mem, reg, adversary.Config{
			ID: e20AdversaryID, Tenant: 2, Seed: seed ^ 0xAD,
		})
		if err != nil {
			panic(fmt.Sprintf("exp: e20 adversary: %v", err))
		}
		eng.Run()

		// Control-plane attack matrix.
		run := func() { eng.Run() }
		adv.AttackRogueDMA(1)
		adv.AttackStaleCredit(run)
		adv.AttackReplay(nicID, run)
		adv.AttackDiscovery("kvstore", run)
		adv.AttackFlood(nicID, e20FloodSends, run)
		adv.AttackKVSProbe(rig.sys.NIC(), rig.store.AppID(),
			[]string{"t1/e20-0000", "t1/absent", "t1/e20-0001"}, run)

		// Compromised kernel (centralized only): the head node misprograms
		// a cross-tenant mapping into the adversary's device. The device's
		// own domain check must refuse it, typed.
		if rig.sys.CPU != nil {
			rig.sys.CPU.AttachDeviceIOMMU(e20AdversaryID, adv.IOMMU())
			merr := rig.sys.CPU.Misprogram(e20AdversaryID, 1, 0x4000_0000, 2*4096)
			var terr *tenant.Error
			typed := errors.As(merr, &terr)
			led.NoteAttack(tenant.DenyDMA, merr == nil, typed, fmt.Sprintf("kernel misprogram: %v", merr))
			cell.mounted++
			if merr != nil && typed {
				cell.refused++
			}
		}
		e20NoteOutcomes(led, cell, adv.Outcomes())
	})
	return cell
}

// e20Misprogram runs the blast-radius control: a centralized machine
// WITHOUT per-device checks, whose kernel maps tenant 1's app into an
// arbitrary device unchallenged.
func e20Misprogram() string {
	rig := newKVSRig(kindCentralDirect, e20Seed^0xBAD, nil, nil)
	nicID := rig.sys.NIC().Device().ID()
	if err := rig.sys.CPU.Misprogram(nicID, 1, 0x4000_0000, 2*4096); err != nil {
		return fmt.Sprintf("unexpected refusal: %v", err)
	}
	return "mapping installed unchallenged"
}

// e20Fabric runs the KVS half of the matrix rack-wide: cross-tenant
// probe spam against an N-machine sharded fabric under each control
// architecture, with one shared registry.
func e20Fabric(flavor fabric.Flavor) *e20Cell {
	seed := e20Seed ^ 0xF ^ uint64(flavor)<<12
	reg := tenant.NewRegistry()
	reg.SetBudget(2, e20Budget(0)) // no rx partition: routers wire-drop edge sheds
	cl := bootRack(fabric.Config{
		N: e20FabricN, Flavor: flavor, Seed: seed,
		MachineMemory: e17Memory, Tenancy: reg,
	})
	label := "fabric decentralized"
	if flavor == fabric.FlavorHead {
		label = "fabric head-node"
	}
	cell := &e20Cell{label: fmt.Sprintf("%s N=%d", label, e20FabricN)}
	target := func(tn uint16) netsim.Target { return &rackIngress{cl: cl, tenant: tn} }
	e20Run(cell, cl.Eng, reg, seed, e20FabricKeys, e20FabricWorkers, e20FabricPerWorker, target, func(led *tenant.Ledger) {
		// Admission flood: the attacker hammers its own shard with a
		// concurrent burst far past its per-tenant inflight budget — the
		// stores must shed the excess as DenyBudget on the attacker's tab.
		burn := []string{"t2/burn"}
		netsim.Run(cl.Eng, target(2), netsim.Spec{
			Workers: 1, PerWorker: 1, Keys: burn, Ops: netsim.Puts, ValueSize: e20ValSize, Rand: sim.NewRand(seed ^ 5),
		})
		netsim.Run(cl.Eng, target(2), netsim.Spec{
			Workers: 16, PerWorker: 8, Keys: burn, Rand: sim.NewRand(seed ^ 6),
		})
		floodSheds := e20BudgetDenials(reg, 2)
		led.NoteAttack(tenant.DenyBudget, false, floodSheds > 0,
			fmt.Sprintf("admission flood: %d budget sheds", floodSheds))
		cell.mounted++
		if floodSheds > 0 {
			cell.refused++
		}
	})
	return cell
}

// E20Tenancy runs the blast-radius ledger.
func E20Tenancy() *Result {
	res := &Result{ID: "E20", Title: "Adversarial multi-tenancy: attack matrix and blast radius"}

	matrix := metrics.NewTable(
		fmt.Sprintf("attack matrix per machine flavor (attacker t2 budget: credits=4 kvs=2 rx=2; S2 bound: goodput >= %.0f%%, p99 <= %.0fx)",
			e20MinGoodput*100, e20MaxP99Mult),
		"machine", "attacks", "refused typed", "S1 viol", "S2 viol", "S3 viol",
		"victim goodput", "base p99", "attacked p99", "denials->t2", "denials->t1")
	cells := []*e20Cell{
		e20Machine(kindDecentralized),
		e20Machine(kindCentralDirect),
		e20Fabric(fabric.FlavorDecentralized),
		e20Fabric(fabric.FlavorHead),
	}
	for _, c := range cells {
		matrix.AddRow(c.label, c.mounted, c.refused, c.rep.S1Viols, c.rep.S2Viols, c.rep.S3Viols,
			fmt.Sprintf("%.0f%%", c.goodputRatio()*100),
			c.baseline.Latency.P99(), c.attacked.Latency.P99(), c.denAtk, c.denVic)
		for _, v := range c.rep.Violations {
			res.Notes = append(res.Notes, fmt.Sprintf("VIOLATION [%s]: %s", c.label, v))
		}
	}
	res.Tables = append(res.Tables, matrix)

	blast := metrics.NewTable(
		"compromised-kernel blast radius: head node maps tenant 1's app into a foreign device",
		"per-device domain checks", "outcome")
	blast.AddRow("on (decentralized enforcement)", "refused by the device's IOMMU, typed tenant error")
	blast.AddRow("off (kernel is sole authority)", e20Misprogram())
	res.Tables = append(res.Tables, blast)

	res.Notes = append(res.Notes,
		"S1: cross-tenant accesses that succeeded or were refused silently; S2: victim goodput/p99 excursions beyond the declared bound; S3: misattributed denials or uncontained budget damage",
		"every cell must read 0/0/0 — the table is a regression oracle, not a benchmark",
		"fabric cells contain the attacker at the shard stores' admission budget; single-machine cells also shed at the NIC rx partition")
	return res
}
