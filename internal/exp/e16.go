package exp

import (
	"fmt"

	"nocpu/internal/core"
	"nocpu/internal/metrics"
	"nocpu/internal/netsim"
	"nocpu/internal/overload"
	"nocpu/internal/sim"
)

// E16 is the goodput-collapse experiment: seeded open-loop load ramps
// from a quarter of saturation to 4× saturation, on all three machine
// flavors, with every overload defense armed — bus credit windows and
// ingress bounds, DMA windows, the NIC's bounded rx queue, the store's
// deadline + inflight admission control, and (centralized flavors) the
// kernel's mediated-I/O backlog bound. The overload ledger audits the
// three guarantees per machine:
//
//	Q1 — no watched queue ever exceeds its bound,
//	Q2 — goodput at 2× saturation ≥ 80% of goodput at saturation,
//	Q3 — every issued request resolves (ok/late/shed/error); shed work
//	     is refused with an explicit StatusShed, never silently lost.
//
// The paper's performance-isolation claim shows up as the gap between
// the flavors' degradation curves: how much goodput each retains at 4×,
// and where each starts shedding.

// E16 tuning. The deadline is the client's end-to-end latency budget;
// it sits an order of magnitude above the unloaded round trip so it only
// binds under queueing. Bounds are sized so the inflight cap (the
// store's admission valve) is the first defense to engage: queueing
// delay at the cap stays well inside the deadline, so admitted work is
// rarely late and goodput tracks capacity instead of collapsing.
const (
	e16Keys          = 256
	e16ValSize       = 64
	e16Window        = 20 * sim.Millisecond
	e16Deadline      = sim.Millisecond
	e16Seed          = 0xE16
	e16CreditWindow  = 32
	e16IngressBound  = 64
	e16RxBound       = 128
	e16InflightBound = 32
	e16IOBacklog     = 64
	e16CalWorkers    = 32
	e16CalPerWorker  = 200
)

// e16Multipliers are the offered-load points, as fractions of measured
// saturation. 1 and 2 must both be present: the ledger's Q2 audit
// compares them.
var e16Multipliers = []float64{0.25, 0.5, 1, 2, 4}

// e16Rig builds a machine with every overload defense armed and the
// keyspace preloaded.
func e16Rig(kind machineKind, seed uint64) *kvsRig {
	rig := newKVSRig(kind, seed, func(o *core.Options) {
		o.Bus.CreditWindow = e16CreditWindow
		o.Bus.IngressBound = e16IngressBound
		o.NIC.RxQueueBound = e16RxBound
		if kind != kindDecentralized {
			o.CPU.IOBacklogBound = e16IOBacklog
		}
	}, func(ko *core.KVSOptions) {
		ko.InflightBound = e16InflightBound
	})
	rig.preload(e16Keys, e16ValSize)
	return rig
}

// e16Campaign calibrates one flavor's saturation with a closed loop,
// then runs the ramp, one fresh machine per step so no queue state leaks
// between load points. Each step's generator seed is the next draw of a
// private RNG seeded only by the flavor, in multiplier order, so a step's
// arrivals depend on nothing else the machines consume.
func e16Campaign(kind machineKind) (sat float64, led *overload.Ledger) {
	cal := e16Rig(kind, e16Seed)
	sat = cal.getLoad(e16CalWorkers, e16CalPerWorker, e16Keys).Throughput()

	seeds := sim.NewRand((e16Seed ^ uint64(kind)<<8) ^ 0x6f766c64) // "ovld"
	led = overload.NewLedger()
	for i, m := range e16Multipliers {
		seed := seeds.Uint64()
		rig := e16Rig(kind, e16Seed+uint64(kind)*101+uint64(i)*7)
		rate := m * sat
		res := overload.NewStep(m, rate, netsim.Run(rig.sys.Eng, rig.target(), netsim.Spec{
			Rate: rate, Window: e16Window, Deadline: e16Deadline,
			Keys: keySet(keyName, e16Keys), Rand: sim.NewRand(seed),
		}))
		led.Record(res)
		// Q1 evidence: every bounded queue this step could have filled.
		tag := func(q string) string {
			return fmt.Sprintf("%s %gx %s", kind.label(), res.Multiplier, q)
		}
		led.Watch(tag("store-inflight"), rig.store.InflightGauge())
		led.Watch(tag("nic-rx"), rig.sys.NIC().RxGauge())
		led.Watch(tag("bus-ingress"), rig.sys.Bus.IngressGauge())
		if rig.sys.CPU != nil {
			led.Watch(tag("kernel-io-backlog"), rig.sys.CPU.IOGauge())
		}
	}
	return sat, led
}

// E16Overload runs the goodput-collapse campaign on all three flavors.
func E16Overload() *Result {
	res := &Result{ID: "E16", Title: "Overload resilience: goodput under open-loop load ramps"}
	tb := metrics.NewTable(
		fmt.Sprintf("open-loop get ramp (%v window, %v deadline, inflight bound %d)",
			e16Window, e16Deadline, e16InflightBound),
		"machine", "load", "offered/s", "sent", "goodput/s", "ok", "late", "shed", "errors", "p50", "p99")
	type verdict struct {
		kind  machineKind
		sat   float64
		led   *overload.Ledger
		retd  float64 // goodput at 4x as a fraction of goodput at 1x
		shed4 float64 // shed fraction at 4x
	}
	var verdicts []verdict
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect, kindCentralMediated} {
		sat, led := e16Campaign(kind)
		v := verdict{kind: kind, sat: sat, led: led}
		var base float64
		for _, s := range led.Steps() {
			tb.AddRow(kind.label(), fmt.Sprintf("%gx", s.Multiplier),
				fmt.Sprintf("%.0f", s.Rate), s.Sent, fmt.Sprintf("%.0f", s.Goodput),
				s.OK, s.Late, s.Shed, s.Errors, s.P50, s.P99)
			if s.Multiplier == 1 {
				base = s.Goodput
			}
			if s.Multiplier == 4 {
				if base > 0 {
					v.retd = s.Goodput / base
				}
				if s.Sent > 0 {
					v.shed4 = float64(s.Shed) / float64(s.Sent)
				}
			}
		}
		verdicts = append(verdicts, v)
	}
	res.Tables = append(res.Tables, tb)
	for _, v := range verdicts {
		audit := v.led.Audit()
		status := "Q1 Q2 Q3 pass"
		if len(audit) > 0 {
			status = fmt.Sprintf("AUDIT FAILED: %v", audit)
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: saturation %.0f req/s; goodput at 4x retains %.0f%% of 1x while shedding %.0f%% of offered load; %s",
			v.kind.label(), v.sat, 100*v.retd, 100*v.shed4, status))
	}
	res.Notes = append(res.Notes,
		"goodput counts only within-deadline successes; late completions are work the machine wasted on requests already dead to the client",
		"every overload defense is armed: bus credit windows + ingress bound, DMA windows, NIC bounded rx, store deadline + inflight admission, kernel mediated-I/O backlog bound (centralized)",
		"each load point runs on a fresh machine so queue state cannot leak between steps; arrivals are Poisson with per-step seeds fixed by the plan")
	return res
}
