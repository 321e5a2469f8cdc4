package exp

import (
	"fmt"

	"nocpu/internal/chaos"
	"nocpu/internal/core"
	"nocpu/internal/faultinject"
	"nocpu/internal/kvs"
	"nocpu/internal/metrics"
	"nocpu/internal/sim"
)

// E15 is the crash-restart-rejoin experiment (§4 "error handling"): a
// seeded chaos schedule kills the NIC, the SSD and the control-plane
// device (memory controller or CPU kernel) — including one coordinated
// double-failure — in the middle of a KVS write workload, on both
// machine architectures. The chaos ledger asserts the three recovery
// guarantees (G1 no acked write lost, G2 no op applied twice, G3 every
// crash recovered within a bounded virtual-time window), and the bus
// incarnation counters show the rejoin protocol fencing the old life's
// messages.

// E15 tuning. The client-side op timeout must exceed the worst-case
// in-system lifetime of a write (the mediated call exhausts its retry
// budget in under 100ms of virtual time): a worker only reuses a key
// after the previous write to it is either resolved or provably dead,
// which is what makes the ledger's per-key value ordering sound.
const (
	e15Workers    = 4
	e15KeysPer    = 8
	e15Warmup     = 5 * sim.Millisecond
	e15Window     = 45 * sim.Millisecond
	e15MinGap     = 8 * sim.Millisecond
	e15Tail       = 10 * sim.Millisecond // workload continues past the window
	e15OpTimeout  = 200 * sim.Millisecond
	e15ProbeGap   = 100 * sim.Microsecond
	e15ErrBackoff = 200 * sim.Microsecond
	// e15G3Bound is the recovery-window bound TestE15Guarantees asserts:
	// watchdog detection + reset + remount + reconnect + log scan, with
	// slack for back-to-back failures, is well under this.
	e15G3Bound = 50 * sim.Millisecond
)

// e15Sched names one crash campaign shape.
type e15Sched struct {
	name    string
	targets []string // of "nic", "ssd", "ctl"
	crashes int
	doubles int
}

var e15Scheds = []e15Sched{
	{"ssd x3", []string{"ssd"}, 3, 0},
	{"nic x3", []string{"nic"}, 3, 0},
	{"ctl x3", []string{"ctl"}, 3, 0},
	{"mixed + double", []string{"nic", "ssd", "ctl"}, 4, 1},
}

// e15Targets resolves target names to crash actions on a booted machine.
// "ctl" is the control-plane device: the memory controller on the
// decentralized machine, the CPU kernel on the centralized ones.
func e15Targets(kind machineKind, sys *core.System, names []string) []chaos.Target {
	out := make([]chaos.Target, len(names))
	for i, name := range names {
		t := chaos.Target{Name: name}
		switch name {
		case "nic":
			t.Crash = sys.NIC().Device().Kill
		case "ssd":
			t.Crash = sys.SSD().Kill
		case "ctl":
			if kind == kindDecentralized {
				t.Name = "memctrl"
				t.Crash = sys.Memctrl.Device().Kill
			} else {
				t.Name = "kernel"
				t.Crash = sys.CPU.Kill
			}
		default:
			panic("exp: unknown chaos target " + name)
		}
		out[i] = t
	}
	return out
}

// e15Probe polls a warm key with short gets while a crash window is
// open, so recovery is timed by first service restoration rather than by
// the write workers' long op timeouts.
func e15Probe(rig *kvsRig, out *outages, stopAt sim.Time) {
	eng, send := rig.sys.Eng, rig.target()
	var tick func()
	tick = func() {
		if eng.Now() >= stopAt && len(out.open) == 0 {
			return
		}
		if len(out.open) > 0 {
			req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: keyName(0)})
			send(req, func(b []byte) {
				if !kvsIsError(b) {
					out.restored()
				}
			})
		}
		eng.After(e15ProbeGap, tick)
	}
	tick()
}

// e15Row is one (machine, schedule) cell's outcome.
type e15Row struct {
	clientCounts
	report      chaos.Report
	crashes     int
	rejoins     uint64
	fencedByBus uint64
}

// e15Run executes one chaos campaign on a fresh machine.
func e15Run(kind machineKind, sc e15Sched, seed uint64) e15Row {
	const watchdog = 500 * sim.Microsecond
	rig := newKVSRig(kind, seed, func(o *core.Options) {
		o.Watchdog = watchdog
		if kind != kindDecentralized {
			// The kernel joins the lifecycle protocol: it heartbeats like
			// any device and reboots (with a cold, flushed kernel state)
			// when the bus resets it.
			o.CPU.HeartbeatEvery = watchdog / 4
			o.CPU.ResetDelay = 150 * sim.Microsecond
		}
	}, nil)
	eng := rig.sys.Eng

	plan := chaos.Plan{
		Seed:    seed,
		Start:   eng.Now().Add(e15Warmup),
		Window:  e15Window,
		Crashes: sc.crashes,
		MinGap:  e15MinGap,
		Doubles: sc.doubles,
		Targets: e15Targets(kind, rig.sys, sc.targets),
	}
	sched := plan.MustCompile()

	// No two workers share a key, so per-key write order equals issue
	// order.
	out := &outages{eng: eng}
	c := &campaignClient{
		eng: eng, send: rig.target(), led: chaos.NewLedger(),
		workers: e15Workers, timeout: e15OpTimeout, backoff: e15ErrBackoff,
		stopAt: plan.Start.Add(e15Window + e15Tail),
		key:    func(w, i int) string { return keyName(w*e15KeysPer + i%e15KeysPer) },
		onAck:  func(sim.Time) { out.restored() },
	}
	sched.Arm(eng, faultinject.New(seed), func(ev chaos.Event) { out.crashed(ev.At) })
	c.start()
	e15Probe(rig, out, c.stopAt)
	c.wait()
	c.readback()

	rep := c.led.Report()
	rep.Recoveries = out.recovered
	bs := rig.sys.Bus.Stats()
	return e15Row{
		clientCounts: c.clientCounts,
		report:       rep,
		crashes:      sc.crashes,
		rejoins:      bs.Rejoins,
		fencedByBus:  bs.DeadSenderDropped,
	}
}

// E15CrashRecovery runs the chaos campaigns over both control planes.
func E15CrashRecovery() *Result {
	res := &Result{ID: "E15", Title: "Crash-restart-rejoin: chaos schedules over both control planes"}
	tb := metrics.NewTable(
		fmt.Sprintf("seeded crash schedules mid-KVS-write-workload (%d workers x %d keys, %v window)",
			e15Workers, e15Workers*e15KeysPer, e15Window),
		"machine", "schedule", "crashes", "puts", "acked", "timeouts", "lost acked (G1)",
		"dup applies (G2)", "recovered", "max recovery", "rejoins", "fenced msgs")
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect, kindCentralMediated} {
		for i, sc := range e15Scheds {
			row := e15Run(kind, sc, 0xE15+uint64(i))
			recovered := fmt.Sprintf("%d/%d", len(row.report.Recoveries), row.crashes)
			tb.AddRow(kind.label(), sc.name, row.crashes, row.puts, row.report.Acks,
				row.tmouts, row.report.G1Lost, row.report.G2Dups, recovered,
				row.report.MaxRecovery(), row.rejoins, row.fencedByBus)
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"G1/G2 are asserted by the chaos ledger: every write's value is unique per (key, attempt), so a lost acked write or a resurrected stale write is visible in the final read-back sweep",
		"recovery is timed from the crash instant to the next acknowledged operation (a short-timeout get prober runs while any crash window is open)",
		"control-plane crashes separate the architectures: the decentralized data plane never notices a dead memory controller, while the kernel-mediated column pays a full outage per kernel reboot",
		"fenced msgs counts old-incarnation traffic the bus dropped after a crashed device rejoined with a bumped incarnation (DeadSenderDropped)")
	return res
}
