package exp

import (
	"encoding/binary"
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
// in-system lifetime of a write (the mediated retrier exhausts its
// budget in under 100ms of virtual time): a worker only reuses a key
// after the previous write to it is either resolved or provably dead,
// which is what makes the ledger's per-key value ordering sound.
const (
	e15Workers   = 4
	e15KeysPer   = 8
	e15Warmup    = 5 * sim.Millisecond
	e15Window    = 45 * sim.Millisecond
	e15MinGap    = 8 * sim.Millisecond
	e15Tail      = 10 * sim.Millisecond // workload continues past the window
	e15OpTimeout = 200 * sim.Millisecond
	e15ProbeGap  = 100 * sim.Microsecond
	// e15ErrBackoff paces a worker that got an error reply (store mid-
	// recovery answers Unavailable instantly; hammering it just inflates
	// the attempt count).
	e15ErrBackoff = 200 * sim.Microsecond
	// e15G3Bound is the recovery-window bound asserted by the chaos tier
	// tests: watchdog detection + reset + remount + reconnect + log scan,
	// with slack for back-to-back failures, is well under this.
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

func e15Value(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// e15Driver is the per-op-timeout write workload plus the recovery
// prober. netsim's closed loop cannot drive a crashing machine — an op
// lost in a crash would stall it forever — so every op here carries its
// own virtual-time timeout and the worker moves on.
type e15Driver struct {
	rig *kvsRig
	led *chaos.Ledger

	stopAt  sim.Time
	nextVal uint64
	puts    uint64
	acks    uint64
	tmouts  uint64
	errs    uint64
	done    int

	pending   []sim.Time // crash instants not yet followed by a success
	recovered []sim.Duration
}

// noteProgress marks service restored: any acknowledged operation closes
// every crash window still open.
func (d *e15Driver) noteProgress() {
	if len(d.pending) == 0 {
		return
	}
	now := d.rig.sys.Eng.Now()
	for _, at := range d.pending {
		d.recovered = append(d.recovered, now.Sub(at))
	}
	d.pending = d.pending[:0]
}

// worker runs one closed loop over its own key partition (no two workers
// share a key, so per-key write order equals issue order).
func (d *e15Driver) worker(w int) {
	eng := d.rig.sys.Eng
	keyIdx := 0
	var issue func()
	issue = func() {
		if eng.Now() >= d.stopAt {
			d.done++
			return
		}
		key := keyName(w*e15KeysPer + keyIdx)
		keyIdx = (keyIdx + 1) % e15KeysPer
		d.nextVal++
		val := d.nextVal
		d.led.NoteAttempt(key, val)
		d.puts++
		resolved := false
		var tm *sim.Timer
		req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: e15Value(val)})
		d.rig.sys.NIC().Deliver(d.rig.store.AppID(), req, func(b []byte) {
			resp, err := kvs.DecodeResponse(b)
			ok := err == nil && resp.Status == kvs.StatusOK
			if ok {
				// Count the ack even if it raced the timeout: the client
				// was told the write succeeded, so G1 must cover it.
				d.led.NoteAck(key, val)
				d.acks++
				d.noteProgress()
			}
			if resolved {
				return
			}
			resolved = true
			if tm != nil {
				tm.Stop()
			}
			if !ok {
				d.errs++
				eng.Schedule(e15ErrBackoff, issue)
				return
			}
			issue()
		})
		tm = eng.After(e15OpTimeout, func() {
			if resolved {
				return
			}
			resolved = true
			d.tmouts++
			issue()
		})
	}
	issue()
}

// probe polls a warm key with short gets while a crash window is open,
// so recovery is timed by first service restoration rather than by the
// write workers' long op timeouts.
func (d *e15Driver) probe() {
	eng := d.rig.sys.Eng
	var tick func()
	tick = func() {
		if eng.Now() >= d.stopAt && len(d.pending) == 0 {
			return
		}
		if len(d.pending) > 0 {
			req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: keyName(0)})
			d.rig.sys.NIC().Deliver(d.rig.store.AppID(), req, func(b []byte) {
				if resp, err := kvs.DecodeResponse(b); err == nil && resp.Status == kvs.StatusOK {
					d.noteProgress()
				}
			})
		}
		eng.Schedule(e15ProbeGap, tick)
	}
	tick()
}

// readback sweeps every key the workload touched, retrying transient
// unavailability, and feeds the results to the ledger's G1/G2 checks.
func (d *e15Driver) readback() {
	eng := d.rig.sys.Eng
	keys := d.led.Keys()
	done := false
	i := 0
	var next func()
	next = func() {
		if i == len(keys) {
			done = true
			return
		}
		key := keys[i]
		resolved := false
		var tm *sim.Timer
		retry := func() {
			if resolved {
				return
			}
			resolved = true
			eng.Schedule(500*sim.Microsecond, next)
		}
		req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
		d.rig.sys.NIC().Deliver(d.rig.store.AppID(), req, func(b []byte) {
			resp, err := kvs.DecodeResponse(b)
			if err != nil || resp.Status == kvs.StatusError || resp.Status == kvs.StatusUnavailable {
				retry() // store mid-recovery; ask again
				return
			}
			if resolved {
				return
			}
			resolved = true
			if tm != nil {
				tm.Stop()
			}
			if resp.Status == kvs.StatusNotFound {
				d.led.NoteRead(key, 0, false)
			} else if v := resp.Value; len(v) == 8 {
				d.led.NoteRead(key, binary.LittleEndian.Uint64(v), true)
				d.noteProgress()
			} else {
				// Corrupt value: report it as a never-issued read.
				d.led.NoteRead(key, ^uint64(0), true)
			}
			i++
			next()
		})
		tm = eng.After(2*sim.Millisecond, retry)
	}
	next()
	d.rig.drain(&done)
}

// e15Row is one (machine, schedule) cell's outcome.
type e15Row struct {
	report  chaos.Report
	crashes int
	puts    uint64
	tmouts  uint64
	errs    uint64
	rejoins uint64
	fenced  uint64
}

// e15Run executes one chaos campaign on a fresh machine. Exercised with
// race detection by the chaos test tier (make chaos).
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

	d := &e15Driver{rig: rig, led: chaos.NewLedger()}
	d.stopAt = plan.Start.Add(e15Window + e15Tail)
	plane := faultinject.New(seed)
	//lint:allow boundedqueue at most Plan.Crashes events ever arm, and noteProgress drains on every ack
	sched.Arm(eng, plane, func(ev chaos.Event) { d.pending = append(d.pending, ev.At) })
	for w := 0; w < e15Workers; w++ {
		d.worker(w)
	}
	d.probe()
	allDone := false
	check := func() bool { return d.done == e15Workers }
	for !allDone {
		deadline := eng.Now().Add(30 * sim.Second)
		for !check() && eng.Now() < deadline {
			eng.RunFor(sim.Millisecond)
		}
		if !check() {
			panic("exp: e15 workload did not drain (an op neither acked nor timed out)")
		}
		allDone = true
	}
	d.readback()

	rep := d.led.Report()
	rep.Recoveries = d.recovered
	bs := rig.sys.Bus.Stats()
	return e15Row{
		report:  rep,
		crashes: sc.crashes,
		puts:    d.puts,
		tmouts:  d.tmouts,
		errs:    d.errs,
		rejoins: bs.Rejoins,
		fenced:  bs.DeadSenderDropped,
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
				row.report.MaxRecovery(), row.rejoins, row.fenced)
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
