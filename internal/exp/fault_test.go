package exp

// Tests for the fault plane's two core contracts (ISSUE 1):
//
//  1. Golden determinism — the Figure-2 initialization trace is
//     byte-identical across runs with the same seed, byte-identical with
//     a disabled fault plane wired in (injection compiled-in but off),
//     and reproducible-but-different once faults are enabled with a
//     given plane seed.
//
//  2. Fault matrix — every fault op on every layer, applied to a full
//     KVS initialization, either converges via the retry layer or fails
//     with a clean typed error before a virtual-time watchdog expires.
//     No case may hang the simulation.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"nocpu/internal/core"
	"nocpu/internal/faultinject"
	"nocpu/internal/kvs"
	"nocpu/internal/sim"
)

// initTraceHash runs one decentralized Figure-2 initialization with
// tracing on and returns a hash over the full event log (timestamps,
// endpoints, kinds, details — any behavioral difference changes it).
func initTraceHash(t *testing.T, tweak func(*core.Options)) string {
	t.Helper()
	dur, sys := measureInit(kindDecentralized, tweak)
	if dur <= 0 {
		t.Fatal("non-positive init latency")
	}
	if sys.Tracer.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	h := sha256.New()
	for _, e := range sys.Tracer.Events() {
		fmt.Fprintln(h, e.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenFigure2Trace(t *testing.T) {
	base := initTraceHash(t, nil)
	if again := initTraceHash(t, nil); again != base {
		t.Errorf("same-seed reruns differ: %s vs %s", base, again)
	}

	// A plane with no rules must be a pass-through: it draws no
	// randomness and schedules nothing, so the trace stays bit-identical
	// to a run without injection.
	disabled := initTraceHash(t, func(o *core.Options) {
		o.FaultPlane = faultinject.New(99)
	})
	if disabled != base {
		t.Errorf("disabled fault plane perturbed the trace: %s vs %s", disabled, base)
	}

	// Enabled faults: same plane seed reproduces the exact same faulty
	// trace; a different plane seed makes different drop decisions and
	// therefore a different trace. Both still converge (retry layer).
	faulty := func(seed uint64) string {
		return initTraceHash(t, func(o *core.Options) {
			o.FaultPlane = faultinject.New(seed).
				Add(faultinject.Rule{Layer: faultinject.LayerBus, Op: faultinject.Drop, Prob: 0.25})
		})
	}
	a1, a2, b := faulty(7), faulty(7), faulty(8)
	if a1 != a2 {
		t.Errorf("same fault seed not reproducible: %s vs %s", a1, a2)
	}
	if a1 == base {
		t.Error("25%% bus drop left the trace unchanged (plane not wired in?)")
	}
	if b == a1 {
		t.Error("different fault seeds produced identical faulty traces")
	}
}

// matrixOutcome is one fault-matrix trial's result.
type matrixOutcome struct {
	ready bool
	err   error
	span  sim.Duration
}

// matrixInit runs one decentralized KVS initialization under the given
// plane (heartbeats/watchdog on, so crash cases can be detected and the
// device reset). schedule, if non-nil, installs time-triggered faults
// after boot. The virtual watchdog bound is 500ms — far beyond the retry
// budget (~70ms) — after which the case counts as hung.
func matrixInit(t *testing.T, plane *faultinject.Plane, schedule func(sys *core.System, start sim.Time)) matrixOutcome {
	t.Helper()
	sys := core.MustNew(core.Options{
		Flavor: core.Decentralized, Seed: 17, NoTrace: true,
		FaultPlane: plane, Watchdog: 500 * sim.Microsecond,
	})
	if err := sys.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		t.Fatalf("create: %v", err)
	}
	store := kvs.New(kvs.Config{App: 1, FileName: "kv.dat", QueueEntries: 64, Control: core.ControlID})
	out := matrixOutcome{}
	done := false
	store.OnReady = func(err error) {
		if done {
			return
		}
		done, out.ready, out.err = true, err == nil, err
	}
	start := sys.Eng.Now()
	if schedule != nil {
		schedule(sys, start)
	}
	sys.NIC().AddApp(store)
	deadline := start.Add(500 * sim.Millisecond)
	for !done && sys.Eng.Now() < deadline {
		sys.Eng.RunFor(50 * sim.Microsecond)
	}
	out.span = sys.Eng.Now().Sub(start)
	if !done {
		t.Fatalf("hung: init neither completed nor failed within %v of virtual time", 500*sim.Millisecond)
	}
	return out
}

func TestFaultMatrix(t *testing.T) {
	type tc struct {
		name     string
		rule     faultinject.Rule
		crashAt  sim.Duration // kill the SSD this long after app load (0 = no crash)
		mustPass bool         // true: only success is acceptable
	}
	cases := []tc{
		{name: "drop/bus", mustPass: true,
			rule: faultinject.Rule{Layer: faultinject.LayerBus, Op: faultinject.Drop, Prob: 0.25}},
		{name: "delay/bus", mustPass: true,
			rule: faultinject.Rule{Layer: faultinject.LayerBus, Op: faultinject.Delay, Prob: 0.5, Delay: 200 * sim.Microsecond}},
		{name: "dup/bus", mustPass: true,
			rule: faultinject.Rule{Layer: faultinject.LayerBus, Op: faultinject.Dup, Prob: 0.5}},
		{name: "reorder/bus", mustPass: true,
			rule: faultinject.Rule{Layer: faultinject.LayerBus, Op: faultinject.Reorder, Prob: 0.3, Delay: 300 * sim.Microsecond}},
		{name: "drop/link",
			rule: faultinject.Rule{Layer: faultinject.LayerLink, Op: faultinject.Drop, Prob: 0.05}},
		{name: "delay/link", mustPass: true,
			rule: faultinject.Rule{Layer: faultinject.LayerLink, Op: faultinject.Delay, Prob: 0.5, Delay: 50 * sim.Microsecond}},
		{name: "dup/link", mustPass: true,
			rule: faultinject.Rule{Layer: faultinject.LayerLink, Op: faultinject.Dup, Prob: 0.25}},
		{name: "reorder/link", mustPass: true,
			rule: faultinject.Rule{Layer: faultinject.LayerLink, Op: faultinject.Reorder, Prob: 0.3, Delay: 100 * sim.Microsecond}},
		// Crash-restart: the SSD dies mid-sequence; heartbeats stop, the
		// bus watchdog resets it, and the open/connect retries either land
		// on the rebooted device or exhaust their budget with a typed
		// error. Two crash points cover the bus-visible control phase and
		// the link-heavy recovery/connect phase.
		{name: "crash-restart/control-phase", crashAt: 20 * sim.Microsecond},
		{name: "crash-restart/data-phase", crashAt: 60 * sim.Microsecond},
	}
	for i, c := range cases {
		c := c
		i := i
		t.Run(c.name, func(t *testing.T) {
			plane := faultinject.New(0xFA0 + uint64(i))
			var schedule func(sys *core.System, start sim.Time)
			if c.crashAt > 0 {
				schedule = func(sys *core.System, start sim.Time) {
					sys.Eng.At(start.Add(c.crashAt), func() { sys.SSD().Kill() })
				}
			} else {
				plane.Add(c.rule)
			}
			out := matrixInit(t, plane, schedule)
			switch {
			case out.ready:
				t.Logf("converged in %v (plane: %+v)", out.span, plane.Stats())
			case out.err != nil:
				if c.mustPass {
					t.Fatalf("expected convergence via retry, got failure: %v", out.err)
				}
				t.Logf("failed typed in %v: %v", out.span, out.err)
			}
		})
	}
}
