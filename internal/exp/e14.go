package exp

import (
	"fmt"
	"sort"

	"nocpu/internal/core"
	"nocpu/internal/faultinject"
	"nocpu/internal/metrics"
	"nocpu/internal/sim"
)

// E14 quantifies §4's "error handling" position: a decentralized machine
// has no reliable kernel to hide transport faults behind, so every device
// and the runtime library must tolerate them directly. The reliability
// layer (bus NACKs + sequence dedup + per-request timeout/retry in
// internal/smartnic, idempotent replay in the providers) is exercised by
// dropping a fraction of all bus messages and measuring what it costs.

// e14InitResult is one initialization trial's outcome.
type e14InitResult struct {
	ok      bool
	latency sim.Duration
	retries uint64
	drops   uint64
}

// e14Init runs one Figure-2 initialization under a bus-message drop rate.
// Unlike measureInit it tolerates failure: a typed timeout from the retry
// layer counts as an unsuccessful (but clean) trial.
func e14Init(kind machineKind, rate float64, trial uint64) e14InitResult {
	plane := faultinject.New(0xE14 + trial)
	if rate > 0 {
		plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Op: faultinject.Drop, Prob: rate})
	}
	opts := core.Options{Flavor: kind.flavor(), Seed: 71 + trial, NoTrace: true, FaultPlane: plane}
	sys := core.MustNew(opts)
	if err := sys.Boot(); err != nil {
		return e14InitResult{drops: plane.Stats().Dropped}
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		panic(err)
	}
	var readyAt sim.Time = -1
	failed := false
	start := sys.Eng.Now()
	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat", QueueEntries: 128})
	store.OnReady = func(err error) {
		if err != nil {
			failed = true
			return
		}
		if readyAt < 0 {
			readyAt = sys.Eng.Now()
		}
	}
	deadline := start.Add(2 * sim.Second)
	for readyAt < 0 && !failed && sys.Eng.Now() < deadline {
		sys.Eng.RunFor(50 * sim.Microsecond)
	}
	out := e14InitResult{
		retries: sys.NIC().RetryStats().Retries,
		drops:   plane.Stats().Dropped,
	}
	if readyAt >= 0 {
		out.ok = true
		out.latency = readyAt.Sub(start)
	}
	return out
}

// E14FaultTolerance sweeps bus-message drop rates over initialization and
// steady-state KVS service for the decentralized machine and the
// centralized baselines.
func E14FaultTolerance() *Result {
	res := &Result{ID: "E14", Title: "Fault injection: init and steady-state KVS under message loss"}

	const trials = 5
	rates := []float64{0, 0.01, 0.02, 0.05, 0.10}

	init := metrics.NewTable(fmt.Sprintf("Figure-2 initialization under bus message loss (%d trials/cell)", trials),
		"machine", "drop rate", "success", "median init", "vs 0%", "retries/trial", "drops/trial")
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect} {
		base := sim.Duration(0)
		for _, rate := range rates {
			var lats []sim.Duration
			var retries, drops uint64
			okCount := 0
			for t := uint64(0); t < trials; t++ {
				r := e14Init(kind, rate, t)
				retries += r.retries
				drops += r.drops
				if r.ok {
					okCount++
					lats = append(lats, r.latency)
				}
			}
			med := sim.Duration(0)
			if len(lats) > 0 {
				sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
				med = lats[len(lats)/2]
			}
			if rate == 0 {
				base = med
			}
			vs := "-"
			if base > 0 && med > 0 {
				vs = fmt.Sprintf("%.2fx", float64(med)/float64(base))
			}
			init.AddRow(kind.label(), fmt.Sprintf("%.0f%%", rate*100),
				fmt.Sprintf("%d/%d", okCount, trials), med, vs,
				fmt.Sprintf("%.1f", float64(retries)/trials),
				fmt.Sprintf("%.1f", float64(drops)/trials))
		}
	}
	res.Tables = append(res.Tables, init)

	// Steady state: boot and preload fault-free, then switch the drop rule
	// on and serve a closed-loop get workload. The decentralized (and
	// centralized-control) data plane never crosses the bus, so bus loss
	// must cost it nothing; every kernel-mediated I/O is a pair of bus
	// messages and pays for each loss with a retransmission timeout.
	const keys = 64
	steady := metrics.NewTable("steady-state gets under bus message loss (closed loop, 4 workers x 100 ops, 128B values)",
		"machine", "drop rate", "ops", "errors", "p50", "p99", "retries")
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect, kindCentralMediated} {
		for _, rate := range []float64{0, 0.05, 0.10} {
			plane := faultinject.New(0xE14)
			rig := newKVSRig(kind, 73, func(o *core.Options) { o.FaultPlane = plane }, nil)
			rig.preload(keys, 128)
			if rate > 0 {
				plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Op: faultinject.Drop, Prob: rate})
			}
			before := rig.sys.NIC().RetryStats().Retries
			st := rig.getLoad(4, 100, keys)
			retries := rig.sys.NIC().RetryStats().Retries - before
			steady.AddRow(kind.label(), fmt.Sprintf("%.0f%%", rate*100),
				st.Completed, st.Errors(), st.Latency.P50(), st.Latency.P99(), retries)
		}
	}
	res.Tables = append(res.Tables, steady)

	res.Notes = append(res.Notes,
		"init converges via bounded exponential-backoff retransmission on every machine; added latency is retries x timeout, not failure",
		"steady state separates the architectures: P2P data planes (decentralized, centralized-control) never touch the lossy bus, kernel-mediated I/O pays a retransmission timeout per lost syscall message",
		"a trial that exhausts its retry budget fails with a typed TimeoutError — no hangs (enforced by the fault-matrix test's virtual-time watchdog)")
	return res
}
