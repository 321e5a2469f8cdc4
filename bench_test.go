package nocpu

// Benchmarks of the six experiment scenarios no per-package benchmark or
// bench/ workload measures: E1, E2, E3, E8, E9 and E10 (EXPERIMENTS.md).
// Each drives its experiment's scenario at reduced scale and reports the
// *virtual-time* cost of the measured operation as "vns/op" (virtual
// nanoseconds); wall-clock ns/op additionally reflects simulator speed.
// Full tables: `go run ./cmd/nocpu-bench`.

import (
	"fmt"
	"testing"

	"nocpu/internal/bus"
	"nocpu/internal/core"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// benchRig is a booted machine with one ready KVS app and helpers to run
// operations to completion.
type benchRig struct {
	sys    *core.System
	store  *kvs.Store
	nextID msg.AppID
}

func newBenchRig(b *testing.B, opts core.Options, kvsOpts core.KVSOptions) *benchRig {
	b.Helper()
	opts.NoTrace = true
	sys, err := core.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		b.Fatal(err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		b.Fatal(err)
	}
	if sys.CPU != nil {
		sys.CPU.RegisterFile("kv.dat", core.FirstSSD)
	}
	if kvsOpts.File == "" {
		kvsOpts.File = "kv.dat"
	}
	if kvsOpts.App == 0 {
		kvsOpts.App = 1
	}
	store := sys.NewKVS(kvsOpts)
	if err := sys.WaitReady(store); err != nil {
		b.Fatal(err)
	}
	return &benchRig{sys: sys, store: store, nextID: kvsOpts.App + 1}
}

// op runs one KVS request to completion and returns the response status.
func (r *benchRig) op(b *testing.B, req kvs.Request) kvs.Status {
	b.Helper()
	var status kvs.Status
	done := false
	r.sys.NIC().Deliver(r.store.AppID(), kvs.EncodeRequest(req), func(bb []byte) {
		resp, err := kvs.DecodeResponse(bb)
		if err != nil {
			b.Fatal(err)
		}
		status = resp.Status
		done = true
	})
	// Step event by event for exact virtual-time accounting (RunFor would
	// quantize the clock to the polling interval).
	for !done && r.sys.Eng.Step() {
	}
	if !done {
		b.Fatal("op did not complete")
	}
	return status
}

// reportVirtual reports virtual time per iteration.
func reportVirtual(b *testing.B, start sim.Time, sys *core.System) {
	b.ReportMetric(float64(sys.Eng.Now().Sub(start))/float64(b.N), "vns/op")
}

// runInitIterations measures b.N application initializations, refreshing
// the machine every refreshEvery iterations (outside the timer) so
// per-app state — IOMMU contexts, shared regions — cannot exhaust
// simulated memory at large b.N.
func runInitIterations(b *testing.B, opts core.Options, mode kvs.Mode, refreshEvery int) {
	var sys *core.System
	var nextID msg.AppID
	rebuild := func() {
		s, err := core.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Boot(); err != nil {
			b.Fatal(err)
		}
		if err := s.CreateFile("kv.dat", nil); err != nil {
			b.Fatal(err)
		}
		if s.CPU != nil {
			s.CPU.RegisterFile("kv.dat", core.FirstSSD)
		}
		sys, nextID = s, 1
	}
	rebuild()
	var vns sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%refreshEvery == 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		cfg := kvs.Config{App: nextID, FileName: "kv.dat", QueueEntries: 32, Mode: mode}
		if mode == kvs.ModeDecentralized {
			cfg.Memctrl = core.ControlID
		} else {
			cfg.Kernel = core.ControlID
		}
		nextID++
		st := kvs.New(cfg)
		ready := false
		st.OnReady = func(err error) {
			if err != nil {
				b.Fatal(err)
			}
			ready = true
		}
		t0 := sys.Eng.Now()
		sys.NIC().AddApp(st)
		for !ready && sys.Eng.Step() {
		}
		if !ready {
			b.Fatal("init did not complete")
		}
		vns += sys.Eng.Now().Sub(t0)
	}
	b.ReportMetric(float64(vns)/float64(b.N), "vns/op")
}

// BenchmarkE1InitSequence measures one full Figure-2 application
// initialization (discover → open → alloc → grant → connect → ready).
func BenchmarkE1InitSequence(b *testing.B) {
	for _, flavor := range []core.Flavor{core.Decentralized, core.Centralized} {
		b.Run(flavor.String(), func(b *testing.B) {
			opts := core.Options{Flavor: flavor, Seed: 1, NoTrace: true}
			mode := kvs.ModeDecentralized
			if flavor == core.Centralized {
				mode = kvs.ModeCentralDirect
			}
			runInitIterations(b, opts, mode, 100)
		})
	}
}

// BenchmarkE2Dataplane measures one KVS get end to end (network edge to
// network edge) per data-plane configuration.
func BenchmarkE2Dataplane(b *testing.B) {
	cases := []struct {
		name     string
		flavor   core.Flavor
		mediated bool
	}{
		{"p2p-decentralized", core.Decentralized, false},
		{"kernel-mediated", core.Centralized, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rig := newBenchRig(b, core.Options{Flavor: c.flavor, Seed: 2},
				core.KVSOptions{QueueEntries: 128, Mediated: c.mediated})
			rig.op(b, kvs.Request{Op: kvs.OpPut, Key: "k", Value: make([]byte, 512)})
			b.ResetTimer()
			start := rig.sys.Eng.Now()
			for i := 0; i < b.N; i++ {
				if s := rig.op(b, kvs.Request{Op: kvs.OpGet, Key: "k"}); s != kvs.StatusOK {
					b.Fatalf("get status %d", s)
				}
			}
			reportVirtual(b, start, rig.sys)
		})
	}
}

// BenchmarkE3SetupScalability measures the makespan of 16 concurrent app
// initializations (fresh machine every few iterations, outside the
// timer).
func BenchmarkE3SetupScalability(b *testing.B) {
	for _, flavor := range []core.Flavor{core.Decentralized, core.Centralized} {
		b.Run(flavor.String(), func(b *testing.B) {
			opts := core.Options{Flavor: flavor, Seed: 3, NoTrace: true}
			var sys *core.System
			var nextID msg.AppID
			rebuild := func() {
				s, err := core.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Boot(); err != nil {
					b.Fatal(err)
				}
				if err := s.CreateFile("kv.dat", nil); err != nil {
					b.Fatal(err)
				}
				if s.CPU != nil {
					s.CPU.RegisterFile("kv.dat", core.FirstSSD)
				}
				sys, nextID = s, 1
			}
			rebuild()
			var vns sim.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%6 == 0 {
					b.StopTimer()
					rebuild()
					b.StartTimer()
				}
				const batch = 16
				ready := 0
				t0 := sys.Eng.Now()
				for j := 0; j < batch; j++ {
					cfg := kvs.Config{App: nextID, FileName: "kv.dat", QueueEntries: 16}
					if flavor == core.Centralized {
						cfg.Mode, cfg.Kernel = kvs.ModeCentralDirect, core.ControlID
					} else {
						cfg.Memctrl = core.ControlID
					}
					nextID++
					st := kvs.New(cfg)
					st.OnReady = func(err error) {
						if err != nil {
							b.Fatal(err)
						}
						ready++
					}
					sys.NIC().AddApp(st)
				}
				for ready < batch && sys.Eng.Step() {
				}
				if ready < batch {
					b.Fatal("setup batch incomplete")
				}
				vns += sys.Eng.Now().Sub(t0)
			}
			b.ReportMetric(float64(vns)/float64(b.N), "vns/op")
		})
	}
}

// pairApp performs alloc/free pairs on demand (E8's measured operation).
type pairApp struct {
	id msg.AppID
	rt *smartnic.Runtime
}

func (a *pairApp) AppID() msg.AppID                          { return a.id }
func (a *pairApp) Boot(rt *smartnic.Runtime)                 { a.rt = rt }
func (a *pairApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *pairApp) PeerFailed(msg.DeviceID)                   {}
func (a *pairApp) pair(bytes uint64, done func(error)) {
	a.rt.AllocShared(core.ControlID, bytes, func(va uint64, err error) {
		if err != nil {
			done(err)
			return
		}
		a.rt.Free(core.ControlID, va, bytes, done)
	})
}

// BenchmarkE8MemoryOps measures one 64 KiB alloc+free pair through each
// control plane.
func BenchmarkE8MemoryOps(b *testing.B) {
	for _, flavor := range []core.Flavor{core.Decentralized, core.Centralized} {
		b.Run(flavor.String(), func(b *testing.B) {
			sys := core.MustNew(core.Options{Flavor: flavor, Seed: 8, NoTrace: true})
			if err := sys.Boot(); err != nil {
				b.Fatal(err)
			}
			app := &pairApp{id: 1}
			sys.NIC().AddApp(app)
			sys.Eng.RunFor(sim.Millisecond)
			if app.rt == nil {
				b.Fatal("app not booted")
			}
			b.ResetTimer()
			start := sys.Eng.Now()
			for i := 0; i < b.N; i++ {
				done := false
				app.pair(64<<10, func(err error) {
					if err != nil {
						b.Fatal(err)
					}
					done = true
				})
				for !done {
					sys.Eng.RunFor(10 * sim.Microsecond)
				}
			}
			b.ReportMetric(float64(sys.Eng.Now().Sub(start))/float64(b.N), "vns/op")
		})
	}
}

// BenchmarkE9Doorbell measures gets with and without doorbell batching.
func BenchmarkE9Doorbell(b *testing.B) {
	for _, batch := range []int{1, 4} {
		b.Run(fmt.Sprintf("kick-%d", batch), func(b *testing.B) {
			opts := core.Options{Flavor: core.Decentralized, Seed: 9}
			opts.SSD.NotifyBatch = batch
			rig := newBenchRig(b, opts, core.KVSOptions{QueueEntries: 128})
			rig.op(b, kvs.Request{Op: kvs.OpPut, Key: "k", Value: make([]byte, 512)})
			b.ResetTimer()
			start := rig.sys.Eng.Now()
			for i := 0; i < b.N; i++ {
				rig.op(b, kvs.Request{Op: kvs.OpGet, Key: "k"})
			}
			reportVirtual(b, start, rig.sys)
		})
	}
}

// BenchmarkE10BusSensitivity measures app initialization across bus hop
// latencies (data-plane gets are covered by E2).
func BenchmarkE10BusSensitivity(b *testing.B) {
	for _, hop := range []sim.Duration{1 * sim.Microsecond, 100 * sim.Microsecond} {
		b.Run(hop.String(), func(b *testing.B) {
			opts := core.Options{Flavor: core.Decentralized, Seed: 10, NoTrace: true}
			opts.Bus = bus.DefaultConfig
			opts.Bus.HopLatency = hop
			runInitIterations(b, opts, kvs.ModeDecentralized, 100)
		})
	}
}
