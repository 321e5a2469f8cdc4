package exp

import (
	"fmt"

	"nocpu/internal/bus"
	"nocpu/internal/core"
	"nocpu/internal/iommu"
	"nocpu/internal/kvs"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/smartssd"
)

// E6IOMMUTLB ablates the device-IOMMU translation cache (§2.2 address
// translation): throughput and walk overhead vs TLB geometry.
func E6IOMMUTLB() *Result {
	res := &Result{ID: "E6", Title: "IOMMU TLB ablation"}
	tb := metrics.NewTable("closed-loop gets vs device TLB geometry",
		"TLB (sets x ways)", "ops/s", "p50", "NIC hit rate", "walk reads/op")
	configs := []struct {
		name string
		cfg  iommu.Config
	}{
		{"disabled", iommu.Disabled},
		{"4 x 2", iommu.Config{TLBSets: 4, TLBWays: 2}},
		{"64 x 4 (default)", iommu.DefaultConfig},
		{"256 x 8", iommu.Config{TLBSets: 256, TLBWays: 8}},
	}
	for _, c := range configs {
		rig := newKVSRig(kindDecentralized, 61, func(o *core.Options) {
			o.NIC.Device.IOMMU = c.cfg
			o.SSD.Device.IOMMU = c.cfg
		}, nil)
		rig.preload(256, 512)
		base := rig.sys.NIC().Device().IOMMU().Stats()
		st := rig.getLoad(16, 300, 256)
		nicStats := rig.sys.NIC().Device().IOMMU().Stats()
		lookups := float64(nicStats.TLBHits - base.TLBHits + nicStats.TLBMisses - base.TLBMisses)
		hitRate := 0.0
		if lookups > 0 {
			hitRate = 100 * float64(nicStats.TLBHits-base.TLBHits) / lookups
		}
		walksPerOp := float64(nicStats.WalkReads-base.WalkReads) / float64(st.Completed)
		tb.AddRow(c.name, fmt.Sprintf("%.0f", st.Throughput()), st.Latency.P50(),
			fmt.Sprintf("%.1f%%", hitRate), fmt.Sprintf("%.1f", walksPerOp))
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"ring/index pages are hot, so even a tiny TLB recovers most of the walk overhead")
	return res
}

// discoverProbe measures one broadcast discovery round trip.
type discoverProbe struct {
	baseApp
	query   string
	latency sim.Duration
	done    bool
	fail    bool
}

func (p *discoverProbe) Boot(rt *smartnic.Runtime) {
	start := rt.Engine().Now()
	rt.Discover(p.query, func(provider msg.DeviceID, service string, err error) {
		p.latency = rt.Engine().Now().Sub(start)
		p.done = true
		p.fail = err != nil
	})
}

// E7Discovery scales the broadcast service-discovery protocol (§2.2,
// SSDP-like) with the number of attached devices.
func E7Discovery() *Result {
	res := &Result{ID: "E7", Title: "Broadcast discovery scalability"}
	tb := metrics.NewTable("discovery round trip vs machine size (file on the last SSD)",
		"devices on bus", "discovery latency", "bus messages", "broadcast fanout")
	tiny := smartssd.Config{
		Geometry: smartssd.FlashGeometry{Channels: 1, DiesPerChan: 1, BlocksPerDie: 16, PagesPerBlock: 16, PageSize: 4096},
		FS:       smartssd.FSConfig{MaxFiles: 4},
	}
	for _, ssds := range []int{2, 8, 32, 96} {
		sys := boot(core.Options{
			Flavor: core.Decentralized, Seed: 71, NoTrace: true,
			SSD: tiny, ExtraSSDs: ssds - 1,
			MemoryBytes: 512 << 20,
		})
		// The target file lives on the LAST SSD, so every broadcast
		// traverses the full fanout before the answer.
		last := sys.SSDs[len(sys.SSDs)-1]
		created := false
		last.FS().Create("far.dat", func(_ *smartssd.File, err error) {
			if err != nil {
				panic(err)
			}
			created = true
		})
		netsim.Drive(sys.Eng, func() bool { return created })
		before := sys.Bus.Stats()
		probe := &discoverProbe{baseApp: baseApp{1}, query: "file:far.dat"}
		sys.NIC().AddApp(probe)
		for !probe.done {
			sys.Eng.RunFor(10 * sim.Microsecond)
		}
		if probe.fail {
			panic("exp: discovery failed")
		}
		after := sys.Bus.Stats()
		tb.AddRow(ssds+2, probe.latency, after.Deliveries-before.Deliveries, ssds+1)
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"latency grows with fanout because the bus serializes per-destination delivery; the paper leaves discovery arbitration open (§2.2)")
	return res
}

// E8MemoryOps measures control-plane memory-management throughput:
// alloc+free pairs per second under increasing client concurrency,
// decentralized (memctrl+bus) vs centralized (kernel mmap/munmap).
func E8MemoryOps() *Result {
	res := &Result{ID: "E8", Title: "Memory-management operation throughput"}
	tb := metrics.NewTable("alloc/free pairs (64 KiB regions), 10ms window",
		"machine", "clients", "pairs/s", "errors")
	for _, kind := range []machineKind{kindDecentralized, kindCentralDirect} {
		for _, clients := range []int{1, 4, 16} {
			sys := boot(core.Options{Flavor: kind.flavor(), Seed: 81, NoTrace: true})
			apps := make([]*noisyApp, clients)
			for i := range apps {
				apps[i] = &noisyApp{baseApp: baseApp{appID(i + 1)}, bytes: 64 << 10}
				sys.NIC().AddApp(apps[i])
			}
			const window = 10 * sim.Millisecond
			start := sys.Eng.Now()
			sys.Eng.RunFor(window)
			var pairs, errs uint64
			for _, a := range apps {
				a.stop = true
				pairs += a.pairs
				errs += a.errs
			}
			span := sys.Eng.Now().Sub(start)
			tb.AddRow(kind.label(), clients,
				fmt.Sprintf("%.0f", float64(pairs)/(float64(span)/float64(sim.Second))), errs)
		}
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"the §3 claim: a control message to bus+controller replaces the mmap syscall; compare scaling as clients grow")
	return res
}

// E9Doorbell ablates notification batching (§2.3 notifications /
// VIRTIO event suppression) on the KVS virtqueue.
func E9Doorbell() *Result {
	res := &Result{ID: "E9", Title: "Doorbell (notification) batching ablation"}
	tb := metrics.NewTable("closed-loop gets, 16 workers",
		"kick batch", "notify batch", "ops/s", "p50", "p99", "doorbells/op")
	for _, c := range []struct{ kick, notify int }{
		{1, 1}, {4, 1}, {1, 4}, {4, 4}, {16, 16},
	} {
		rig2 := buildBatchedRig(c.kick, c.notify)
		rig2.preload(256, 512)
		fabBefore := rig2.sys.Fabric.Stats()
		st := rig2.getLoad(16, 300, 256)
		fabAfter := rig2.sys.Fabric.Stats()
		bells := float64(fabAfter.Doorbells-fabBefore.Doorbells) / float64(st.Completed)
		tb.AddRow(c.kick, c.notify, fmt.Sprintf("%.0f", st.Throughput()),
			st.Latency.P50(), st.Latency.P99(), fmt.Sprintf("%.2f", bells))
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"batching trades doorbell traffic against queueing delay; the idle-flush keeps partial batches from stranding")
	return res
}

// buildBatchedRig assembles a decentralized KVS with explicit batching
// knobs on both queue halves.
func buildBatchedRig(kick, notify int) *kvsRig {
	opts := core.Options{Flavor: core.Decentralized, Seed: 91, NoTrace: true}
	opts.SSD.NotifyBatch = notify
	sys := boot(opts, "kv.dat")
	store := kvs.New(kvs.Config{
		App: 1, FileName: "kv.dat", Control: core.ControlID,
		QueueEntries: 128, KickBatch: kick,
	})
	sys.NIC().AddApp(store)
	if err := sys.WaitReady(store); err != nil {
		panic(err)
	}
	return &kvsRig{sys: sys, store: store}
}

// E11ValueCache ablates the NIC-local value cache (the KV-Direct design
// the paper cites as [30]) under a Zipf-skewed get workload: hot values
// served from NIC memory never touch the data plane at all.
func E11ValueCache() *Result {
	res := &Result{ID: "E11", Title: "NIC-side value cache ablation (KV-Direct-style extension)"}
	const keys = 1024
	tb := metrics.NewTable("closed-loop Zipf(0.99) gets over 1024 keys, 16 workers",
		"cache entries", "ops/s", "p50", "p99", "cache hit rate")
	for _, entries := range []int{0, 32, 128, 512} {
		rig := newKVSRig(kindDecentralized, 111, nil, func(ko *core.KVSOptions) { ko.CacheEntries = entries })
		rig.preload(keys, 512)
		zipf := sim.NewZipf(rig.sys.Rand.Fork(), keys, 0.99) // forked before the loop's Rand
		base := rig.store.Stats()
		st := netsim.Run(rig.sys.Eng, rig.target(), netsim.Spec{
			Workers: 16, PerWorker: 400, Keys: keySet(keyName, keys), Zipf: zipf, Rand: rig.sys.Rand.Fork(),
		})
		s := rig.store.Stats()
		hitRate := 0.0
		if gets := s.Gets - base.Gets; gets > 0 {
			hitRate = 100 * float64(s.CacheHits-base.CacheHits) / float64(gets)
		}
		tb.AddRow(entries, fmt.Sprintf("%.0f", st.Throughput()),
			st.Latency.P50(), st.Latency.P99(), fmt.Sprintf("%.1f%%", hitRate))
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"an extension beyond the paper: with skewed keys, a small NIC cache absorbs the hot set and lifts throughput past the flash bound")
	return res
}

// E10BusSensitivity sweeps the management bus's hop latency. §2.3: "The
// memory bus must have high throughput and low latency, while the system
// management bus need not." Init latency should track the bus; data-plane
// throughput should not move.
func E10BusSensitivity() *Result {
	res := &Result{ID: "E10", Title: "Management-bus speed sensitivity"}
	tb := metrics.NewTable("bus hop latency sweep (decentralized)",
		"bus hop latency", "app init", "steady-state gets/s", "get p99")
	for _, hop := range []sim.Duration{100 * sim.Nanosecond, 1 * sim.Microsecond, 10 * sim.Microsecond, 100 * sim.Microsecond} {
		tweak := func(o *core.Options) {
			o.Bus = bus.DefaultConfig
			o.Bus.HopLatency = hop
			o.NoTrace = true
		}
		init, _ := measureInit(kindDecentralized, func(o *core.Options) {
			tweak(o)
			o.NoTrace = false // measureInit builds its own tracer needs
		})
		rig := newKVSRig(kindDecentralized, 101, tweak, nil)
		rig.preload(256, 512)
		st := rig.getLoad(16, 300, 256)
		tb.AddRow(hop, init, fmt.Sprintf("%.0f", st.Throughput()), st.Latency.P99())
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"a 1000x slower control bus moves app-init latency proportionally but leaves data-plane throughput untouched — the §2.3 separation argument")
	return res
}
