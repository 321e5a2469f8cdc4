package main

import "math"

// metricDef declares one metric. Bound is set for end-to-end metrics
// only: the share of the parent's median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Exact marks a simulated statistic: with one seed it must repeat
	// to the last digit, whatever the host does.
	Exact bool
}

// endToEnd is what someone who runs campaigns pays (host) and what they
// must never lose (simulated). BENCHMARK.json repeats this table and
// the smoke test holds the two together.
//
// The bounds on simulated metrics are not measurement noise: one seed
// repeats exactly. They are how far the metric moves from one seed to
// another, which is what the driver's ten-seed spread sees.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_wall_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.24},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "virt_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.03, Exact: true},
	{Name: "virt_p50_us", Unit: "us", Better: "lower", Bound: 0.03, Exact: true},
	{Name: "virt_p99_us", Unit: "us", Better: "lower", Bound: 0.1, Exact: true},
	{Name: "virt_p999_us", Unit: "us", Better: "lower", Bound: 0.24, Exact: true},
}

// sample returns one repetition's value of each end-to-end metric.
func (r *repResult) sample() map[string]float64 {
	ops := float64(r.Attempted)
	return map[string]float64{
		"setup_s":            r.SetupS,
		"ops_per_wall_s":     ops / r.WallS,
		"cpu_us_per_op":      r.CPUS * 1e6 / ops,
		"allocs_per_op":      float64(r.Mallocs) / ops,
		"alloc_bytes_per_op": float64(r.AllocBytes) / ops,
		"live_heap_mb":       r.LiveHeapMB,
		"virt_ops_per_s":     ops / (float64(r.VirtSpanNs) / 1e9),
		"virt_p50_us":        float64(percentile(r.latencies, 0.50)) / 1e3,
		"virt_p99_us":        float64(percentile(r.latencies, 0.99)) / 1e3,
		"virt_p999_us":       float64(percentile(r.latencies, 0.999)) / 1e3,
	}
}

// layerDef declares one per-layer metric.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

// estLayers are the layers whose share of an op's CPU time is estimated
// from outside: probe cost per call times calls per op.
var estLayers = []string{"sim", "msg", "iommu", "interconnect", "smartssd", "kvs", "fabric"}

// perLayer lists every per-layer metric in the order it is printed.
// Three sources: counters (exact, read from public Stats() after the
// traced repetition), probes (isolated loops over a layer's public
// functions) and spans (host time the traced repetition recorded).
var perLayer = func() []layerDef {
	d := []layerDef{
		{"sim.events_per_op", "count", "lower"},
		{"sim.events_per_wall_s", "1/s", "higher"},
		{"sim.run_self_share", "ratio", "lower"},
		{"iommu.translations_per_op", "count", "lower"},
		{"iommu.tlb_hit_share", "ratio", "higher"},
		{"iommu.walk_reads_per_op", "count", "lower"},
		{"iommu.faults", "count", "lower"},
		{"interconnect.dmas_per_op", "count", "lower"},
		{"interconnect.dma_bytes_per_op", "B", "lower"},
		{"interconnect.doorbells_per_op", "count", "lower"},
		{"interconnect.dma_wait_share", "ratio", "lower"},
		{"bus.messages_per_op", "count", "lower"},
		{"bus.deliveries_per_op", "count", "lower"},
		{"bus.pages_mapped_per_op", "count", "lower"},
		{"bus.grants_per_op", "count", "lower"},
		{"bus.credit_stalls", "count", "lower"},
		{"smartnic.rx_queue_max", "count", "lower"},
		{"smartnic.retries", "count", "lower"},
		{"smartssd.ftl_host_writes_per_op", "count", "lower"},
		{"smartssd.ftl_host_reads_per_op", "count", "lower"},
		{"smartssd.ftl_write_amp", "ratio", "lower"},
		{"smartssd.gc_runs", "count", "lower"},
		{"kvs.gets_per_op", "count", "lower"},
		{"kvs.puts_per_op", "count", "lower"},
		{"kvs.cache_hit_share", "ratio", "higher"},
		{"kvs.io_errors", "count", "lower"},
		{"kvs.shed", "count", "lower"},
		{"fabric.remote_share", "ratio", "lower"},
		{"fabric.head_relayed_per_op", "count", "lower"},
		{"fabric.applies_per_op", "count", "lower"},
		{"fabric.net_frames_per_op", "count", "lower"},
		{"fabric.net_bytes_per_op", "B", "lower"},
		{"fabric.lease_msgs_per_op", "count", "lower"},
		{"fabric.timeouts", "count", "lower"},
		{"fabric.new_s", "s", "lower"},
		{"fabric.boot_s", "s", "lower"},
		{"fabric.preload_s", "s", "lower"},
		{"linearize.check_s", "s", "lower"},
		{"linearize.checked_ops_per_s", "1/s", "higher"},
		{"linearize.optional_ops", "count", "lower"},
		{"linearize.aborted_keys", "count", "lower"},
		{"bench.client_self_share", "ratio", "lower"},
		{"bench.trace_overhead_share", "ratio", "lower"},
		{"bench.rep_spread", "ratio", "lower"},
	}
	for _, p := range probes {
		d = append(d, layerDef{p.Name + "_ns", "ns", "lower"})
		if p.Allocs != "" {
			d = append(d, layerDef{p.Allocs, "count", "lower"})
		}
		if p.Bytes != "" {
			d = append(d, layerDef{p.Bytes, "B", "lower"})
		}
	}
	for _, l := range estLayers {
		d = append(d, layerDef{l + ".est_share", "ratio", "lower"})
	}
	return append(d, layerDef{"bench.unattributed_share", "ratio", "lower"})
}()

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics derives the counter and span metrics of one workload
// from its traced repetition tr, that repetition's span totals, and the
// untraced repetitions reps.
func layerMetrics(tr *repResult, spans []spanTotal, reps []*repResult) map[string]float64 {
	c, ops := tr.delta, uint64(tr.Attempted)
	per := func(name string) float64 { return ratio(c[name], ops) }
	m := map[string]float64{
		"sim.events_per_op": per("sim.Executed"),

		"iommu.translations_per_op": per("iommu.Translations"),
		"iommu.tlb_hit_share":       ratio(c["iommu.TLBHits"], c["iommu.TLBHits"]+c["iommu.TLBMisses"]),
		"iommu.walk_reads_per_op":   per("iommu.WalkReads"),
		"iommu.faults":              float64(c["iommu.Faults"]),

		"interconnect.dmas_per_op":      per("interconnect.DMAs"),
		"interconnect.dma_bytes_per_op": per("interconnect.BytesMoved"),
		"interconnect.doorbells_per_op": per("interconnect.Doorbells"),
		"interconnect.dma_wait_share":   ratio(c["interconnect.TotalWaitTime"], c["interconnect.TotalDMATime"]),

		"bus.messages_per_op":     per("bus.Messages"),
		"bus.deliveries_per_op":   per("bus.Deliveries"),
		"bus.pages_mapped_per_op": per("bus.PagesMapped"),
		"bus.grants_per_op":       per("bus.GrantsOK"),
		"bus.credit_stalls":       float64(c["bus.CreditStalls"]),

		"smartnic.rx_queue_max": float64(c["smartnic.RxQueueMax"]),
		"smartnic.retries":      float64(c["smartnic.Retries"]),

		"smartssd.ftl_host_writes_per_op": per("smartssd.HostWrites"),
		"smartssd.ftl_host_reads_per_op":  per("smartssd.HostReads"),
		"smartssd.ftl_write_amp":          1 + ratio(c["smartssd.GCPagesMoved"], c["smartssd.HostWrites"]),
		"smartssd.gc_runs":                float64(c["smartssd.GCRuns"]),

		"kvs.gets_per_op":     per("kvs.Gets"),
		"kvs.puts_per_op":     per("kvs.Puts"),
		"kvs.cache_hit_share": ratio(c["kvs.CacheHits"], c["kvs.Gets"]),
		"kvs.io_errors":       float64(c["kvs.IOErrors"]),
		"kvs.shed":            float64(c["kvs.Shed"]),

		"fabric.remote_share":        ratio(c["fabric.Remote"], c["fabric.Local"]+c["fabric.Remote"]),
		"fabric.head_relayed_per_op": per("fabric.HeadRelayed"),
		"fabric.applies_per_op":      per("fabric.Applies"),
		"fabric.net_frames_per_op":   per("fabric.net.Frames"),
		"fabric.net_bytes_per_op":    per("fabric.net.Bytes"),
		// Every countersign answers one renewal frame.
		"fabric.lease_msgs_per_op": ratio(2*c["fabric.LeaseGrants"]+c["fabric.LeaseRevokes"], ops),
		"fabric.timeouts":          float64(c["fabric.Timeouts"]),

		"fabric.new_s":     tr.NewS,
		"fabric.boot_s":    tr.BootS,
		"fabric.preload_s": tr.PreloadS,

		"linearize.check_s":           tr.CheckS,
		"linearize.optional_ops":      float64(tr.OptionalOps),
		"linearize.aborted_keys":      float64(tr.Aborted),
		"linearize.checked_ops_per_s": 0,
	}
	if tr.CheckS > 0 {
		m["linearize.checked_ops_per_s"] = float64(tr.CheckedOps) / tr.CheckS
	}

	// Spans: the engine's self time is what the program spent, the
	// client's is what the benchmark spent generating and checking.
	by := map[string]spanTotal{}
	for _, st := range spans {
		by[st.Name] = st
	}
	m["sim.run_self_share"] = by["engine.run"].SelfS / tr.WallS
	m["bench.client_self_share"] = (by["client.build"].TotalS + by["client.reply"].TotalS) / tr.WallS

	var rates, walls []float64
	for _, r := range reps {
		rates = append(rates, float64(r.Attempted)/r.WallS)
		walls = append(walls, r.WallS)
	}
	m["sim.events_per_wall_s"] = m["sim.events_per_op"] * median(rates)
	m["bench.trace_overhead_share"] = tr.WallS/median(walls) - 1
	m["bench.rep_spread"] = spread(rates)
	return m
}

// estShares turns probe costs and per-op call counts into each layer's
// estimated share of an op's CPU time, plus the remainder no probe
// explains. A probe's cost includes the engine events it schedules, so
// those are taken out of it (and stay in the sim share) before it is
// multiplied up; without that the shares would overlap.
func estShares(m map[string]float64, p map[string]probeResult, cpuUsPerOp float64) {
	dispatch := p["sim.probe.schedule_dispatch"].Ns
	own := func(name string) float64 {
		r := p[name]
		return math.Max(0, r.Ns-r.Events*dispatch)
	}
	hit := m["iommu.tlb_hit_share"]
	gets, puts := m["kvs.gets_per_op"], m["kvs.puts_per_op"]
	cached := gets * m["kvs.cache_hit_share"]
	ns := map[string]float64{
		"sim": dispatch * m["sim.events_per_op"],
		"msg": (own("msg.probe.encode_fabric_req")+own("msg.probe.decode_fabric_req"))*m["fabric.net_frames_per_op"] +
			2*own("msg.probe.encode_alloc_req")*m["bus.messages_per_op"],
		"iommu": m["iommu.translations_per_op"]*(hit*own("iommu.probe.translate_hit")+(1-hit)*own("iommu.probe.translate_miss_walk")) +
			m["bus.pages_mapped_per_op"]*own("iommu.probe.map_unmap"),
		"interconnect": m["interconnect.dmas_per_op"] * own("interconnect.probe.port_write_read_64b") / 2,
		"smartssd":     puts*own("smartssd.probe.fs_write_64b") + (gets-cached)*own("smartssd.probe.fs_read_64b"),
		"kvs":          cached*own("kvs.probe.serve_get_cached") + (gets+puts)*own("kvs.probe.codec"),
		"fabric": m["fabric.net_frames_per_op"]*own("fabric.probe.network_send") +
			(m["kvs.gets_per_op"]+m["kvs.puts_per_op"])*own("fabric.probe.ring_owners"),
	}
	rest := 1.0
	for _, l := range estLayers {
		s := ns[l] / (cpuUsPerOp * 1e3)
		m[l+".est_share"] = s
		rest -= s
	}
	m["bench.unattributed_share"] = rest
}
