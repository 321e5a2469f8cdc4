package exp

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/fabric"
	"nocpu/internal/faultinject"
	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// E21 is the split-brain safety experiment: a rack with epoch leases
// enabled is subjected to the failure modes crash-stop chaos (E15/E17)
// never models — asymmetric one-way link cuts, group partitions that
// HEAL, flapping links faster than the failure timeout, and fail-slow
// machines — while a mixed put/get workload records every
// invocation/response it observes into a linearize.History. Three
// verdicts per cell, all judged from OUTSIDE the fabric:
//
//	L1    — the client history is linearizable (the only audit that can
//	        prove the absence of split-brain: per-machine assertions
//	        cannot see two sides serving diverging truths)
//	split — a probe samples every key at 250µs: at most ONE machine may
//	        simultaneously hold a valid lease, claim the key, and be
//	        past its takeover fence
//	R1/R3 — no acked write lost; every key routable once the schedule
//	        ends (the fabric ledger, as in E17/E19)
//
// plus the worst no-server window (how long a key had NO machine able
// to serve it — the availability price of lease expiry, which safety
// buys). The head-cut schedule is the contrast row: partitioning one
// ordinary machine away from a decentralized rack costs a bounded
// fail-over window; partitioning the HEAD away costs the whole fleet,
// permanently — but typed (StatusFenced), never as silent divergence.

const (
	e21N       = 8
	e21Workers = 4
	e21Keys    = 8 // shared pool: workers collide on keys, so the
	// history has genuine cross-client concurrency for the checker
	e21Window  = 45 * sim.Millisecond
	e21Timeout = 10 * sim.Millisecond
	e21Backoff = 200 * sim.Microsecond
	e21Probe   = 250 * sim.Microsecond

	e21FaultAt = 5 * sim.Millisecond  // after workload start
	e21HealAt  = 25 * sim.Millisecond // partition schedules heal here
	e21SlowFor = 25 * sim.Millisecond // fail-slow degradation window

	e21FlapUp     = 1 * sim.Millisecond // cut shorter than FailTimeout:
	e21FlapPeriod = 3 * sim.Millisecond // a gray failure, not a death
	e21FlapCycles = 6

	e21SlowFactor = 20
)

func e21Key(i int) string { return fmt.Sprintf("e21-%03d", i) }

// e21Cell is one fault schedule, applied relative to workload start.
type e21Cell struct {
	name  string
	apply func(p *faultinject.Plane, t0 sim.Time)
}

// e21Cells returns the schedule matrix. Machines 7/8 are the victims
// everywhere except the head-cut row, which targets machine 1 — the
// head under FlavorHead, an ordinary machine under the decentralized
// flavor: the same schedule, so the two rows differ only in what the
// architecture makes of losing that one machine.
func e21Cells() []e21Cell {
	rest := []msg.DeviceID{2, 3, 4, 5, 6, 7, 8}
	return []e21Cell{
		{"one-way cut 7→8", func(p *faultinject.Plane, t0 sim.Time) {
			p.PartitionOneWay(7, 8, t0.Add(e21FaultAt), t0.Add(e21HealAt))
		}},
		{"6/2 partition", func(p *faultinject.Plane, t0 sim.Time) {
			p.Partition([]msg.DeviceID{1, 2, 3, 4, 5, 6}, []msg.DeviceID{7, 8},
				t0.Add(e21FaultAt), t0.Add(e21HealAt))
		}},
		{"flapping link", func(p *faultinject.Plane, t0 sim.Time) {
			p.Flap([]msg.DeviceID{7}, []msg.DeviceID{1, 2, 3, 4, 5, 6, 8},
				t0.Add(e21FaultAt), e21FlapUp, e21FlapPeriod, e21FlapCycles)
		}},
		{"fail-slow ×20", func(p *faultinject.Plane, t0 sim.Time) {
			p.SlowMachine(7, e21SlowFactor, t0.Add(e21FaultAt), t0.Add(e21FaultAt+e21SlowFor))
		}},
		{"head cut away", func(p *faultinject.Plane, t0 sim.Time) {
			p.Partition([]msg.DeviceID{1}, rest, t0.Add(e21FaultAt), t0.Add(e21HealAt))
		}},
	}
}

// e21Driver runs the recorded workload: each worker alternates puts
// and gets over the shared key pool, maps every fabric response onto
// the checker's outcome vocabulary, and leaves timed-out operations
// Pending (they may have executed — the checker carries them as
// ambiguous writes).
type e21Driver struct {
	cl   *fabric.Cluster
	led  *fabric.Ledger
	hist *linearize.History

	start   sim.Time
	stopAt  sim.Time
	nextVal uint64
	rr      int
	done    int

	puts, gets uint64
	fenced     uint64 // typed refusals observed by clients
	tmouts     uint64
	maybes     uint64 // ambiguous failures (error/unavailable/garbled)

	// Split-brain probe state.
	keys      []string
	splits    int // samples with >1 unfenced lease-holding primary
	zeroRun   int
	worstZero int // longest consecutive no-server run, in samples
}

func (d *e21Driver) ingress() msg.DeviceID {
	ids := d.cl.ServingIDs()
	if len(ids) == 0 {
		ids = d.cl.LiveIDs()
	}
	d.rr++
	return ids[d.rr%len(ids)]
}

// classify maps a fabric response onto the linearize outcome
// vocabulary. Typed refusals (shed, fenced, denied) contractually did
// not execute; anything ambiguous may have.
func (d *e21Driver) classify(resp kvs.Response, err error, isGet bool) (linearize.Outcome, uint64) {
	if err != nil {
		d.maybes++
		return linearize.Maybe, 0
	}
	switch resp.Status {
	case kvs.StatusOK:
		if isGet {
			if len(resp.Value) != 8 {
				d.maybes++
				return linearize.Maybe, 0
			}
			return linearize.OK, binary.LittleEndian.Uint64(resp.Value)
		}
		return linearize.OK, 0
	case kvs.StatusNotFound:
		return linearize.NotFound, 0
	case kvs.StatusShed, kvs.StatusDenied, kvs.StatusFenced:
		d.fenced++
		return linearize.Fail, 0
	default: // StatusError, StatusUnavailable
		d.maybes++
		return linearize.Maybe, 0
	}
}

func (d *e21Driver) worker(w int) {
	eng := d.cl.Eng
	keyIdx := w * 2 // offset the workers so collisions interleave
	doPut := w%2 == 0
	var issue func()
	issue = func() {
		if eng.Now() >= d.stopAt {
			d.done++
			return
		}
		key := d.keys[keyIdx%len(d.keys)]
		keyIdx++
		isGet := !doPut
		doPut = !doPut

		var req []byte
		var hid int
		if isGet {
			d.gets++
			hid = d.hist.Invoke(linearize.Get, key, 0, eng.Now())
			req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
		} else {
			d.nextVal++
			val := d.nextVal
			d.puts++
			d.led.NoteAttempt(key, val)
			hid = d.hist.Invoke(linearize.Put, key, val, eng.Now())
			req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: e15Value(val)})
		}

		val := d.nextVal
		resolved, returned := false, false
		var tm *sim.Timer
		d.cl.Ingress(d.ingress())(req, func(b []byte) {
			resp, err := kvs.DecodeResponse(b)
			// The history records the FIRST response even if it arrives
			// after the client-side timeout fired: the client still
			// observed it, so the checker must account for it.
			if !returned {
				returned = true
				out, ret := d.classify(resp, err, isGet)
				d.hist.Return(hid, out, ret, eng.Now())
				if !isGet && out == linearize.OK {
					d.led.NoteAck(key, val)
				}
			}
			if resolved {
				return
			}
			resolved = true
			if tm != nil {
				tm.Stop()
			}
			if err == nil && (resp.Status == kvs.StatusOK || resp.Status == kvs.StatusNotFound) {
				issue()
				return
			}
			eng.Schedule(e21Backoff, issue)
		})
		tm = eng.After(e21Timeout, func() {
			if resolved {
				return
			}
			resolved = true
			d.tmouts++ // stays Pending in the history: an ambiguous write
			issue()
		})
	}
	issue()
}

// sample is the split-brain probe: for each key, count the machines
// that would serve it RIGHT NOW as primary — valid lease, own-view
// ownership, takeover fence lifted. More than one is split-brain; zero
// is the (bounded) unavailability lease expiry costs.
func (d *e21Driver) sample() {
	zero := false
	for _, key := range d.keys {
		servers := 0
		for _, id := range d.cl.LiveIDs() {
			r := d.cl.Machine(id).Router
			if r.LeaseValid() && r.PrimaryFor(key) && !r.KeyFenced(key) {
				servers++
			}
		}
		if servers > 1 {
			d.splits++
		}
		if servers == 0 {
			zero = true
		}
	}
	if zero {
		d.zeroRun++
		if d.zeroRun > d.worstZero {
			d.worstZero = d.zeroRun
		}
	} else {
		d.zeroRun = 0
	}
}

func (d *e21Driver) armProbe() {
	d.cl.Eng.Schedule(e21Probe, func() {
		if d.cl.Eng.Now() >= d.stopAt {
			return
		}
		d.sample()
		d.armProbe()
	})
}

// readback is the R3 sweep after the schedule ends (e19's, verbatim
// semantics: a key with no definitive answer is unroutable).
func (d *e21Driver) readback() {
	eng := d.cl.Eng
	for _, key := range d.led.Keys() {
		settled := false
		for attempt := 0; attempt < 40 && !settled; attempt++ {
			var resp kvs.Response
			got := false
			req := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
			d.cl.Ingress(d.ingress())(req, func(b []byte) {
				if r, err := kvs.DecodeResponse(b); err == nil {
					resp, got = r, true
				}
			})
			lim := eng.Now().Add(20 * sim.Millisecond)
			for !got && eng.Now() < lim {
				eng.RunFor(100 * sim.Microsecond)
			}
			if got && resp.Status == kvs.StatusOK && len(resp.Value) == 8 {
				d.led.NoteRead(key, binary.LittleEndian.Uint64(resp.Value), true)
				settled = true
			} else if got && resp.Status == kvs.StatusNotFound {
				d.led.NoteRead(key, 0, false)
				settled = true
			} else {
				eng.RunFor(500 * sim.Microsecond)
			}
		}
		if !settled {
			d.led.NoteUnroutable(key)
		}
	}
}

// e21Row is one cell's outcome.
type e21Row struct {
	cell   string
	flavor fabric.Flavor

	puts, gets uint64
	acked      uint64
	fenced     uint64
	tmouts     uint64
	maybes     uint64

	lin       linearize.Result
	splits    int
	worstZero sim.Duration
	rep       fabric.Report
	st        fabric.RouterStats
	maxEpoch  uint32
	leasedEnd int
}

// e21Run executes one cell: N=8 with epoch leases on, the schedule
// applied mid-workload, the probe sampling throughout, the readback
// after.
func e21Run(flavor fabric.Flavor, idx int, cell e21Cell) e21Row {
	seed := uint64(0xE21)<<8 | uint64(idx)
	if flavor == fabric.FlavorHead {
		seed ^= 0x4EAD
	}
	plane := faultinject.New(seed ^ 0xF17)
	cl := fabric.MustNew(fabric.Config{
		N: e21N, Flavor: flavor, Seed: seed, MachineMemory: e17Memory,
		Leases: true, Net: fabric.NetConfig{Plane: plane},
	})
	if err := cl.Boot(); err != nil {
		panic(fmt.Sprintf("exp: e21 boot: %v", err))
	}
	eng := cl.Eng

	d := &e21Driver{cl: cl, led: fabric.NewLedger(), hist: linearize.NewHistory()}
	d.start = eng.Now()
	d.stopAt = d.start.Add(e21Window)
	for i := 0; i < e21Keys; i++ {
		d.keys = append(d.keys, e21Key(i))
	}
	cell.apply(plane, d.start)
	d.armProbe()
	for w := 0; w < e21Workers; w++ {
		d.worker(w)
	}
	deadline := eng.Now().Add(30 * sim.Second)
	for d.done != e21Workers && eng.Now() < deadline {
		eng.RunFor(sim.Millisecond)
	}
	if d.done != e21Workers {
		panic("exp: e21 workload did not drain")
	}
	// Let in-flight frames, fences, and the last lease rounds settle
	// before judging routability.
	eng.RunFor(fabric.DefaultLeaseDuration + fabric.DefaultFailTimeout + 2*sim.Millisecond)
	d.readback()

	leased := 0
	for _, m := range cl.Machines {
		if m.Router.LeaseValid() {
			leased++
		}
	}
	return e21Row{
		cell: cell.name, flavor: flavor,
		puts: d.puts, gets: d.gets, acked: d.led.Report().Acks,
		fenced: d.fenced, tmouts: d.tmouts, maybes: d.maybes,
		lin: linearize.Check(d.hist), splits: d.splits,
		worstZero: sim.Duration(d.worstZero) * e21Probe,
		rep:       d.led.Report(), st: cl.RouterStatsSum(), maxEpoch: cl.MaxEpoch(),
		leasedEnd: leased,
	}
}

func e21L1(r e21Row) string {
	if len(r.lin.Aborted) > 0 {
		return "UNKNOWN"
	}
	if r.lin.OK {
		return "clean"
	}
	return "FAIL:" + r.lin.BadKey
}

// E21SplitBrain runs the split-brain safety tables.
func E21SplitBrain() *Result {
	res := &Result{ID: "E21", Title: "Split-brain safety: asymmetric partitions, gray failures, and the client-history audit"}

	safety := metrics.NewTable(
		fmt.Sprintf("N=%d, epoch leases on (lease %v, renew %v, fail timeout %v); fault at +%v, partitions heal at +%v; %d workers × put/get over %d shared keys; probe every %v",
			e21N, fabric.DefaultLeaseDuration, fabric.DefaultLeaseRenewEvery, fabric.DefaultFailTimeout,
			e21FaultAt, e21HealAt, e21Workers, e21Keys, e21Probe),
		"schedule", "flavor", "puts", "gets", "acked", "fenced", "timeouts", "ambiguous",
		"L1 history", "L1 ops", "split samples", "worst no-server", "lost acked (R1)", "unroutable (R3)")
	detect := metrics.NewTable(
		"failure-detector and lease traffic per cell (suspicions are transport-level, directional; deaths only from inbound silence)",
		"schedule", "flavor", "suspicions", "silence deaths", "view changes",
		"renews", "grants", "revokes", "fenced ops", "lapses", "max epoch", "leased after")

	for idx, cell := range e21Cells() {
		for _, flavor := range []fabric.Flavor{fabric.FlavorDecentralized, fabric.FlavorHead} {
			row := e21Run(flavor, idx, cell)
			safety.AddRow(row.cell, row.flavor.String(), row.puts, row.gets, row.acked,
				row.fenced, row.tmouts, row.maybes,
				e21L1(row), fmt.Sprintf("%d+%d?", row.lin.Required, row.lin.Optional),
				row.splits, row.worstZero, row.rep.G1Lost, len(row.rep.Unroutable))
			detect.AddRow(row.cell, row.flavor.String(), row.st.Suspicions, row.st.SilenceDeaths,
				row.st.ViewChanges, row.st.LeaseRenews, row.st.LeaseGrants, row.st.LeaseRevokes,
				row.st.LeaseFenced, row.st.LeaseLapses, row.maxEpoch, row.leasedEnd)
		}
	}
	res.Tables = append(res.Tables, safety, detect)

	res.Notes = append(res.Notes,
		"L1 is the Wing–Gong linearizability check over the client-observed history, per key (linearizability is compositional): 'clean' means ONE sequential order explains every definitive response — the only audit that can prove the absence of split-brain from outside the fabric",
		"timed-out and error'd writes are carried as AMBIGUOUS operations ('N?' in the ops column): the checker may place their effect at any point after invocation or drop it entirely; typed refusals (shed/fenced/denied) are excluded outright — the refusal contract says they did not execute, and a refused write whose value is later READ is itself an L1 violation",
		"a primary serves only while holding a quorum-countersigned epoch lease (2ms, renewed every 500µs) strictly shorter than the 4ms failure timeout, and a promoted machine fences taken-over keys for lease+timeout before serving: the split-sample probe (>1 unfenced lease-holding primary for a key) stays at zero through every schedule because the two windows cannot overlap",
		"the 'worst no-server' column is the price safety pays: between a partitioned primary's lease lapsing and its successor's takeover fence lifting, a key has NO server — bounded by lease + fail timeout + detection, about 10ms here, versus the permanent split a lease-less fabric risks",
		"transport-level send failures record directional SUSPICION only; death needs inbound silence for a full timeout (halved for suspects). The flapping and fail-slow rows show the payoff: zero deaths, zero view changes, zero repair churn — a gray failure is ridden out, not amplified into a membership storm",
		"dead sets never shrink, so a healed partition does not resurrect the exiled side: its machines stay fenced (typed StatusFenced) and the fleet runs on without them — rejoin is the reconciler's job (E19), not the failure detector's",
		"the head-cut contrast: decentralized, machine 1 is one of eight — a bounded fail-over and life goes on. Under the head flavor the SAME schedule decapitates the control plane: the head (patience-limited, hearing nobody) declares the fleet dead, and on heal its revocations propagate the excommunication everywhere — permanent, fleet-wide, TYPED unavailability (R3 unroutable, never wrong data). Safety holds in both architectures; only the blast radius differs — the paper's §2 argument measured end to end",
	)
	return res
}
