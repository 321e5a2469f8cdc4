package main

import (
	"fmt"
	"time"

	"nocpu/internal/core"
	"nocpu/internal/fabric"
	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// workload is one fixed-work scenario. Ops is the operation count of a
// full repetition; smoke runs scale it down.
type workload struct {
	Name string
	Why  string
	Ops  int
	run  func(e *repEnv)
}

// Op counts aim at about one host second per repetition on the machine
// the benchmark was written on, so that five or more fresh-cell
// repetitions fit in a ten-second run.
var workloads = []workload{
	{
		Name: "rack16_get_cached",
		Why:  "16 machines, uniform gets served from the NIC value cache: engine, NIC rx, ring, router, network and msg encode do the work; flash, IOMMU and DMA are idle, so SSD work must not move it",
		Ops:  100000,
		run: rack{n: 16, flavor: fabric.FlavorDecentralized, cache: 512, keysPerMachine: 64,
			workers: 128}.run,
	},
	{
		Name: "rack64_head_get_zipf",
		Why:  "64 machines behind a centralos head node, Zipf 0.99 gets: same fabric at another scale, with centralized relay and skew; its set-up is where physmem and machine construction show",
		Ops:  75000,
		run: rack{n: 64, flavor: fabric.FlavorHead, cache: 512, keysPerMachine: 64,
			workers: 512, zipfTheta: 0.99}.run,
	},
	{
		Name: "rack8_mixed_flash",
		Why:  "8 machines, cache off, 70% get 30% put: FS, FTL, flash, virtio, DMA, IOMMU translate and primary/backup replication dominate; the value cache is bypassed, so cache or router work must not move it",
		Ops:  40000,
		run: rack{n: 8, flavor: fabric.FlavorDecentralized, keysPerMachine: 64,
			workers: 8, putsIn10: 3, ownWrites: true, readback: true}.run,
	},
	{
		Name: "machine1_ctrl_churn",
		Why:  "one machine, four NIC apps cycling discover, alloc, grant, free: control plane only (bus route and authorize, memctrl, IOMMU map and unmap, msg); no data-plane op, so data-path work must not move it",
		Ops:  30000,
		run:  runCtrlChurn,
	},
	{
		Name: "rack8_leased_history",
		Why:  "8 machines with epoch leases, 40/60 put/get under a 25 ms client timeout, every op in a linearize history: timer-heavy engine use, lease traffic, and the only run of the linearizability checker",
		Ops:  20000,
		run: rack{n: 8, flavor: fabric.FlavorDecentralized, keysPerMachine: 8,
			workers: 8, putsIn10: 4, leases: true, timeout: 25 * sim.Millisecond}.run,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// wireLatency is the one-way client to NIC latency, as in netsim;
// every crossing adds a seeded jitter below wireJitter. Without it the
// model's fixed service times put many operations at exactly the same
// latency, and a percentile then reads the same whatever the seed.
const (
	wireLatency = 2 * sim.Microsecond
	wireJitter  = 256 * sim.Nanosecond
)

// machineMemory keeps a 64-machine rack inside a small sandbox.
const machineMemory = 4 << 20

// rack describes a fabric workload: a closed loop of workers, each with
// one request in flight, spread round-robin over every NIC ingress.
type rack struct {
	n              int
	flavor         fabric.Flavor
	cache          int
	keysPerMachine int
	workers        int
	zipfTheta      float64 // 0 = uniform
	// putsIn10 of every ten ops are puts, evenly spaced: the mix is part
	// of the workload, the seed only picks the keys.
	putsIn10 int
	// ownWrites gives every key one writer (worker = key mod workers), so
	// the value a get may return is known without a checker.
	ownWrites bool
	readback  bool
	leases    bool
	timeout   sim.Duration // client-side timeout per op, 0 = none
}

func rackKey(i int) string { return fmt.Sprintf("k-%05d", i) }

// rackRun is the state of one repetition of a rack workload.
type rackRun struct {
	rack
	e       *repEnv
	cl      *fabric.Cluster
	eng     *sim.Engine
	ingress []func([]byte, func([]byte))
	rr      int
	keys    []string
	rnd     *rng
	zipf    *zipf

	issued  int
	active  int
	done    bool
	acked   []uint64 // per key: highest version a put was acked for
	sent    []uint64 // per key: highest version a put was sent for
	nextVal uint64   // leased: globally unique put values
	hist    *linearize.History
}

func (s rack) run(e *repEnv) {
	r := &rackRun{rack: s, e: e, rnd: newRNG(e.seed)}
	nKeys := s.keysPerMachine * s.n
	for i := 0; i < nKeys; i++ {
		r.keys = append(r.keys, rackKey(i))
	}
	r.acked = make([]uint64, nKeys)
	r.sent = make([]uint64, nKeys)
	if s.zipfTheta > 0 {
		r.zipf = newZipf(newRNG(e.seed^0x5a), nKeys, s.zipfTheta)
	}
	if s.leases {
		r.hist = linearize.NewHistory()
	}

	ok := e.setup(
		func() error {
			cl, err := fabric.New(fabric.Config{
				N: s.n, Flavor: s.flavor, Seed: 11, MachineMemory: machineMemory,
				CacheEntries: s.cache, Leases: s.leases,
			})
			if err == nil {
				r.cl, r.eng = cl, cl.Eng
			}
			return err
		},
		func() error {
			if err := r.cl.Boot(); err != nil {
				return err
			}
			for _, id := range r.cl.LiveIDs() {
				r.ingress = append(r.ingress, r.cl.Ingress(id))
			}
			return nil
		},
		r.preload)
	if !ok {
		return
	}

	snapshot := func() counters {
		c := counters{}
		c.addCluster(r.cl)
		return c
	}
	e.startMeasure(snapshot, r.eng.Now())
	r.issued, r.active = 0, s.workers
	for w := 0; w < s.workers; w++ {
		r.issue(w)
	}
	e.drive("engine.run", r.eng, &r.done, 60*sim.Second)
	e.stopMeasure(snapshot, r.cl)

	if s.readback {
		r.readAll()
	}
	if s.leases {
		r.check()
	}
}

// sweep sends one request per key, eight in flight, outside the
// measured phase, and hands each reply to check.
func (r *rackRun) sweep(span string, request func(k int) []byte, check func(k int, resp kvs.Response, err error)) {
	next, active, done := 0, 8, false
	var step func()
	step = func() {
		if next == len(r.keys) {
			if active--; active == 0 {
				done = true
			}
			return
		}
		k := next
		next++
		r.target()(request(k), func(b []byte) {
			resp, err := kvs.DecodeResponse(b)
			check(k, resp, err)
			step()
		})
	}
	for w := 0; w < 8; w++ {
		step()
	}
	r.e.drive(span, r.eng, &done, 10*sim.Second)
}

// preload puts version 1 of every key through the fabric. With leases
// it waits, before and after, until every machine holds one: a put
// before the first lease round is refused as fenced, and no measured op
// should meet a primary still inside its boot window.
func (r *rackRun) preload() error {
	if r.leases {
		r.waitLeases()
	}
	hids := make([]int, len(r.keys))
	r.sweep("engine.preload",
		func(k int) []byte {
			r.sent[k] = 1
			if r.hist != nil {
				hids[k] = r.hist.Invoke(linearize.Put, r.keys[k], 1, r.eng.Now())
			}
			return kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: r.keys[k], Value: valueFor(r.keys[k], 1)})
		},
		func(k int, resp kvs.Response, err error) {
			if err != nil || resp.Status != kvs.StatusOK {
				r.e.errorf("preload put %s: status %d err %v", r.keys[k], resp.Status, err)
				return
			}
			r.acked[k] = 1
			if r.hist != nil {
				r.hist.Return(hids[k], linearize.OK, 0, r.eng.Now())
			}
		})
	r.nextVal = 1
	if r.leases {
		r.waitLeases()
	}
	return nil // a refused put is recorded where it happens
}

func (r *rackRun) waitLeases() {
	for i := 0; i < 100; i++ {
		all := true
		for _, m := range r.cl.Machines {
			all = all && m.Router.LeaseValid()
		}
		if all {
			// Two more renewal rounds, so a lease granted during boot has
			// been extended by a steady-state round before measuring.
			r.eng.RunFor(2 * fabric.DefaultLeaseRenewEvery)
			return
		}
		r.eng.RunFor(fabric.DefaultLeaseRenewEvery)
	}
	r.e.errorf("leases never became valid on every machine")
}

func (r *rackRun) target() func([]byte, func([]byte)) {
	r.rr++
	return r.ingress[r.rr%len(r.ingress)]
}

// issue sends worker w's next request, or retires the worker when the
// repetition's op count is spent.
func (r *rackRun) issue(w int) {
	if r.issued == r.e.ops {
		if r.active--; r.active == 0 {
			r.done = true
		}
		return
	}
	e := r.e
	e.tr.begin("client.build")
	r.issued++
	put := r.issued*r.putsIn10%10 < r.putsIn10
	var k int
	switch {
	case put && r.ownWrites:
		// One of this worker's own keys.
		k = w + r.workers*r.rnd.intn(len(r.keys)/r.workers)
	case r.zipf != nil:
		k = r.zipf.next()
	default:
		k = r.rnd.intn(len(r.keys))
	}
	key := r.keys[k]
	var req []byte
	var ver uint64
	hid := -1
	if put {
		if r.hist != nil {
			r.nextVal++
			ver = r.nextVal
			hid = r.hist.Invoke(linearize.Put, key, ver, r.eng.Now())
		} else {
			ver = r.sent[k] + 1
		}
		r.sent[k] = ver
		req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: valueFor(key, ver)})
	} else {
		if r.hist != nil {
			hid = r.hist.Invoke(linearize.Get, key, 0, r.eng.Now())
		}
		req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
	}
	ackedAtSend := r.acked[k]
	t0 := r.eng.Now()
	target := r.target()
	out := wireLatency + sim.Duration(r.rnd.intn(int(wireJitter)))
	back := wireLatency + sim.Duration(r.rnd.intn(int(wireJitter)))
	e.tr.end()

	resolved := false
	var tm *sim.Timer
	finish := func(ok bool) {
		resolved = true
		if tm != nil {
			tm.Stop()
		}
		e.observe(t0, r.eng.Now(), ok)
		r.issue(w)
	}
	r.eng.After(out, func() {
		target(req, func(b []byte) {
			r.eng.After(back, func() {
				e.tr.begin("client.reply")
				ok := r.reply(k, put, ver, ackedAtSend, hid, b)
				e.tr.end()
				if !resolved { // else the client gave up first; the history has the reply
					finish(ok)
				}
			})
		})
	})
	if r.timeout > 0 {
		tm = r.eng.After(r.timeout, func() {
			if !resolved {
				finish(false) // stays pending in the history: an ambiguous op
			}
		})
	}
}

// reply checks one response: it decodes, the status is OK (or NotFound
// for a get under the checker), and a get's value is a version of its
// own key that the client could have been shown.
func (r *rackRun) reply(k int, put bool, ver, ackedAtSend uint64, hid int, b []byte) bool {
	key := r.keys[k]
	resp, err := kvs.DecodeResponse(b)
	if err != nil {
		r.e.errorf("%s: reply does not decode: %v", key, err)
		if hid >= 0 {
			r.hist.Return(hid, linearize.Maybe, 0, r.eng.Now())
		}
		return false
	}
	if put {
		if resp.Status != kvs.StatusOK {
			r.histFail(hid, resp.Status)
			return false
		}
		if ver > r.acked[k] {
			r.acked[k] = ver
		}
		if hid >= 0 {
			r.hist.Return(hid, linearize.OK, 0, r.eng.Now())
		}
		return true
	}
	if resp.Status != kvs.StatusOK {
		r.histFail(hid, resp.Status)
		r.e.errorf("get %s: status %d", key, resp.Status)
		return false
	}
	got, ok := valueVersion(key, resp.Value)
	if !ok {
		r.e.errorf("get %s: value is not derived from the key", key)
		if hid >= 0 {
			r.hist.Return(hid, linearize.Maybe, 0, r.eng.Now())
		}
		return false
	}
	if hid >= 0 {
		// Concurrent writers: the checker decides whether got was legal.
		r.hist.Return(hid, linearize.OK, got, r.eng.Now())
		return true
	}
	if got < ackedAtSend || got > r.sent[k] {
		r.e.errorf("get %s: version %d outside [%d acked at send, %d sent]", key, got, ackedAtSend, r.sent[k])
		return false
	}
	return true
}

func (r *rackRun) histFail(hid int, st kvs.Status) {
	if hid < 0 {
		return
	}
	switch st {
	case kvs.StatusShed, kvs.StatusDenied, kvs.StatusFenced:
		r.hist.Return(hid, linearize.Fail, 0, r.eng.Now())
	default:
		r.hist.Return(hid, linearize.Maybe, 0, r.eng.Now())
	}
}

// readAll reads every key back after the measured phase and requires
// the last acked version.
func (r *rackRun) readAll() {
	r.e.tr.begin("readback")
	defer r.e.tr.end()
	r.sweep("engine.readback",
		func(k int) []byte { return kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: r.keys[k]}) },
		func(k int, resp kvs.Response, err error) {
			got, ok := valueVersion(r.keys[k], resp.Value)
			if err != nil || resp.Status != kvs.StatusOK || !ok || got != r.acked[k] {
				r.e.errorf("readback %s: status %d version %d, want version %d", r.keys[k], resp.Status, got, r.acked[k])
			}
		})
}

// check runs the linearizability checker over the recorded history.
func (r *rackRun) check() {
	res := r.e.res
	r.e.tr.begin("linearize.check")
	t := time.Now()
	v := linearize.Check(r.hist)
	res.CheckS = time.Since(t).Seconds()
	r.e.tr.end()
	res.CheckedOps = v.Required + v.Optional
	res.OptionalOps = v.Optional
	res.Aborted = len(v.Aborted)
	if !v.OK {
		r.e.errorf("history is not linearizable at key %s", v.BadKey)
	}
	if len(v.Aborted) > 0 {
		r.e.errorf("linearize gave up on %d keys", len(v.Aborted))
	}
}

// churnApp is a NIC application with no data plane: it only keeps the
// runtime handle the control-plane cycle needs.
type churnApp struct {
	id msg.AppID
	rt *smartnic.Runtime
}

func (a *churnApp) AppID() msg.AppID                  { return a.id }
func (a *churnApp) Boot(rt *smartnic.Runtime)         { a.rt = rt }
func (a *churnApp) ServeNetwork([]byte, func([]byte)) {}
func (a *churnApp) PeerFailed(msg.DeviceID)           {}

const churnApps = 4

// runCtrlChurn cycles discover, alloc, grant to the SSD, and free on
// four NIC apps of one machine. One op is one cycle. The seed picks
// each cycle's region size (32 to 96 KiB, 64 KiB on average).
func runCtrlChurn(e *repEnv) {
	var sys *core.System
	apps := make([]*churnApp, churnApps)
	ok := e.setup(
		func() (err error) {
			sys, err = core.New(core.Options{Flavor: core.Decentralized, Seed: 11, NoTrace: true})
			return err
		},
		func() error { return sys.Boot() },
		func() error {
			for i := range apps {
				apps[i] = &churnApp{id: msg.AppID(i + 1)}
				sys.NIC().AddApp(apps[i])
			}
			return sys.CreateFile("kv.dat", nil)
		})
	if !ok {
		return
	}

	eng := sys.Eng
	ssd := sys.SSD().Device().ID()
	rnd := newRNG(e.seed)
	snapshot := func() counters {
		c := counters{}
		c.addSystem(sys)
		return c
	}
	e.startMeasure(snapshot, eng.Now())
	issued, active, done := 0, churnApps, false
	var cycle func(a *churnApp)
	cycle = func(a *churnApp) {
		if issued == e.ops {
			if active--; active == 0 {
				done = true
			}
			return
		}
		e.tr.begin("client.build")
		issued++
		bytes := uint64(32+16*rnd.intn(5)) << 10
		t0 := eng.Now()
		fail := func(step string, err error) {
			e.errorf("cycle %s: %v", step, err)
			e.observe(t0, eng.Now(), false)
			cycle(a)
		}
		a.rt.Discover("file:kv.dat", func(provider msg.DeviceID, _ string, err error) {
			if err != nil || provider != ssd {
				fail("discover", fmt.Errorf("provider %v: %v", provider, err))
				return
			}
			a.rt.AllocShared(core.ControlID, bytes, func(va uint64, err error) {
				if err != nil {
					fail("alloc", err)
					return
				}
				a.rt.Grant(va, bytes, provider, func(err error) {
					if err != nil {
						fail("grant", err)
						return
					}
					a.rt.Free(core.ControlID, va, bytes, func(err error) {
						if err != nil {
							fail("free", err)
							return
						}
						e.tr.begin("client.reply")
						e.observe(t0, eng.Now(), true)
						e.tr.end()
						cycle(a)
					})
				})
			})
		})
		e.tr.end()
	}
	for _, a := range apps {
		cycle(a)
	}
	e.drive("engine.run", eng, &done, 60*sim.Second)
	e.stopMeasure(snapshot, sys)

	// Every cycle must give back what it took. Free frames are not
	// compared: the IOMMUs keep the page-table frames that the apps'
	// ever-growing virtual addresses made them allocate.
	if d := e.res.delta; d["bus.PagesMapped"] != d["bus.PagesUnmapped"] {
		e.errorf("bus mapped %d pages and unmapped %d", d["bus.PagesMapped"], d["bus.PagesUnmapped"])
	}
	if n := sys.Memctrl.LiveAllocations(); n != 0 {
		e.errorf("%d regions still allocated after the phase", n)
	}
}
