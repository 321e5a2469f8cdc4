package main

import (
	"fmt"
	"runtime"
	"time"

	"nocpu/internal/core"
	"nocpu/internal/fabric"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartssd"
)

// probe is an isolated loop over one layer's public functions. It tells
// a later change what one call of the layer costs on the host, apart
// from every other layer, which a whole-workload number cannot.
type probe struct {
	// Name is the metric without its unit suffix; the time metric is
	// Name + "_ns".
	Name string
	// Allocs and Bytes, when set, name the metrics that report heap
	// allocations and bytes per call.
	Allocs, Bytes string
	// fixture builds fresh state (untimed) and returns the call to time
	// and the engine whose events the call executes, if any.
	fixture func() (call func(), eng *sim.Engine)
}

// probeResult is a probe's median cost per call.
type probeResult struct {
	Ns     float64 `json:"ns"`
	Allocs float64 `json:"allocs"`
	Bytes  float64 `json:"bytes"`
	Events float64 `json:"events"` // engine events one call executes
	Calls  int     `json:"calls"`  // calls per sample
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

// runProbe times samples batches of calls, each batch about d long on a
// fresh fixture, and returns the median batch.
func runProbe(p probe, d time.Duration, samples int) probeResult {
	// Size the batch on a throwaway fixture.
	call, _ := p.fixture()
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		if el := time.Since(t); el >= d/8 || n >= 1<<24 {
			n = int(float64(n)*float64(d)/float64(el+1)) + 1
			break
		}
		n *= 2
	}
	var ns, allocs, bytes, events []float64
	for s := 0; s < samples; s++ {
		call, eng := p.fixture()
		runtime.GC()
		var m0, m1 runtime.MemStats
		var ev0 uint64
		if eng != nil {
			ev0 = eng.Executed
		}
		runtime.ReadMemStats(&m0)
		t := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		el := time.Since(t)
		runtime.ReadMemStats(&m1)
		f := float64(n)
		ns = append(ns, float64(el)/f)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/f)
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/f)
		if eng != nil {
			events = append(events, float64(eng.Executed-ev0)/f)
		} else {
			events = append(events, 0)
		}
	}
	return probeResult{Ns: median(ns), Allocs: median(allocs), Bytes: median(bytes), Events: median(events), Calls: n}
}

// machine boots one small decentralized machine for a probe.
func machine() *core.System {
	sys := core.MustNew(core.Options{Flavor: core.Decentralized, Seed: 11, MemoryBytes: machineMemory, NoTrace: true})
	if err := sys.Boot(); err != nil {
		panic(fmt.Sprintf("probe machine: %v", err))
	}
	return sys
}

// await steps the engine until done is set.
func await(eng *sim.Engine, done *bool) {
	for !*done && eng.Step() {
	}
	if !*done {
		panic("probe: operation never completed")
	}
	*done = false
}

// echoApp answers every network request with its own payload.
type echoApp struct{ churnApp }

func (a *echoApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }

// storeMachine boots a machine with one KVS store holding 64 keys.
func storeMachine(cache int) (*core.System, *kvs.Store) {
	sys := machine()
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		panic(err)
	}
	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat", QueueEntries: 128, CacheEntries: cache})
	if err := sys.WaitReady(store); err != nil {
		panic(err)
	}
	done := false
	for i := 0; i < 64; i++ {
		k := rackKey(i)
		store.ServeNetwork(kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: k, Value: valueFor(k, 1)}),
			func([]byte) { done = true })
		await(sys.Eng, &done)
	}
	return sys, store
}

func envelope(m msg.Message) msg.Envelope {
	return msg.Envelope{Src: 1, Dst: 2, Seq: 7, Inc: 1, Msg: m}
}

func encodeProbe(name, allocs string, m msg.Message) probe {
	return probe{Name: name, Allocs: allocs, fixture: func() (func(), *sim.Engine) {
		env := envelope(m)
		return func() { sink = env.Encode() }, nil
	}}
}

var getReq = kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: rackKey(7)})

// probes lists every probe. Order is print order.
var probes = []probe{
	{Name: "sim.probe.schedule_dispatch", Allocs: "sim.probe.schedule_dispatch_allocs",
		// One After plus one Step with 1024 events pending.
		fixture: func() (func(), *sim.Engine) {
			eng, r, nop := sim.NewEngine(), newRNG(1), func() {}
			for i := 0; i < 1024; i++ {
				eng.After(sim.Duration(1+r.intn(1<<20)), nop)
			}
			return func() {
				eng.After(sim.Duration(1+r.intn(1<<20)), nop)
				eng.Step()
			}, nil // its events are the thing measured, not an overhead
		}},
	{Name: "sim.probe.timer_stop_churn",
		// Arm a 25 ms timer and cancel it, as a client timeout does; the
		// cancelled entries are drained every 256 calls.
		fixture: func() (func(), *sim.Engine) {
			eng, nop, i := sim.NewEngine(), func() {}, 0
			return func() {
				eng.After(25*sim.Millisecond, nop).Stop()
				if i++; i%256 == 0 {
					eng.RunFor(30 * sim.Millisecond)
				}
			}, nil
		}},

	encodeProbe("msg.probe.encode_fabric_req", "msg.probe.encode_allocs", &msg.FabricReq{Origin: 1, ReqID: 9, Payload: getReq}),
	{Name: "msg.probe.decode_fabric_req", fixture: func() (func(), *sim.Engine) {
		frame := envelope(&msg.FabricReq{Origin: 1, ReqID: 9, Payload: getReq}).Encode()
		return func() {
			env, err := msg.Decode(frame)
			if err != nil {
				panic(err)
			}
			sink = env
		}, nil
	}},
	encodeProbe("msg.probe.encode_replicate", "", &msg.Replicate{Epoch: 1, Seq: 9, Key: rackKey(7), Value: valueFor(rackKey(7), 1)}),
	encodeProbe("msg.probe.encode_lease_grant", "", &msg.LeaseGrant{Seq: 9, Until: 1 << 30}),
	encodeProbe("msg.probe.encode_alloc_req", "", &msg.AllocReq{App: 1, VA: 1 << 28, Bytes: 64 << 10, Perm: 3}),

	{Name: "physmem.probe.new_4mib", fixture: func() (func(), *sim.Engine) {
		return func() { sink = physmem.MustNew(4 << 20) }, nil
	}},
	{Name: "physmem.probe.alloc_free_frames", fixture: func() (func(), *sim.Engine) {
		mem := physmem.MustNew(machineMemory)
		return func() {
			f, err := mem.AllocFrames(16)
			if err != nil {
				panic(err)
			}
			if err := mem.FreeFrames(f, 16); err != nil {
				panic(err)
			}
		}, nil
	}},
	{Name: "physmem.probe.write_read_4k", fixture: func() (func(), *sim.Engine) {
		mem := physmem.MustNew(machineMemory)
		buf := make([]byte, physmem.PageSize)
		return func() {
			if err := mem.Write(8*physmem.PageSize, buf); err != nil {
				panic(err)
			}
			if err := mem.ReadInto(8*physmem.PageSize, buf); err != nil {
				panic(err)
			}
		}, nil
	}},

	{Name: "iommu.probe.translate_hit", fixture: func() (func(), *sim.Engine) {
		u, _ := mappedIOMMU(1)
		return func() {
			if _, _, err := u.Translate(1, probeVA, iommu.AccessRead); err != nil {
				panic(err)
			}
		}, nil
	}},
	{Name: "iommu.probe.translate_miss_walk",
		// 512 pages round-robin through a 256-entry TLB: every access
		// misses and walks four levels.
		fixture: func() (func(), *sim.Engine) {
			u, _ := mappedIOMMU(512)
			i := 0
			return func() {
				va := probeVA + iommu.VirtAddr(i%512)*physmem.PageSize
				i++
				if _, _, err := u.Translate(1, va, iommu.AccessRead); err != nil {
					panic(err)
				}
			}, nil
		}},
	{Name: "iommu.probe.map_unmap", fixture: func() (func(), *sim.Engine) {
		u, mem := mappedIOMMU(1)
		f, err := mem.AllocFrames(1)
		if err != nil {
			panic(err)
		}
		va := probeVA + 64*physmem.PageSize
		return func() {
			if err := u.Map(1, va, f, iommu.PermRW); err != nil {
				panic(err)
			}
			if err := u.Unmap(1, va); err != nil {
				panic(err)
			}
		}, nil
	}},

	{Name: "interconnect.probe.port_write_read_64b", Allocs: "interconnect.probe.port_write_read_allocs",
		fixture: func() (func(), *sim.Engine) {
			u, mem := mappedIOMMU(1)
			eng := sim.NewEngine()
			port := interconnect.NewFabric(eng, mem, interconnect.DefaultCosts).NewPort("probe", u)
			buf, done := make([]byte, 64), false
			return func() {
				port.Write(1, probeVA, buf, func(err error) {
					if err != nil {
						panic(err)
					}
					done = true
				})
				await(eng, &done)
				port.Read(1, probeVA, 64, func(b []byte, err error) {
					if err != nil {
						panic(err)
					}
					done = true
				})
				await(eng, &done)
			}, eng
		}},

	{Name: "bus.probe.send_deliver",
		// One unicast message NIC to SSD through the bus: route,
		// authorize, deliver. The SSD has no handler for the kind.
		fixture: func() (func(), *sim.Engine) {
			sys := machine()
			nic, ssd := sys.NIC().Device(), sys.SSD().Device().ID()
			return func() {
				nic.Send(ssd, &msg.CloseResp{ConnID: 1 << 30})
				sys.Eng.Run()
			}, sys.Eng
		}},
	{Name: "memctrl.probe.alloc_free_64k", fixture: func() (func(), *sim.Engine) {
		sys := machine()
		app := &churnApp{id: 1}
		sys.NIC().AddApp(app)
		done := false
		return func() {
			app.rt.AllocShared(core.ControlID, 64<<10, func(va uint64, err error) {
				if err != nil {
					panic(err)
				}
				app.rt.Free(core.ControlID, va, 64<<10, func(err error) {
					if err != nil {
						panic(err)
					}
					done = true
				})
			})
			await(sys.Eng, &done)
		}, sys.Eng
	}},

	{Name: "smartnic.probe.deliver_echo", fixture: func() (func(), *sim.Engine) {
		sys := machine()
		sys.NIC().AddApp(&echoApp{churnApp{id: 1}})
		done := false
		return func() {
			sys.NIC().Deliver(1, getReq, func([]byte) { done = true })
			await(sys.Eng, &done)
		}, sys.Eng
	}},

	{Name: "smartssd.probe.fs_write_64b", Allocs: "smartssd.probe.fs_write_allocs", Bytes: "smartssd.probe.fs_write_bytes",
		fixture: func() (func(), *sim.Engine) {
			sys, f := fileMachine()
			buf, done, i := make([]byte, 64), false, uint64(0)
			return func() {
				// Walk the first page, as a log append does.
				f.WriteAt(i%physmem.PageSize, buf, func(err error) {
					if err != nil {
						panic(err)
					}
					done = true
				})
				i += 64
				await(sys.Eng, &done)
			}, sys.Eng
		}},
	{Name: "smartssd.probe.fs_read_64b", fixture: func() (func(), *sim.Engine) {
		sys, f := fileMachine()
		done := false
		return func() {
			f.ReadAt(128, 64, func(b []byte, err error) {
				if err != nil {
					panic(err)
				}
				done = true
			})
			await(sys.Eng, &done)
		}, sys.Eng
	}},

	{Name: "kvs.probe.serve_get_cached", fixture: func() (func(), *sim.Engine) { return serveProbe(512, getReq) }},
	{Name: "kvs.probe.serve_get_flash", fixture: func() (func(), *sim.Engine) { return serveProbe(0, getReq) }},
	{Name: "kvs.probe.serve_put", fixture: func() (func(), *sim.Engine) {
		k := rackKey(7)
		return serveProbe(0, kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: k, Value: valueFor(k, 2)}))
	}},
	{Name: "kvs.probe.codec",
		// One request and one response, encoded and decoded.
		fixture: func() (func(), *sim.Engine) {
			k := rackKey(7)
			v := valueFor(k, 1)
			return func() {
				req, err := kvs.DecodeRequest(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: k}))
				if err != nil {
					panic(err)
				}
				resp, err := kvs.DecodeResponse(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusOK, Value: v}))
				if err != nil {
					panic(err)
				}
				sink = [2]any{req, resp}
			}, nil
		}},

	{Name: "core.probe.new_boot", Allocs: "core.probe.new_boot_allocs", fixture: func() (func(), *sim.Engine) {
		return func() { sink = machine() }, nil
	}},

	{Name: "fabric.probe.ring_owners", fixture: func() (func(), *sim.Engine) {
		ids := make([]msg.DeviceID, 16)
		for i := range ids {
			ids[i] = msg.DeviceID(i + 1)
		}
		ring, i := fabric.NewRing(ids, 0), 0
		keys := make([]string, 1024)
		for k := range keys {
			keys[k] = rackKey(k)
		}
		return func() {
			sink = ring.Owners(keys[i%1024], nil, 2)
			i++
		}, nil
	}},
	{Name: "fabric.probe.network_send",
		// One frame between two machines: envelope encode, link model,
		// NIC rx at the far end, router decode. The ack names no task,
		// so the router drops it after decoding.
		fixture: func() (func(), *sim.Engine) {
			cl := fabric.MustNew(fabric.Config{N: 2, Seed: 11, MachineMemory: machineMemory})
			if err := cl.Boot(); err != nil {
				panic(err)
			}
			return func() {
				cl.Network().Send(1, 2, 0, &msg.ReplicateAck{Seq: 1 << 40, OK: true})
				cl.Eng.Run()
			}, cl.Eng
		}},
}

const probeVA = iommu.VirtAddr(0x1000_0000)

// mappedIOMMU returns a translation unit with pages mapped at probeVA
// in PASID 1.
func mappedIOMMU(pages int) (*iommu.IOMMU, *physmem.Memory) {
	mem := physmem.MustNew(machineMemory)
	u := iommu.New("probe", mem, iommu.Config{})
	if err := u.CreateContext(1); err != nil {
		panic(err)
	}
	for i := 0; i < pages; i++ {
		f, err := mem.AllocFrames(1)
		if err != nil {
			panic(err)
		}
		if err := u.Map(1, probeVA+iommu.VirtAddr(i)*physmem.PageSize, f, iommu.PermRW); err != nil {
			panic(err)
		}
	}
	return u, mem
}

// fileMachine boots a machine with one 4 KiB file on its SSD.
func fileMachine() (*core.System, *smartssd.File) {
	sys := machine()
	if err := sys.CreateFile("probe.dat", make([]byte, physmem.PageSize)); err != nil {
		panic(err)
	}
	f, ok := sys.SSD().FS().Lookup("probe.dat")
	if !ok {
		panic("probe file missing")
	}
	return sys, f
}

// serveProbe times Store.ServeNetwork for one request, from the call to
// the reply, on a store with 64 keys.
func serveProbe(cache int, req []byte) (func(), *sim.Engine) {
	sys, store := storeMachine(cache)
	done := false
	if cache > 0 {
		// The first get fills the cache from flash.
		store.ServeNetwork(req, func([]byte) { done = true })
		await(sys.Eng, &done)
	}
	return func() {
		store.ServeNetwork(req, func(b []byte) {
			if len(b) == 0 || kvs.Status(b[0]) != kvs.StatusOK {
				panic("probe: store refused the request")
			}
			done = true
		})
		await(sys.Eng, &done)
	}, sys.Eng
}
