package core

import (
	"testing"

	"nocpu/internal/device"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/smartssd"
)

func bootSystem(t *testing.T, opts Options) *System {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	return s
}

func kvsOp(t *testing.T, s *System, store *kvs.Store, req kvs.Request) kvs.Response {
	t.Helper()
	var resp kvs.Response
	got := false
	s.NIC().Deliver(store.AppID(), kvs.EncodeRequest(req), func(b []byte) {
		r, err := kvs.DecodeResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		resp, got = r, true
	})
	deadline := s.Eng.Now().Add(sim.Second)
	for !got && s.Eng.Now() < deadline {
		s.Eng.RunFor(50 * sim.Microsecond)
	}
	if !got {
		t.Fatal("op did not complete")
	}
	return resp
}

func TestDecentralizedEndToEnd(t *testing.T) {
	s := bootSystem(t, Options{Flavor: Decentralized})
	if s.Memctrl == nil || s.CPU != nil {
		t.Fatal("wrong component set for decentralized flavor")
	}
	if err := s.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	store := s.NewKVS(KVSOptions{App: 1, File: "kv.dat"})
	if err := s.WaitReady(store); err != nil {
		t.Fatal(err)
	}
	if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte("v")}); r.Status != kvs.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpGet, Key: "k"}); string(r.Value) != "v" {
		t.Fatalf("get: %+v", r)
	}
}

func TestCentralizedEndToEnd(t *testing.T) {
	s := bootSystem(t, Options{Flavor: Centralized})
	if s.CPU == nil || s.Memctrl != nil {
		t.Fatal("wrong component set for centralized flavor")
	}
	// CreateFile mounts the file in the kernel's registry: both opens
	// below resolve it through the kernel.
	if err := s.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	for _, mediated := range []bool{false, true} {
		app := KVSOptions{App: 1, File: "kv.dat", Mediated: mediated}
		if mediated {
			app.App = 2
		}
		store := s.NewKVS(app)
		if err := s.WaitReady(store); err != nil {
			t.Fatalf("mediated=%v: %v", mediated, err)
		}
		key := "k-direct"
		if mediated {
			key = "k-mediated"
		}
		if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: key, Value: []byte("x")}); r.Status != kvs.StatusOK {
			t.Fatalf("mediated=%v put: %+v", mediated, r)
		}
		if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpGet, Key: key}); string(r.Value) != "x" {
			t.Fatalf("mediated=%v get: %+v", mediated, r)
		}
	}
}

// Snapshots create their file through the memory controller, so they are
// decentralized-only. A central-direct store with a snapshot file must come
// up as fast as one without, and serve.
func TestCentralDirectSnapshotFileIsIgnored(t *testing.T) {
	boot := func(snapshot string) (*System, *kvs.Store, sim.Duration) {
		s := bootSystem(t, Options{Flavor: Centralized, Seed: 5})
		if err := s.CreateFile("kv.dat", nil); err != nil {
			t.Fatal(err)
		}
		store := kvs.New(kvs.Config{App: 1, FileName: "kv.dat", Mode: kvs.ModeCentralDirect,
			Control: ControlID, SnapshotFile: snapshot})
		var readyAt sim.Time = -1
		store.OnReady = func(err error) {
			if err == nil && readyAt < 0 {
				readyAt = s.Eng.Now()
			}
		}
		start := s.Eng.Now()
		s.NIC().AddApp(store)
		for readyAt < 0 && s.Eng.Now() < start.Add(sim.Second) {
			s.Eng.RunFor(10 * sim.Microsecond)
		}
		if readyAt < 0 {
			t.Fatalf("snapshot %q: store never ready", snapshot)
		}
		return s, store, readyAt.Sub(start)
	}
	_, _, plain := boot("")
	s, store, withSnap := boot("kv.snap")
	if withSnap != plain {
		t.Fatalf("ready after %v with a snapshot file, %v without", withSnap, plain)
	}
	if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte("v")}); r.Status != kvs.StatusOK {
		t.Fatalf("put on a store with a snapshot file: %+v", r)
	}
}

func TestWatchdogRecoveryViaCore(t *testing.T) {
	s := bootSystem(t, Options{Flavor: Decentralized, Watchdog: 400 * sim.Microsecond})
	if err := s.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	store := s.NewKVS(KVSOptions{App: 1, File: "kv.dat"})
	if err := s.WaitReady(store); err != nil {
		t.Fatal(err)
	}
	kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: "durable", Value: []byte("yes")})
	s.SSD().Kill()
	s.Eng.RunFor(50 * sim.Millisecond)
	if !store.Ready() {
		t.Fatal("store not recovered")
	}
	if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpGet, Key: "durable"}); string(r.Value) != "yes" {
		t.Fatalf("post-recovery get: %+v", r)
	}
}

// A centralized machine with a watchdog keeps its kernel: the kernel
// heartbeats at Watchdog/4 as every device does, so the watchdog does not
// fail it while the machine boots, and the store it serves becomes ready.
func TestCentralizedWatchdogKeepsKernel(t *testing.T) {
	for _, mediated := range []bool{false, true} {
		s := bootSystem(t, Options{Flavor: Centralized, Seed: 3, Watchdog: 500 * sim.Microsecond})
		if n := s.Bus.Stats().DevicesFailed; n != 0 || !s.CPU.Alive() {
			t.Fatalf("mediated=%v: after Boot the bus failed %d devices, kernel alive %v", mediated, n, s.CPU.Alive())
		}
		if err := s.CreateFile("kv.dat", nil); err != nil {
			t.Fatal(err)
		}
		store := s.NewKVS(KVSOptions{App: 1, File: "kv.dat", Mediated: mediated})
		if err := s.WaitReady(store); err != nil {
			t.Fatalf("mediated=%v: %v", mediated, err)
		}
		if r := kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte("v")}); r.Status != kvs.StatusOK {
			t.Fatalf("mediated=%v: put: %+v", mediated, r)
		}
		if n := s.Bus.Stats().DevicesFailed; n != 0 {
			t.Errorf("mediated=%v: the bus failed %d devices", mediated, n)
		}
	}
}

// Kill fails every device a machine has, extra SSDs and NICs and the
// accelerator included, and the kernel on a centralized machine.
func TestSystemKillStopsEveryDevice(t *testing.T) {
	for _, f := range []Flavor{Decentralized, Centralized} {
		s := bootSystem(t, Options{Flavor: f, ExtraSSDs: 1, ExtraNICs: 1, WithAccel: true})
		s.Kill()
		devs := []*device.Device{s.Accel.Device()}
		for _, d := range s.SSDs {
			devs = append(devs, d.Device())
		}
		for _, n := range s.NICs {
			devs = append(devs, n.Device())
		}
		if s.Memctrl != nil {
			devs = append(devs, s.Memctrl.Device())
		}
		want := 6 // two SSDs, two NICs, the accelerator, the memory controller
		if f == Centralized {
			want = 5 // the kernel stands in for the memory controller
		}
		if len(devs) != want {
			t.Fatalf("%v: %d devices, want %d", f, len(devs), want)
		}
		for _, d := range devs {
			if d.State() != device.StateFailed {
				t.Errorf("%v: %s is %v after Kill", f, d.Name(), d.State())
			}
		}
		if s.CPU != nil && s.CPU.Alive() {
			t.Errorf("%v: the kernel is alive after Kill", f)
		}
	}
}

func TestMultipleDevices(t *testing.T) {
	s := bootSystem(t, Options{Flavor: Decentralized, ExtraSSDs: 2, ExtraNICs: 1})
	if len(s.SSDs) != 3 || len(s.NICs) != 2 {
		t.Fatalf("devices: %d ssds, %d nics", len(s.SSDs), len(s.NICs))
	}
	// File on the third SSD is discoverable from the second NIC.
	var done bool
	s.SSDs[2].FS().Create("far.dat", func(f *smartssd.File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	s.Eng.Run()
	if !done {
		t.Fatal("create incomplete")
	}
	store := kvs.New(kvs.Config{App: 9, FileName: "far.dat", Control: ControlID})
	s.NICs[1].AddApp(store)
	if err := s.WaitReady(store); err != nil {
		t.Fatal(err)
	}
}

func TestBootFailsWithTinyMemory(t *testing.T) {
	// A machine whose memory cannot hold even the page tables must fail
	// to boot cleanly rather than hang.
	s, err := New(Options{Flavor: Decentralized, MemoryBytes: 4 * 4096})
	if err != nil {
		return // construction failure is also acceptable
	}
	_ = s.Boot() // must return (either error or ok), not hang
}

func TestAccelViaCore(t *testing.T) {
	s := bootSystem(t, Options{Flavor: Decentralized, WithAccel: true})
	if s.Accel == nil {
		t.Fatal("no accelerator")
	}
	// The accelerator answers discovery like any self-managing device.
	type probe struct {
		done, fail bool
	}
	p := &probe{}
	app := &probeApp{onDone: func(fail bool) { p.done, p.fail = true, fail }}
	s.NIC().AddApp(app)
	deadline := s.Eng.Now().Add(sim.Second)
	for !p.done && s.Eng.Now() < deadline {
		s.Eng.RunFor(50 * sim.Microsecond)
	}
	if !p.done || p.fail {
		t.Fatalf("discovery of xform:crc32 failed (done=%v)", p.done)
	}
}

// probeApp discovers the accelerator's crc32 service.
type probeApp struct {
	onDone func(fail bool)
}

func (a *probeApp) AppID() msg.AppID { return 42 }
func (a *probeApp) Boot(rt *smartnic.Runtime) {
	rt.Discover("xform:crc32", func(_ msg.DeviceID, _ string, err error) {
		a.onDone(err != nil)
	})
}
func (a *probeApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *probeApp) PeerFailed(msg.DeviceID)                   {}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		s := bootSystem(t, Options{Flavor: Decentralized, Seed: 42})
		if err := s.CreateFile("kv.dat", nil); err != nil {
			t.Fatal(err)
		}
		store := s.NewKVS(KVSOptions{App: 1, File: "kv.dat"})
		if err := s.WaitReady(store); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte{byte(i)}})
		}
		return s.Eng.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different end times: %v vs %v", a, b)
	}
}
