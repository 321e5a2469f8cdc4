package smartnic

import (
	"bytes"
	"strings"
	"testing"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/memctrl"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartssd"
	"nocpu/internal/trace"
)

// machine is a full CPU-less testbed: bus + memctrl + SSD + NIC.
type machine struct {
	eng      *sim.Engine
	tr       *trace.Tracer
	bus      *bus.Bus
	fab      *interconnect.Fabric
	mc       *memctrl.Controller
	ssd      *smartssd.SSD
	nic      *NIC
	watchdog sim.Duration
}

const (
	mcID  = msg.DeviceID(1)
	ssdID = msg.DeviceID(2)
	nicID = msg.DeviceID(3)
)

func newMachine(t testing.TB) *machine {
	t.Helper()
	return buildMachine(t, 0, trace.New())
}

// buildMachine assembles the memctrl+SSD+NIC testbed; a non-zero
// watchdog enables heartbeats at watchdog/4, and a nil tracer turns
// message tracing off (what a cost measurement wants).
func buildMachine(t testing.TB, watchdog sim.Duration, tr *trace.Tracer) *machine {
	t.Helper()
	m := &machine{eng: sim.NewEngine(), tr: tr}
	mem := physmem.MustNew(16 * 1024 * physmem.PageSize) // 64 MiB
	m.fab = interconnect.NewFabric(m.eng, mem, interconnect.DefaultCosts)
	busCfg := bus.DefaultConfig
	busCfg.WatchdogTimeout = watchdog
	m.bus = bus.New(m.eng, busCfg, m.tr)
	hb := sim.Duration(0)
	if watchdog > 0 {
		hb = watchdog / 4
	}
	m.watchdog = watchdog

	mc, err := memctrl.New(m.eng, m.bus, m.fab, m.tr, memctrl.Config{
		Device: device.Config{ID: mcID, Name: "memctrl", HeartbeatEvery: hb},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.mc = mc

	ssd, err := smartssd.New(m.eng, m.bus, m.fab, m.tr, smartssd.Config{
		Device: device.Config{ID: ssdID, Name: "ssd", SelfTest: 5 * sim.Microsecond,
			ResetDelay: 100 * sim.Microsecond, HeartbeatEvery: hb},
		Tokens: map[string]uint64{"secret.dat": 0xCAFE},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.ssd = ssd

	nic, err := New(m.eng, m.bus, m.fab, m.tr, Config{
		Device: device.Config{ID: nicID, Name: "nic", SelfTest: 5 * sim.Microsecond,
			ResetDelay: 100 * sim.Microsecond, HeartbeatEvery: hb},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.nic = nic

	mc.Start()
	ssd.Start()
	nic.Start()
	m.run()
	if !ssd.Ready() {
		t.Fatal("ssd not ready after boot")
	}
	return m
}

// run advances the simulation: to quiescence without a watchdog, by a
// bounded window with one (heartbeats never drain).
func (m *machine) run() {
	if m.watchdog == 0 {
		m.eng.Run()
		return
	}
	m.eng.RunFor(20 * sim.Millisecond)
}

// createFile pre-populates the SSD volume.
func (m *machine) createFile(t testing.TB, name string, contents []byte) {
	t.Helper()
	var done bool
	m.ssd.FS().Create(name, func(f *smartssd.File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if len(contents) == 0 {
			done = true
			return
		}
		f.WriteAt(0, contents, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
	})
	m.run()
	if !done {
		t.Fatal("file setup did not complete")
	}
}

// testApp is a minimal NIC application for the tests.
type testApp struct {
	id     msg.AppID
	onBoot func(rt *Runtime)
	failed []msg.DeviceID
}

func (a *testApp) AppID() msg.AppID { return a.id }
func (a *testApp) Boot(rt *Runtime) {
	if a.onBoot != nil {
		a.onBoot(rt)
	}
}
func (a *testApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *testApp) PeerFailed(d msg.DeviceID)                 { a.failed = append(a.failed, d) }

func TestFigure2OpenFileSequence(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("the last cpu's data"))

	var fc FileAPI
	var openErr error
	app := &testApp{id: 42, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, "kv.dat", 0, 32, func(c FileAPI, err error) { fc, openErr = c, err })
	}}
	m.nic.AddApp(app)
	m.eng.Run()
	if openErr != nil {
		t.Fatalf("open: %v\ntrace:\n%s", openErr, m.tr.String())
	}
	if fc == nil {
		t.Fatal("no file client")
	}

	// The trace must contain the Figure-2 message kinds in order.
	wantSeq := []string{"discover.req", "discover.resp", "open.req", "open.resp",
		"alloc.req", "alloc.resp", "grant.req", "auth.req", "auth.resp", "grant.resp",
		"connect.req", "connect.resp"}
	kinds := m.tr.Kinds()
	i := 0
	for _, k := range kinds {
		if i < len(wantSeq) && k == wantSeq[i] {
			i++
		}
	}
	if i != len(wantSeq) {
		t.Fatalf("figure-2 sequence incomplete: matched %d of %v\ntrace:\n%s", i, wantSeq, m.tr.String())
	}

	// Data-plane round trip: read the file through the virtqueue.
	got, err := fileRead(t, m, fc, 0, 19)
	if err != nil {
		t.Error(err)
	}
	if !bytes.Equal(got, []byte("the last cpu's data")) {
		t.Fatalf("read = %q", got)
	}
}

func TestFileWriteAppendStat(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", nil)
	var fc FileAPI
	app := &testApp{id: 7, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, "kv.dat", 0, 32, func(c FileAPI, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			fc = c
		})
	}}
	m.nic.AddApp(app)
	m.eng.Run()
	if fc == nil {
		t.Fatal("no client")
	}

	// Append has no FileAPI method: it is reached through the issue path
	// both clients share.
	pc := fc.(*FileClient)
	rec := &fileRecorder{}
	rec.onDone = func(op *FileOp) {
		switch rec.calls {
		case 1:
			if rec.errs[0] != nil {
				t.Error(rec.errs[0])
			}
			copy(op.Payload(9), "record-2|")
			pc.issue(op, smartssd.OpAppend, 0, 0, rec)
		case 2:
			copy(op.Payload(6), "RECORD")
			fc.WriteOp(op, 0, rec)
		case 3:
			if rec.errs[2] != nil {
				t.Error(rec.errs[2])
			}
		}
	}
	var op FileOp
	copy(op.Payload(9), "record-1|")
	pc.issue(&op, smartssd.OpAppend, 0, 0, rec)
	m.eng.Run()
	if rec.calls != 3 {
		t.Fatalf("%d of 3 requests completed", rec.calls)
	}
	if size := rec.sizes[1]; size != 18 {
		t.Fatalf("size after appends = %d", size)
	}
	got, _ := fileRead(t, m, fc, 0, 18)
	if string(got) != "RECORD-1|record-2|" {
		t.Fatalf("contents = %q", got)
	}
	statSize := fileDo(t, m, func(op *FileOp, rec *fileRecorder) { fc.StatOp(op, rec) }).sizes[0]
	if statSize != 18 {
		t.Errorf("stat = %d", statSize)
	}
}

func TestOpenUnknownFileFails(t *testing.T) {
	m := newMachine(t)
	var openErr error
	app := &testApp{id: 7, onBoot: func(rt *Runtime) {
		rt.DiscoverTimeout = 500 * sim.Microsecond
		rt.OpenFile(Decentralized, mcID, "ghost.dat", 0, 32, func(c FileAPI, err error) { openErr = err })
	}}
	m.nic.AddApp(app)
	m.eng.Run()
	if openErr == nil || !strings.Contains(openErr.Error(), "timed out") {
		t.Fatalf("err = %v (no provider should answer)", openErr)
	}
}

func TestOpenWithWrongTokenRefused(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "secret.dat", []byte("classified"))
	var openErr error
	app := &testApp{id: 7, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, "secret.dat", 0xBAD, 32, func(c FileAPI, err error) { openErr = err })
	}}
	m.nic.AddApp(app)
	m.eng.Run()
	if openErr == nil || !strings.Contains(openErr.Error(), "authentication") {
		t.Fatalf("err = %v", openErr)
	}
	// Correct token succeeds.
	var fc FileAPI
	app2 := &testApp{id: 8, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, "secret.dat", 0xCAFE, 32, func(c FileAPI, err error) { fc = c })
	}}
	m.nic.AddApp(app2)
	m.eng.Run()
	if fc == nil {
		t.Fatal("authorized open failed")
	}
}

func TestNetworkDeliveryPath(t *testing.T) {
	m := newMachine(t)
	app := &testApp{id: 7}
	m.nic.AddApp(app)
	m.eng.Run()
	var resp []byte
	var at sim.Time
	start := m.eng.Now()
	m.nic.Deliver(7, []byte("ping"), func(b []byte) { resp = b; at = m.eng.Now() })
	m.eng.Run()
	if !bytes.Equal(resp, []byte("ping")) {
		t.Fatalf("resp = %q", resp)
	}
	if want := start.Add(DefaultRxCost + DefaultTxCost); at != want {
		t.Errorf("latency: at %v want %v", at, want)
	}
	// Unknown app: silently dropped.
	m.nic.Deliver(99, []byte("x"), func([]byte) { t.Error("reply for unknown app") })
	m.eng.Run()
}

func TestPeerFailureNotification(t *testing.T) {
	busCfg := bus.DefaultConfig
	m := newMachine(t)
	_ = busCfg
	app := &testApp{id: 7}
	m.nic.AddApp(app)
	m.eng.Run()
	if err := m.bus.FailDevice(ssdID, "injected"); err != nil {
		t.Fatal(err)
	}
	m.eng.Run()
	if len(app.failed) != 1 || app.failed[0] != ssdID {
		t.Fatalf("app saw failures %v", app.failed)
	}
}

func TestTwoAppsIsolatedAddressSpaces(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "a.dat", []byte("AAAA"))
	m.createFile(t, "b.dat", []byte("BBBB"))
	var fcA, fcB FileAPI
	m.nic.AddApp(&testApp{id: 1, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, "a.dat", 0, 16, func(c FileAPI, err error) { fcA = c })
	}})
	m.nic.AddApp(&testApp{id: 2, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, "b.dat", 0, 16, func(c FileAPI, err error) { fcB = c })
	}})
	m.eng.Run()
	if fcA == nil || fcB == nil {
		t.Fatal("opens failed")
	}
	recA, recB := &fileRecorder{}, &fileRecorder{}
	fcA.ReadOp(new(FileOp), 0, 4, recA)
	fcB.ReadOp(new(FileOp), 0, 4, recB)
	m.eng.Run()
	if recA.calls != 1 || recB.calls != 1 {
		t.Fatalf("reads completed %d and %d times", recA.calls, recB.calls)
	}
	gotA, gotB := recA.data[0], recB.data[0]
	if string(gotA) != "AAAA" || string(gotB) != "BBBB" {
		t.Fatalf("cross-talk: a=%q b=%q", gotA, gotB)
	}
	// The two apps' mappings live in different PASIDs of the same NIC
	// IOMMU; each app's region is invisible to the other.
	if m.nic.Device().IOMMU().Contexts() != 2 {
		t.Errorf("contexts = %d", m.nic.Device().IOMMU().Contexts())
	}
}

func TestCloseTearsDownConnection(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("x"))
	var conn *Connection
	m.nic.AddApp(&testApp{id: 3, onBoot: func(rt *Runtime) {
		rt.OpenService(mcID, "file:kv.dat", 0, 16, func(c *Connection, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			conn = c
		})
	}})
	m.eng.Run()
	if conn == nil {
		t.Fatal("no connection")
	}
	closed := false
	conn.Close(func(err error) {
		if err != nil {
			t.Error(err)
		}
		closed = true
	})
	m.eng.Run()
	if !closed {
		t.Fatal("close did not complete")
	}
}

// freeBell fails the test unless bell can be registered again: nothing
// that an ended session built still answers it.
func freeBell(t *testing.T, fab *interconnect.Fabric, bell interconnect.DoorbellAddr, what string) {
	t.Helper()
	defer func() {
		if recover() != nil {
			t.Errorf("%s (doorbell %d) is still registered", what, bell)
		}
	}()
	fab.RegisterDoorbell(bell, func(uint64) {})
	fab.UnregisterDoorbell(bell)
}

// A close gives back what its open took: three open-close cycles leave
// memctrl's live bytes where they were, the SSD's grant unmapped and both
// ends' doorbells free. The SSD allocated its request doorbell right after
// the driver's response doorbell.
func TestCloseGivesBackWhatOpenTook(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("x"))
	var rt *Runtime
	m.nic.AddApp(&testApp{id: 3, onBoot: func(r *Runtime) { rt = r }})
	m.eng.Run()
	live := m.mc.Stats().BytesLive
	for cycle := 1; cycle <= 3; cycle++ {
		var conn *Connection
		rt.OpenService(mcID, "file:kv.dat", 0, 16, func(c *Connection, err error) {
			if err != nil {
				t.Fatalf("cycle %d: open: %v", cycle, err)
			}
			conn = c
		})
		m.eng.Run()
		closed := false
		conn.Close(func(err error) {
			if err != nil {
				t.Errorf("cycle %d: close: %v", cycle, err)
			}
			closed = true
		})
		m.eng.Run()
		if !closed {
			t.Fatalf("cycle %d: close did not complete", cycle)
		}
		if got := m.mc.Stats().BytesLive; got != live {
			t.Errorf("cycle %d: memctrl BytesLive = %d after the close, want %d", cycle, got, live)
		}
		if _, _, ok := m.ssd.Device().IOMMU().Lookup(iommu.PASID(3), iommu.VirtAddr(conn.VA)); ok {
			t.Errorf("cycle %d: the queue region is still granted to the SSD", cycle)
		}
		freeBell(t, m.fab, conn.Queue.RespBell, "the driver's response doorbell")
		freeBell(t, m.fab, conn.Queue.RespBell+1, "the SSD's request doorbell")
	}
}

func TestConnectByOtherDeviceRefused(t *testing.T) {
	// A second NIC tries to attach to a connection opened by the first:
	// the SSD must refuse (per-instance isolation, §2.1).
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("x"))
	nic2, err := New(m.eng, m.bus, m.fab, m.tr, Config{
		Device: device.Config{ID: 9, Name: "nic2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	nic2.Start()

	var connID uint32
	m.nic.AddApp(&testApp{id: 3, onBoot: func(rt *Runtime) {
		// Run only open (not the full sequence) so we can hijack.
		rt.Discover("file:kv.dat", func(provider msg.DeviceID, service string, err error) {
			rt.open(provider, service, 0, func(or *msg.OpenResp, err error) { connID = or.ConnID })
		})
	}})
	m.eng.Run()
	if connID == 0 {
		t.Fatal("open failed")
	}
	var refused *msg.ConnectResp
	req := &msg.ConnectReq{Service: "file:kv.dat", ConnID: connID, App: 3,
		RingVA: 0x1000_0000, RingEntries: 16, DataVA: 0x1001_0000, DataBytes: 16 * 4096}
	nic2.call(DefaultRetryPolicy, ssdID, req, keyOf(msg.Envelope{Src: ssdID, Msg: &msg.ConnectResp{ConnID: connID}}),
		func(_ msg.DeviceID, resp msg.Message, err error) { refused, _ = resp.(*msg.ConnectResp) })
	m.eng.Run()
	if refused == nil || refused.OK {
		t.Fatalf("hijacked connect = %+v", refused)
	}
}
