package smartnic

import (
	"bytes"
	"strings"
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/interconnect"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartssd"
	"nocpu/internal/trace"
)

// Loader-service coverage (§2.1: devices that store applications
// internally must expose a loader; §4: loads are authenticated).

func TestLoaderUploadsImage(t *testing.T) {
	m := newMachine(t)
	image := bytes.Repeat([]byte{0xEE}, 10000)
	var resp *msg.LoadResp
	app := &testApp{id: 1}
	m.nic.AddApp(app)
	m.nic.Device().Handle(msg.KindLoadResp, func(e msg.Envelope) {
		resp = e.Msg.(*msg.LoadResp)
	})
	m.eng.Run()
	m.nic.Device().Send(ssdID, &msg.LoadReq{Image: "kvs.bin", Data: image})
	m.eng.Run()
	if resp == nil || !resp.OK {
		t.Fatalf("load = %+v", resp)
	}
	// The image is a file on the volume now.
	f, ok := m.ssd.FS().Lookup("kvs.bin")
	if !ok || f.Size() != uint64(len(image)) {
		t.Fatalf("image not stored (ok=%v)", ok)
	}
	// Re-upload replaces contents.
	resp = nil
	m.nic.Device().Send(ssdID, &msg.LoadReq{Image: "kvs.bin", Data: []byte("v2")})
	m.eng.Run()
	if resp == nil || !resp.OK {
		t.Fatalf("reload = %+v", resp)
	}
	f, _ = m.ssd.FS().Lookup("kvs.bin")
	if f.Size() != 2 {
		t.Fatalf("reload size = %d", f.Size())
	}
}

func TestLoaderAuthentication(t *testing.T) {
	// Machine with a loader token configured.
	m := newMachineWithSSD(t, smartssd.Config{LoaderToken: 0x5ec7e7})
	var resp *msg.LoadResp
	m.nic.Device().Handle(msg.KindLoadResp, func(e msg.Envelope) {
		resp = e.Msg.(*msg.LoadResp)
	})
	m.nic.Device().Send(9, &msg.LoadReq{Image: "evil.bin", Token: 0xBAD, Data: []byte{1}})
	m.eng.Run()
	if resp == nil || resp.OK || !strings.Contains(resp.Reason, "authentication") {
		t.Fatalf("unauthenticated load = %+v", resp)
	}
	if _, ok := m.ssd.FS().Lookup("evil.bin"); ok {
		t.Fatal("unauthenticated image stored")
	}
	resp = nil
	m.nic.Device().Send(9, &msg.LoadReq{Image: "good.bin", Token: 0x5ec7e7, Data: []byte{1}})
	m.eng.Run()
	if resp == nil || !resp.OK {
		t.Fatalf("authenticated load = %+v", resp)
	}
}

// newMachineWithSSD builds the standard machine but with a custom SSD
// config (the smartnic_test machine fixture hard-codes one).
func newMachineWithSSD(t *testing.T, ssdCfg smartssd.Config) *machine {
	t.Helper()
	m := newMachine(t)
	// Replace the SSD by attaching a second one with the custom config.
	ssdCfg.Device.ID = 9
	ssdCfg.Device.Name = "ssd9"
	ssd2, err := smartssd.New(m.eng, m.bus, m.fab, m.tr, ssdCfg)
	if err != nil {
		t.Fatal(err)
	}
	ssd2.Start()
	m.eng.Run()
	// Route the fixture's helpers at the new SSD.
	m.ssd = ssd2
	return m
}

func TestBrokenFlashSurfacesIOErrors(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("some data on flash"))
	var fc FileAPI
	m.nic.AddApp(&testApp{id: 1, onBoot: func(rt *Runtime) {
		rt.OpenFile(Decentralized, mcID, "kv.dat", 0, 32, func(c FileAPI, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			fc = c
		})
	}})
	m.eng.Run()
	if fc == nil {
		t.Fatal("no client")
	}
	// Break the NAND: reads must come back as IO errors, not hangs.
	m.ssd.BreakFlash()
	_, gotErr := fileRead(t, m, fc, 0, 10)
	if gotErr == nil {
		t.Fatal("read from broken flash succeeded")
	}
	// Repair: service resumes on the same connection.
	m.ssd.RepairFlash()
	got, gotErr := fileRead(t, m, fc, 0, 4)
	if gotErr != nil || !bytes.Equal(got, []byte("some")) {
		t.Fatalf("post-repair read: %q, %v", got, gotErr)
	}
}

// A failed open gives back what it took. With every GrantReq dropped the
// open fails after allocating its queue region; with every ConnectReq
// dropped, after building its driver too. Either way the region goes back
// to the controller, and the driver's response doorbell reaches no driver.
func TestFailedOpenGivesBackWhatItTook(t *testing.T) {
	for _, tc := range []struct {
		kind  msg.Kind
		bells int // doorbells the open allocated before it failed
	}{{msg.KindGrantReq, 0}, {msg.KindConnectReq, 1}} {
		kind := tc.kind
		t.Run(kind.String(), func(t *testing.T) {
			m := newMachine(t)
			m.createFile(t, "kv.dat", []byte("x"))
			plane := faultinject.New(3)
			m.bus.SetFaultPlane(plane)
			plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Kind: kind, Op: faultinject.Drop})
			live := m.mc.Stats().BytesLive
			// Doorbells are numbered in order: the open's lie between two
			// the test takes.
			probe := func(uint64) {}
			first := m.fab.AllocDoorbell(probe)
			var openErr error
			m.nic.AddApp(&testApp{id: 7, onBoot: func(rt *Runtime) {
				rt.OpenFile(Decentralized, mcID, "kv.dat", 0, 32, func(_ FileAPI, err error) { openErr = err })
			}})
			m.eng.Run()
			if openErr == nil || !strings.Contains(openErr.Error(), "timed out") {
				t.Fatalf("open with every %v dropped: err %v", kind, openErr)
			}
			if got := m.mc.Stats().BytesLive; got != live {
				t.Errorf("memctrl BytesLive = %d after the failed open, want %d", got, live)
			}
			last := m.fab.AllocDoorbell(probe)
			if built := int(last - first - 1); built != tc.bells {
				t.Fatalf("the open allocated %d doorbells, want %d", built, tc.bells)
			}
			for bell := first + 1; bell < last; bell++ {
				func(bell interconnect.DoorbellAddr) {
					defer func() {
						if recover() != nil {
							t.Errorf("doorbell %d still reaches the failed open's driver", bell)
						}
					}()
					m.fab.RegisterDoorbell(bell, probe)
				}(bell)
			}
		})
	}
}

// notifiedApp is a testApp that keeps the last §4 error notice it got.
type notifiedApp struct {
	testApp
	notified *msg.ErrorNotify
}

func (a *notifiedApp) ResourceError(e *msg.ErrorNotify) { a.notified = e }

// revokedQueue opens kv.dat, revokes the SSD's grant on the queue's shared
// region and drives one request, whose SSD-side DMA faults.
func revokedQueue(t *testing.T) (*machine, *Connection, *notifiedApp) {
	t.Helper()
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("payload"))
	var conn *Connection
	app := &notifiedApp{testApp: testApp{id: 1, onBoot: func(rt *Runtime) {
		rt.OpenService(mcID, "file:kv.dat", 0, 16, func(c *Connection, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			conn = c
		})
	}}}
	m.nic.AddApp(app)
	m.eng.Run()
	if conn == nil {
		t.Fatal("no connection")
	}
	m.nic.Device().Send(msg.BusID, &msg.RevokeReq{App: 1, VA: conn.VA, Bytes: conn.Bytes, Target: ssdID})
	m.eng.Run()
	_ = conn.Queue.SubmitOp([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, ignoreResponse{})
	m.eng.Run()
	return m, conn, app
}

func TestErrorNotifyOnRevokedQueue(t *testing.T) {
	// Revoke the SSD's grant mid-connection: its next DMA faults, and per
	// §4 it must send ErrorNotify to the consumer and drop the context.
	_, _, app := revokedQueue(t)
	if app.notified == nil {
		t.Fatal("no ErrorNotify after revocation fault")
	}
	if app.notified.Resource != "file:kv.dat" {
		t.Errorf("resource = %q", app.notified.Resource)
	}
}

// A session whose queue failed ends like a closed one: its request
// doorbell is given back. The SSD allocated it right after the driver's
// response doorbell.
func TestFailedQueueGivesBackItsDoorbell(t *testing.T) {
	m, conn, app := revokedQueue(t)
	if app.notified == nil {
		t.Fatal("no ErrorNotify after revocation fault")
	}
	defer func() {
		if recover() != nil {
			t.Error("the failed session's request doorbell is still registered")
		}
	}()
	m.fab.RegisterDoorbell(conn.Queue.RespBell+1, func(uint64) {})
}

func TestNICFailureRebootsApps(t *testing.T) {
	// Kill the NIC: watchdog resets it; the chassis re-runs OnAlive,
	// which re-boots every app, which re-runs the Figure-2 sequence.
	m2 := buildMachine(t, 500*sim.Microsecond, trace.New())
	m2.createFile(t, "kv.dat", []byte("x"))
	boots := 0
	var lastErr error
	m2.nic.AddApp(&testApp{id: 1, onBoot: func(rt *Runtime) {
		boots++
		rt.OpenFile(Decentralized, mcID, "kv.dat", 0, 16, func(c FileAPI, err error) { lastErr = err })
	}})
	m2.eng.RunFor(5 * sim.Millisecond)
	if boots != 1 || lastErr != nil {
		t.Fatalf("first boot: boots=%d err=%v", boots, lastErr)
	}
	m2.nic.Device().Kill()
	m2.eng.RunFor(20 * sim.Millisecond)
	if boots < 2 {
		t.Fatalf("app not rebooted after NIC recovery (boots=%d)", boots)
	}
	if lastErr != nil {
		t.Fatalf("reboot open failed: %v", lastErr)
	}
}

// ignoreResponse is a queue request's completion that drops the answer.
type ignoreResponse struct{}

func (ignoreResponse) RequestDone([]byte, error) {}
