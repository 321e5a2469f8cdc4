package accel

import (
	"bytes"
	"testing"
	"testing/quick"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/faultinject"
	"nocpu/internal/interconnect"
	"nocpu/internal/memctrl"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/trace"
)

const (
	mcID    = msg.DeviceID(1)
	accelID = msg.DeviceID(2)
	nicID   = msg.DeviceID(3)
)

type world struct {
	eng     *sim.Engine
	bus     *bus.Bus
	acc     *Accel
	nic     *smartnic.NIC
	nextApp msg.AppID
}

func newWorld(t *testing.T) *world {
	return newWorldCosts(t, Costs{})
}

func newWorldCosts(t *testing.T, costs Costs) *world {
	t.Helper()
	w := &world{eng: sim.NewEngine()}
	tr := trace.New()
	mem := physmem.MustNew(8 * 1024 * physmem.PageSize)
	fab := interconnect.NewFabric(w.eng, mem, interconnect.DefaultCosts)
	w.bus = bus.New(w.eng, bus.DefaultConfig, tr)
	mc, err := memctrl.New(w.eng, w.bus, fab, tr, memctrl.Config{
		Device: device.Config{ID: mcID, Name: "memctrl"},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := New(w.eng, w.bus, fab, tr, Config{
		Device: device.Config{ID: accelID, Name: "accel"},
		Costs:  costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.acc = acc
	nic, err := smartnic.New(w.eng, w.bus, fab, tr, smartnic.Config{
		Device: device.Config{ID: nicID, Name: "nic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.nic = nic
	mc.Start()
	acc.Start()
	nic.Start()
	w.eng.Run()
	return w
}

// xformApp opens one transform connection at boot.
type xformApp struct {
	id      msg.AppID
	service string
	conn    *smartnic.Connection
	client  *Client
	openErr error
}

func (a *xformApp) AppID() msg.AppID { return a.id }
func (a *xformApp) Boot(rt *smartnic.Runtime) {
	rt.OpenService(mcID, a.service, 0, 32, func(c *smartnic.Connection, err error) {
		if err != nil {
			a.openErr = err
			return
		}
		a.conn, a.client = c, &Client{Conn: c.Queue}
	})
}
func (a *xformApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *xformApp) PeerFailed(msg.DeviceID)                   {}

func openClient(t *testing.T, w *world, service string) *Client {
	t.Helper()
	return openApp(t, w, service).client
}

func openApp(t *testing.T, w *world, service string) *xformApp {
	t.Helper()
	w.nextApp++
	app := &xformApp{id: w.nextApp, service: service}
	w.nic.AddApp(app)
	w.eng.Run()
	if app.openErr != nil {
		t.Fatal(app.openErr)
	}
	if app.client == nil {
		t.Fatal("no client")
	}
	return app
}

// TestHandshakeSurvivesLostResponses drops the first OpenResp, then the
// first ConnectResp, then the first CloseResp on the bus. The client's
// retransmission must be answered as the original was (device.Sessions'
// three replay rules): one instance, a working queue, a clean close.
func TestHandshakeSurvivesLostResponses(t *testing.T) {
	for _, kind := range []msg.Kind{msg.KindOpenResp, msg.KindConnectResp, msg.KindCloseResp} {
		t.Run(kind.String(), func(t *testing.T) {
			w := newWorld(t)
			plane := faultinject.New(1)
			w.bus.SetFaultPlane(plane)
			plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Kind: kind, Op: faultinject.Drop, Count: 1})

			app := openApp(t, w, "xform:rot13")
			if app.conn.ConnID != 1 {
				t.Errorf("connected to instance %d, want 1 (a retried open must not leak a second)", app.conn.ConnID)
			}
			var got []byte
			app.client.Do([]byte("uryyb"), func(resp []byte, err error) {
				if err != nil {
					t.Error(err)
				}
				got = resp
			})
			w.eng.Run()
			if string(got) != "hello" {
				t.Errorf("transform over the recovered queue = %q", got)
			}
			closed := false
			app.conn.Close(func(err error) {
				if err != nil {
					t.Errorf("close: %v", err)
				}
				closed = true
			})
			w.eng.Run()
			if !closed {
				t.Fatal("close never completed")
			}
			if d := plane.Stats().Dropped; d != 1 {
				t.Errorf("plane dropped %d messages, want 1", d)
			}
			if st := w.nic.RetryStats(); st.Retries != 1 || st.Exhausted != 0 {
				t.Errorf("retry stats = %+v, want exactly one retransmission", st)
			}
		})
	}
}

func TestCRC32RoundTrip(t *testing.T) {
	w := newWorld(t)
	c := openClient(t, w, "xform:crc32")
	payload := []byte("the last cpu computes no checksums")
	var got []byte
	c.Do(payload, func(resp []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = resp
	})
	w.eng.Run()
	want, _ := Transform(OpCRC32, payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("crc = %x want %x", got, want)
	}
	if w.acc.Stats().Ops != 1 {
		t.Errorf("ops = %d", w.acc.Stats().Ops)
	}
}

func TestROT13AndRLE(t *testing.T) {
	w := newWorld(t)
	rot := openClient(t, w, "xform:rot13")
	var got []byte
	rot.Do([]byte("Hello, World!"), func(resp []byte, err error) { got = resp })
	w.eng.Run()
	if string(got) != "Uryyb, Jbeyq!" {
		t.Fatalf("rot13 = %q", got)
	}

	rle := openClient(t, w, "xform:rle")
	payload := bytes.Repeat([]byte{7}, 300)
	payload = append(payload, 1, 2, 3)
	rle.Do(payload, func(resp []byte, err error) { got = resp })
	w.eng.Run()
	dec, err := RLEDecode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, payload) {
		t.Fatal("rle round trip corrupt")
	}
	if len(got) >= len(payload) {
		t.Errorf("rle did not compress a run (in=%d out=%d)", len(payload), len(got))
	}
}

func TestUnknownTransformNotDiscovered(t *testing.T) {
	w := newWorld(t)
	app := &xformApp{id: 9, service: "xform:quantum"}
	w.nic.AddApp(app)
	// Bounded run: discovery will time out (nobody matches).
	w.eng.RunFor(15 * sim.Millisecond)
	w.eng.Run()
	if app.openErr == nil {
		t.Fatal("unknown transform discovered")
	}
}

func TestComputeCostModel(t *testing.T) {
	w := newWorld(t)
	c := openClient(t, w, "xform:crc32")
	// Large payload: compute time = setup + bytes/rate must dominate.
	payload := make([]byte, 4000)
	start := w.eng.Now()
	var doneAt sim.Time
	c.Do(payload, func(resp []byte, err error) { doneAt = w.eng.Now() })
	w.eng.Run()
	elapsed := doneAt.Sub(start)
	compute := DefaultCosts.Setup + sim.Duration(float64(len(payload))/DefaultCosts.BytesPerNs)
	if elapsed < compute {
		t.Fatalf("round trip %v less than compute time %v", elapsed, compute)
	}
}

func TestEnginePoolParallelism(t *testing.T) {
	// Slow engines so compute dominates transport: two engines must run
	// two concurrent ops in ~one compute time, four ops in ~two.
	costs := Costs{Setup: 100 * sim.Microsecond, BytesPerNs: 4}
	w := newWorldCosts(t, costs)
	c := openClient(t, w, "xform:crc32")
	payload := make([]byte, 64)
	var last sim.Time
	start := w.eng.Now()
	for i := 0; i < 4; i++ {
		c.Do(payload, func([]byte, error) { last = w.eng.Now() })
	}
	w.eng.Run()
	elapsed := last.Sub(start)
	// Serial would be >= 4*100us; two engines should finish in a bit over
	// 2*100us (plus transport).
	if elapsed >= 4*costs.Setup {
		t.Fatalf("no engine parallelism: %v", elapsed)
	}
	if elapsed < 2*costs.Setup {
		t.Fatalf("impossible speedup: %v", elapsed)
	}
}

func TestRLEProperties(t *testing.T) {
	f := func(data []byte) bool {
		enc := rleEncode(data)
		dec, err := RLEDecode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if _, err := RLEDecode([]byte{1}); err == nil {
		t.Error("odd stream accepted")
	}
	if _, err := RLEDecode([]byte{0, 5}); err == nil {
		t.Error("zero run accepted")
	}
}

func TestTransformPure(t *testing.T) {
	if _, ok := Transform(Op(99), []byte{1}); ok {
		t.Error("unknown op transformed")
	}
	// ROT13 is an involution.
	f := func(data []byte) bool {
		once, _ := Transform(OpROT13, data)
		twice, _ := Transform(OpROT13, once)
		return bytes.Equal(twice, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
