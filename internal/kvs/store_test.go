package kvs

import (
	"bytes"
	"fmt"
	"testing"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/memctrl"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/smartssd"
	"nocpu/internal/trace"
)

const (
	mcID  = msg.DeviceID(1)
	ssdID = msg.DeviceID(2)
	nicID = msg.DeviceID(3)
)

type testbed struct {
	eng      *sim.Engine
	bus      *bus.Bus
	fab      *interconnect.Fabric
	ssd      *smartssd.SSD
	nic      *smartnic.NIC
	store    *Store
	watchdog sim.Duration
}

func newTestbed(t testing.TB, watchdog sim.Duration) *testbed {
	t.Helper()
	tb := &testbed{eng: sim.NewEngine(), watchdog: watchdog}
	tr := trace.New()
	mem := physmem.MustNew(32 * 1024 * physmem.PageSize)
	tb.fab = interconnect.NewFabric(tb.eng, mem, interconnect.DefaultCosts)
	busCfg := bus.DefaultConfig
	busCfg.WatchdogTimeout = watchdog
	tb.bus = bus.New(tb.eng, busCfg, tr)

	hb := sim.Duration(0)
	if watchdog > 0 {
		hb = watchdog / 4
	}

	mc, err := memctrl.New(tb.eng, tb.bus, tb.fab, tr, memctrl.Config{
		Device: device.Config{ID: mcID, Name: "memctrl", HeartbeatEvery: hb},
	})
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := smartssd.New(tb.eng, tb.bus, tb.fab, tr, smartssd.Config{
		Device: device.Config{ID: ssdID, Name: "ssd", HeartbeatEvery: hb, ResetDelay: 200 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.ssd = ssd
	nic, err := smartnic.New(tb.eng, tb.bus, tb.fab, tr, smartnic.Config{
		Device: device.Config{ID: nicID, Name: "nic", HeartbeatEvery: hb},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.nic = nic

	mc.Start()
	ssd.Start()
	nic.Start()
	tb.run()
	if !ssd.Ready() {
		t.Fatal("ssd not ready")
	}

	var done bool
	ssd.FS().Create("kv.dat", func(_ *smartssd.File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	tb.run()
	if !done {
		t.Fatal("file create incomplete")
	}

	tb.store = New(Config{App: 10, FileName: "kv.dat", Control: mcID, QueueEntries: 64})
	var bootErr error
	booted := false
	tb.store.OnReady = func(err error) { bootErr, booted = err, true }
	nic.AddApp(tb.store)
	tb.run()
	if !booted || bootErr != nil {
		t.Fatalf("store boot: booted=%v err=%v", booted, bootErr)
	}
	return tb
}

// run advances the simulation until quiescent. With a watchdog enabled
// the event queue never drains (heartbeats reschedule forever), so we
// advance a generous fixed window instead.
func (tb *testbed) run() {
	if tb.watchdog == 0 {
		tb.eng.Run()
		return
	}
	tb.eng.RunFor(20 * sim.Millisecond)
}

// op issues one KVS request through the NIC edge and returns the decoded
// response.
func (tb *testbed) op(t *testing.T, req Request) Response {
	t.Helper()
	var resp Response
	got := false
	tb.nic.Deliver(10, EncodeRequest(req), func(b []byte) {
		r, err := DecodeResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		resp, got = r, true
	})
	tb.run()
	if !got {
		t.Fatal("no response")
	}
	return resp
}

func TestProtoRoundTrip(t *testing.T) {
	req := Request{Op: OpPut, Key: "k1", Value: []byte("v1")}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil || got.Op != OpPut || got.Key != "k1" || !bytes.Equal(got.Value, []byte("v1")) {
		t.Fatalf("req round trip: %+v %v", got, err)
	}
	resp := Response{Status: StatusOK, Value: []byte("hello")}
	gr, err := DecodeResponse(EncodeResponse(resp))
	if err != nil || gr.Status != StatusOK || !bytes.Equal(gr.Value, []byte("hello")) {
		t.Fatalf("resp round trip: %+v %v", gr, err)
	}
	if _, err := DecodeRequest([]byte{1, 2}); err == nil {
		t.Error("short request accepted")
	}
	if _, err := DecodeResponse([]byte{}); err == nil {
		t.Error("short response accepted")
	}
}

// AppendResponse onto a non-empty prefix leaves the prefix as it was and
// appends exactly EncodeResponse's bytes, which decode back to the
// response, for every status with and without a value.
func TestAppendResponseKeepsPrefix(t *testing.T) {
	prefix := []byte("prefix")
	for st := StatusOK; st <= StatusFenced; st++ {
		for _, val := range [][]byte{nil, []byte("value")} {
			resp := Response{Status: st, Value: val}
			b := AppendResponse(bytes.Clone(prefix), resp)
			if !bytes.HasPrefix(b, prefix) || !bytes.Equal(b[len(prefix):], EncodeResponse(resp)) {
				t.Fatalf("status %d: appended %x, want %q then %x", st, b, prefix, EncodeResponse(resp))
			}
			got, err := DecodeResponse(b[len(prefix):])
			if err != nil || got.Status != st || !bytes.Equal(got.Value, val) {
				t.Fatalf("status %d: decoded %+v, %v", st, got, err)
			}
		}
	}
	if b := EncodeResponse(Response{Status: StatusOK, Value: []byte("v")}); cap(b) != len(b) {
		t.Fatalf("an encoded response has capacity %d for %d bytes", cap(b), len(b))
	}
}

// FuzzRequestKey: a router that routes on RequestKey and a machine that
// serves with DecodeRequest refuse exactly the same requests, and agree
// on the key of every one they accept.
func FuzzRequestKey(f *testing.F) {
	full := EncodeRequest(Request{Op: OpPut, Key: "key", Value: []byte("value")})
	f.Add([]byte{1, 2})                                                               // short
	f.Add(full[:8])                                                                   // truncated key
	f.Add(full[:len(full)-2])                                                         // truncated value
	f.Add(EncodeRequest(Request{Op: OpGet, Key: "k", Deadline: 99}))                  // deadline tail
	f.Add(EncodeRequest(Request{Op: OpPut, Key: "k", Value: []byte("v"), Tenant: 3})) // tenant tail
	f.Fuzz(func(t *testing.T, b []byte) {
		key, kerr := RequestKey(b)
		req, derr := DecodeRequest(b)
		if (kerr == nil) != (derr == nil) {
			t.Fatalf("RequestKey err %v, DecodeRequest err %v", kerr, derr)
		}
		if kerr == nil && string(key) != req.Key {
			t.Fatalf("RequestKey = %q, DecodeRequest key %q", key, req.Key)
		}
	})
}

func TestPutGetDelete(t *testing.T) {
	tb := newTestbed(t, 0)
	if r := tb.op(t, Request{Op: OpPut, Key: "alpha", Value: []byte("first value")}); r.Status != StatusOK {
		t.Fatalf("put: %+v", r)
	}
	r := tb.op(t, Request{Op: OpGet, Key: "alpha"})
	if r.Status != StatusOK || string(r.Value) != "first value" {
		t.Fatalf("get: %+v", r)
	}
	// Overwrite.
	tb.op(t, Request{Op: OpPut, Key: "alpha", Value: []byte("second")})
	if r := tb.op(t, Request{Op: OpGet, Key: "alpha"}); string(r.Value) != "second" {
		t.Fatalf("overwrite: %q", r.Value)
	}
	// Delete.
	if r := tb.op(t, Request{Op: OpDelete, Key: "alpha"}); r.Status != StatusOK {
		t.Fatalf("delete: %+v", r)
	}
	if r := tb.op(t, Request{Op: OpGet, Key: "alpha"}); r.Status != StatusNotFound {
		t.Fatalf("get after delete: %+v", r)
	}
	if r := tb.op(t, Request{Op: OpDelete, Key: "alpha"}); r.Status != StatusNotFound {
		t.Fatalf("double delete: %+v", r)
	}
	st := tb.store.Stats()
	if st.Puts != 2 || st.Gets != 3 || st.Deletes != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestGetMissingKey(t *testing.T) {
	tb := newTestbed(t, 0)
	if r := tb.op(t, Request{Op: OpGet, Key: "nope"}); r.Status != StatusNotFound {
		t.Fatalf("%+v", r)
	}
}

func TestManyKeysSurviveChurn(t *testing.T) {
	tb := newTestbed(t, 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		val := bytes.Repeat([]byte{byte(i)}, 100+i)
		if r := tb.op(t, Request{Op: OpPut, Key: key, Value: val}); r.Status != StatusOK {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	for i := 0; i < 100; i += 7 {
		key := fmt.Sprintf("key-%03d", i)
		r := tb.op(t, Request{Op: OpGet, Key: key})
		if r.Status != StatusOK || len(r.Value) != 100+i || r.Value[0] != byte(i) {
			t.Fatalf("get %d: status=%d len=%d", i, r.Status, len(r.Value))
		}
	}
	if tb.store.Keys() != 100 {
		t.Errorf("keys = %d", tb.store.Keys())
	}
}

func TestRecoveryFromScan(t *testing.T) {
	tb := newTestbed(t, 0)
	// Populate, including overwrites and deletes.
	for i := 0; i < 40; i++ {
		tb.op(t, Request{Op: OpPut, Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf("v%d", i))})
	}
	tb.op(t, Request{Op: OpPut, Key: "k3", Value: []byte("v3-new")})
	tb.op(t, Request{Op: OpDelete, Key: "k5"})

	// Boot a second store instance (fresh index) against the same file —
	// it must rebuild exactly the same view by scanning.
	st2 := New(Config{App: 11, FileName: "kv.dat", Control: mcID, QueueEntries: 64})
	var bootErr error
	st2.OnReady = func(err error) { bootErr = err }
	tb.nic.AddApp(st2)
	tb.run()
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	if st2.Keys() != 39 { // 40 - 1 deleted
		t.Fatalf("recovered keys = %d", st2.Keys())
	}
	var resp Response
	tb.nic.Deliver(11, EncodeRequest(Request{Op: OpGet, Key: "k3"}), func(b []byte) {
		resp, _ = DecodeResponse(b)
	})
	tb.run()
	if string(resp.Value) != "v3-new" {
		t.Fatalf("recovered k3 = %q", resp.Value)
	}
	tb.nic.Deliver(11, EncodeRequest(Request{Op: OpGet, Key: "k5"}), func(b []byte) {
		resp, _ = DecodeResponse(b)
	})
	tb.run()
	if resp.Status != StatusNotFound {
		t.Fatalf("deleted key resurrected: %+v", resp)
	}
}

func TestSSDFailureAndRecovery(t *testing.T) {
	tb := newTestbed(t, 400*sim.Microsecond)
	tb.op(t, Request{Op: OpPut, Key: "persist", Value: []byte("across failure")})

	// Kill the SSD. The watchdog must notice, broadcast, reset; the store
	// must reconnect and recover its index.
	tb.ssd.Kill()
	tb.eng.RunUntil(tb.eng.Now().Add(50 * sim.Millisecond))

	if !tb.store.Ready() {
		t.Fatalf("store not ready after recovery window (ssd state: ready=%v)", tb.ssd.Ready())
	}
	r := tb.op(t, Request{Op: OpGet, Key: "persist"})
	if r.Status != StatusOK || string(r.Value) != "across failure" {
		t.Fatalf("data lost across SSD failure: %+v", r)
	}
	if tb.store.Stats().Recoveries == 0 {
		t.Error("recovery not counted")
	}
}

func TestRequestsDuringOutageGetUnavailable(t *testing.T) {
	tb := newTestbed(t, 400*sim.Microsecond)
	tb.op(t, Request{Op: OpPut, Key: "k", Value: []byte("v")})
	tb.ssd.Kill()
	// Let the watchdog fire so the store learns about the failure.
	tb.eng.RunUntil(tb.eng.Now().Add(2 * sim.Millisecond))
	if tb.store.Ready() {
		t.Skip("store already recovered; cannot observe outage window")
	}
	var resp Response
	tb.nic.Deliver(10, EncodeRequest(Request{Op: OpGet, Key: "k"}), func(b []byte) {
		resp, _ = DecodeResponse(b)
	})
	tb.eng.RunFor(200 * sim.Microsecond)
	if resp.Status != StatusUnavailable {
		t.Fatalf("during outage: %+v", resp)
	}
}
