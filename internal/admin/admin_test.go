package admin

import (
	"bytes"
	"testing"
	"testing/quick"

	"nocpu/internal/core"
	"nocpu/internal/faultinject"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

const (
	opToken     = uint64(0xAD417)
	loaderToken = uint64(0x10AD)
)

type world struct {
	sys     *core.System
	console *Console
	store   *kvs.Store
}

// newWorld boots the machine with plane (nil for none) on its bus.
func newWorld(t *testing.T, plane *faultinject.Plane) *world {
	t.Helper()
	opts := core.Options{Flavor: core.Decentralized, Seed: 23, FaultPlane: plane}
	opts.SSD.LoaderToken = loaderToken
	sys := core.MustNew(opts)
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat"})
	if err := sys.WaitReady(store); err != nil {
		t.Fatal(err)
	}
	console := New(Config{
		App: 2, Token: opToken,
		LogFile: "kv.dat", Memctrl: core.ControlID,
		Loader: core.FirstSSD, LoaderToken: loaderToken,
	})
	sys.NIC().AddApp(console)
	deadline := sys.Eng.Now().Add(sim.Second)
	for !console.Ready() && sys.Eng.Now() < deadline {
		sys.Eng.RunFor(100 * sim.Microsecond)
	}
	if !console.Ready() {
		t.Fatal("console never connected to the log")
	}
	return &world{sys: sys, console: console, store: store}
}

func (w *world) cmd(t *testing.T, req Request) Response {
	t.Helper()
	var resp Response
	done := false
	w.sys.NIC().Deliver(2, EncodeRequest(req), func(b []byte) {
		r, err := DecodeResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		resp, done = r, true
	})
	deadline := w.sys.Eng.Now().Add(sim.Second)
	for !done && w.sys.Eng.Now() < deadline {
		w.sys.Eng.RunFor(50 * sim.Microsecond)
	}
	if !done {
		t.Fatal("command did not complete")
	}
	return resp
}

func (w *world) kvPut(t *testing.T, key, val string) {
	t.Helper()
	done := false
	w.sys.NIC().Deliver(1, kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: []byte(val)}), func(b []byte) {
		done = true
	})
	for !done {
		w.sys.Eng.RunFor(50 * sim.Microsecond)
	}
}

func TestAuthenticationGate(t *testing.T) {
	w := newWorld(t, nil)
	if r := w.cmd(t, Request{Op: OpPing, Token: 0xBAD}); r.Status != StatusAuthFailed {
		t.Fatalf("bad token: %+v", r)
	}
	if r := w.cmd(t, Request{Op: OpPing, Token: opToken}); r.Status != StatusOK {
		t.Fatalf("good token: %+v", r)
	}
	if w.console.AuthFailures != 1 {
		t.Errorf("auth failures = %d", w.console.AuthFailures)
	}
}

func TestRemoteLogAccess(t *testing.T) {
	w := newWorld(t, nil)
	// The KVS writes its log; the operator reads it remotely.
	w.kvPut(t, "alpha", "first-entry")
	w.kvPut(t, "beta", "second-entry")

	st := w.cmd(t, Request{Op: OpStatLog, Token: opToken})
	if st.Status != StatusOK || st.Size == 0 {
		t.Fatalf("stat: %+v", st)
	}
	tail := w.cmd(t, Request{Op: OpTailLog, Token: opToken, N: 64})
	if tail.Status != StatusOK {
		t.Fatalf("tail: %+v", tail)
	}
	if !bytes.Contains(tail.Data, []byte("second-entry")) {
		t.Fatalf("tail does not contain the latest record: %q", tail.Data)
	}
	// Tail of an over-long request clips to the log size / max IO.
	big := w.cmd(t, Request{Op: OpTailLog, Token: opToken, N: 1 << 30})
	if big.Status != StatusOK || uint64(len(big.Data)) > big.Size {
		t.Fatalf("clipped tail: %+v", big)
	}
}

func TestRemoteImageUpload(t *testing.T) {
	w := newWorld(t, nil)
	image := bytes.Repeat([]byte{0xF0}, 5000)
	r := w.cmd(t, Request{Op: OpUpload, Token: opToken, Name: "fw.bin", Data: image})
	if r.Status != StatusOK {
		t.Fatalf("upload: %+v (%s)", r, r.Data)
	}
	f, ok := w.sys.SSD().FS().Lookup("fw.bin")
	if !ok || f.Size() != uint64(len(image)) {
		t.Fatalf("image not on volume (ok=%v)", ok)
	}
	// The console holds the loader credential; the operator token alone
	// protects the path end to end (a wrong operator token never reaches
	// the loader).
	if r := w.cmd(t, Request{Op: OpUpload, Token: 1, Name: "evil.bin", Data: []byte{1}}); r.Status != StatusAuthFailed {
		t.Fatalf("unauthenticated upload: %+v", r)
	}
}

// An upload is one retried control-plane call: a LoadResp lost on the bus
// costs a retransmission, not the upload, and leaves nothing behind that
// refuses the next upload of the same name.
func TestUploadSurvivesLostLoadResp(t *testing.T) {
	plane := faultinject.New(1)
	w := newWorld(t, plane)
	plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Kind: msg.KindLoadResp, Op: faultinject.Drop, Count: 1})
	for i, image := range [][]byte{bytes.Repeat([]byte{1}, 3000), bytes.Repeat([]byte{2}, 2000)} {
		if r := w.cmd(t, Request{Op: OpUpload, Token: opToken, Name: "fw.bin", Data: image}); r.Status != StatusOK {
			t.Fatalf("upload %d: %+v (%s)", i, r, r.Data)
		}
		if f, ok := w.sys.SSD().FS().Lookup("fw.bin"); !ok || f.Size() != uint64(len(image)) {
			t.Fatalf("upload %d: image not on the volume at %d bytes", i, len(image))
		}
	}
	if st := plane.Stats(); st.Dropped != 1 {
		t.Errorf("plane dropped %d messages, want the one LoadResp", st.Dropped)
	}
}

func TestUnknownOpAndMalformed(t *testing.T) {
	w := newWorld(t, nil)
	if r := w.cmd(t, Request{Op: 99, Token: opToken}); r.Status != StatusError {
		t.Fatalf("unknown op: %+v", r)
	}
	// Malformed bytes must produce an error response, not silence.
	var resp Response
	done := false
	w.sys.NIC().Deliver(2, []byte{1, 2, 3}, func(b []byte) {
		resp, _ = DecodeResponse(b)
		done = true
	})
	for !done {
		w.sys.Eng.RunFor(50 * sim.Microsecond)
	}
	if resp.Status != StatusError {
		t.Fatalf("malformed: %+v", resp)
	}
}

func TestProtoRoundTripProperty(t *testing.T) {
	f := func(op uint8, token uint64, n uint32, name string, data []byte) bool {
		if len(name) > 65000 {
			name = name[:65000]
		}
		req := Request{Op: Op(op), Token: token, N: n, Name: name, Data: data}
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			return false
		}
		if got.Op != req.Op || got.Token != token || got.N != n || got.Name != name {
			return false
		}
		if len(data) == 0 {
			return len(got.Data) == 0
		}
		return bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	g := func(status uint8, size uint64, data []byte) bool {
		resp := Response{Status: Status(status), Size: size, Data: data}
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil || got.Status != resp.Status || got.Size != size {
			return false
		}
		if len(data) == 0 {
			return len(got.Data) == 0
		}
		return bytes.Equal(got.Data, data)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, err := DecodeRequest(nil); err == nil {
		t.Error("nil request decoded")
	}
	if _, err := DecodeResponse([]byte{1}); err == nil {
		t.Error("short response decoded")
	}
}
