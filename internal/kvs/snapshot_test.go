package kvs

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

func TestSnapshotCodecRoundTrip(t *testing.T) {
	idx := map[string]loc{
		"alpha": {off: 100, n: 32},
		"beta":  {off: 900, n: 0},
		"":      {off: 5, n: 1}, // empty key is legal in the codec
	}
	blob := encodeSnapshot(idx, 12345)
	got, wm, err := decodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 12345 || len(got) != len(idx) {
		t.Fatalf("wm=%d len=%d", wm, len(got))
	}
	for k, l := range idx {
		if got[k] != l {
			t.Fatalf("entry %q: %+v vs %+v", k, got[k], l)
		}
	}
	// Deterministic encoding.
	if !bytes.Equal(blob, encodeSnapshot(idx, 12345)) {
		t.Fatal("snapshot encoding not deterministic")
	}
}

func TestSnapshotCodecRejectsTorn(t *testing.T) {
	idx := map[string]loc{"k": {off: 1, n: 2}}
	blob := encodeSnapshot(idx, 7)
	// Truncation at any point must error (length or footer check).
	for i := 0; i < len(blob); i++ {
		if _, _, err := decodeSnapshot(blob[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Flipped footer.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := decodeSnapshot(bad); err == nil {
		t.Fatal("corrupt footer accepted")
	}
	// Garbage never panics.
	f := func(b []byte) bool {
		_, _, _ = decodeSnapshot(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// snapTestbed builds a store with snapshots enabled.
func snapTestbed(t *testing.T) *testbed {
	t.Helper()
	tb := newTestbed(t, 0)
	st := New(Config{
		App: 30, FileName: "kv.dat", Control: mcID,
		QueueEntries: 64, SnapshotFile: "kv.snap",
	})
	booted := false
	var bootErr error
	st.OnReady = func(err error) { bootErr, booted = err, true }
	tb.nic.AddApp(st)
	tb.run()
	if !booted || bootErr != nil {
		t.Fatalf("snapshot store boot: %v", bootErr)
	}
	tb.store = st
	return tb
}

func TestSnapshotAcceleratedRecovery(t *testing.T) {
	tb := snapTestbed(t)
	for i := 0; i < 60; i++ {
		tb.opApp(t, 30, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i), Value: []byte(fmt.Sprintf("v%02d", i))})
	}
	// Snapshot, then a few more ops past the watermark.
	snapped := false
	tb.store.Snapshot(func(err error) {
		if err != nil {
			t.Errorf("snapshot: %v", err)
		}
		snapped = true
	})
	tb.run()
	if !snapped || tb.store.Stats().Snapshots != 1 {
		t.Fatal("snapshot did not complete")
	}
	tb.opApp(t, 30, Request{Op: OpPut, Key: "k05", Value: []byte("v05-new")})
	tb.opApp(t, 30, Request{Op: OpDelete, Key: "k07"})
	tb.opApp(t, 30, Request{Op: OpPut, Key: "post", Value: []byte("after-snapshot")})

	// A second store on the same files recovers from snapshot + suffix.
	st2 := New(Config{
		App: 31, FileName: "kv.dat", Control: mcID,
		QueueEntries: 64, SnapshotFile: "kv.snap",
	})
	booted := false
	var bootErr error
	st2.OnReady = func(err error) { bootErr, booted = err, true }
	tb.nic.AddApp(st2)
	tb.run()
	if !booted || bootErr != nil {
		t.Fatalf("recovery boot: %v", bootErr)
	}
	if st2.Stats().SnapshotRestores != 1 {
		t.Fatal("snapshot not used for recovery")
	}
	// The suffix scan counted only post-snapshot records.
	if recs := st2.Stats().RecoveredRecords; recs != 3 {
		t.Fatalf("suffix records = %d, want 3", recs)
	}
	if st2.Keys() != 60 { // 60 +1(post) -1(deleted k07)... 60+1-1 = 60
		t.Fatalf("keys = %d, want 60", st2.Keys())
	}
	check := func(key, want string, status Status) {
		var resp Response
		got := false
		tb.nic.Deliver(31, EncodeRequest(Request{Op: OpGet, Key: key}), func(b []byte) {
			resp, _ = DecodeResponse(b)
			got = true
		})
		tb.run()
		if !got || resp.Status != status || string(resp.Value) != want {
			t.Fatalf("get %q = %+v (%q)", key, resp, resp.Value)
		}
	}
	check("k05", "v05-new", StatusOK)
	check("post", "after-snapshot", StatusOK)
	check("k07", "", StatusNotFound)
	check("k33", "v33", StatusOK)
}

func TestCorruptSnapshotFallsBackToFullScan(t *testing.T) {
	tb := snapTestbed(t)
	for i := 0; i < 20; i++ {
		tb.opApp(t, 30, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i), Value: []byte("v")})
	}
	done := false
	tb.store.Snapshot(func(err error) { done = err == nil })
	tb.run()
	if !done {
		t.Fatal("snapshot failed")
	}
	// Corrupt the snapshot file directly on the volume.
	f, ok := tb.ssd.FS().Lookup("kv.snap")
	if !ok {
		t.Fatal("snapshot file missing")
	}
	wrote := false
	f.WriteAt(0, []byte{0xDE, 0xAD}, func(err error) { wrote = err == nil })
	tb.run()
	if !wrote {
		t.Fatal("corruption write failed")
	}

	st2 := New(Config{
		App: 31, FileName: "kv.dat", Control: mcID,
		QueueEntries: 64, SnapshotFile: "kv.snap",
	})
	booted := false
	st2.OnReady = func(err error) { booted = err == nil }
	tb.nic.AddApp(st2)
	tb.run()
	if !booted {
		t.Fatal("fallback recovery failed")
	}
	if st2.Stats().SnapshotRestores != 0 {
		t.Fatal("corrupt snapshot restored")
	}
	if st2.Keys() != 20 || st2.Stats().RecoveredRecords != 20 {
		t.Fatalf("full scan: keys=%d recs=%d", st2.Keys(), st2.Stats().RecoveredRecords)
	}
}

func TestSnapshotSurvivesSSDFailure(t *testing.T) {
	tb := newTestbed(t, 400*sim.Microsecond)
	st := New(Config{
		App: 30, FileName: "kv.dat", Control: mcID,
		QueueEntries: 64, SnapshotFile: "kv.snap",
	})
	booted := false
	st.OnReady = func(err error) {
		if err == nil {
			booted = true
		}
	}
	tb.nic.AddApp(st)
	tb.run()
	if !booted {
		t.Fatal("boot failed")
	}
	put := func(app uint32, k, v string) {
		done := false
		tb.nic.Deliver(msg.AppID(app), EncodeRequest(Request{Op: OpPut, Key: k, Value: []byte(v)}), func([]byte) { done = true })
		for i := 0; !done && i < 400; i++ {
			tb.eng.RunFor(100 * sim.Microsecond)
		}
		if !done {
			t.Fatal("put hung")
		}
	}
	for i := 0; i < 30; i++ {
		put(30, fmt.Sprintf("k%02d", i), "v")
	}
	snapped := false
	st.Snapshot(func(err error) { snapped = err == nil })
	tb.eng.RunFor(10 * sim.Millisecond)
	if !snapped {
		t.Fatal("snapshot failed")
	}
	put(30, "after", "snap")

	st.OnReady = nil
	tb.ssd.Kill()
	// First wait for the outage to be noticed (watchdog fires, store goes
	// unready), then for recovery.
	deadline := tb.eng.Now().Add(100 * sim.Millisecond)
	for st.Ready() && tb.eng.Now() < deadline {
		tb.eng.RunFor(100 * sim.Microsecond)
	}
	if st.Ready() {
		t.Fatal("store never noticed the SSD failure")
	}
	for !st.Ready() && tb.eng.Now() < deadline {
		tb.eng.RunFor(500 * sim.Microsecond)
	}
	if !st.Ready() {
		t.Fatal("no recovery")
	}
	// Recovery after a real failure used the snapshot and scanned only
	// the suffix.
	if st.Stats().SnapshotRestores == 0 {
		t.Fatal("snapshot unused after SSD failure")
	}
	if st.Keys() != 31 {
		t.Fatalf("keys = %d", st.Keys())
	}
}
