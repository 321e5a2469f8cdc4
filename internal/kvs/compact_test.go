package kvs

import (
	"fmt"
	"testing"

	"nocpu/internal/smartssd"
)

func TestCompactShrinksLogAndPreservesData(t *testing.T) {
	tb := newTestbed(t, 0)
	// Churn: write each key 5 times, delete a third of them.
	const keys = 30
	for round := 0; round < 5; round++ {
		for i := 0; i < keys; i++ {
			tb.op(t, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i),
				Value: []byte(fmt.Sprintf("v%02d-r%d", i, round))})
		}
	}
	for i := 0; i < keys; i += 3 {
		tb.op(t, Request{Op: OpDelete, Key: fmt.Sprintf("k%02d", i)})
	}
	f, _ := tb.ssd.FS().Lookup("kv.dat")
	sizeBefore := f.Size()

	done := false
	var cerr error
	tb.store.Compact(func(err error) { cerr, done = err, true })
	tb.run()
	if !done || cerr != nil {
		t.Fatalf("compact: done=%v err=%v", done, cerr)
	}
	if tb.store.Stats().Compactions != 1 {
		t.Fatal("compaction not counted")
	}
	f2, ok := tb.ssd.FS().Lookup("kv.dat")
	if !ok {
		t.Fatal("data file gone after compaction")
	}
	if f2.Size() >= sizeBefore/3 {
		t.Fatalf("log not compacted: %d -> %d", sizeBefore, f2.Size())
	}
	// All live keys intact with their final values; deleted keys stay
	// deleted.
	for i := 0; i < keys; i++ {
		r := tb.op(t, Request{Op: OpGet, Key: fmt.Sprintf("k%02d", i)})
		if i%3 == 0 {
			if r.Status != StatusNotFound {
				t.Fatalf("deleted k%02d resurrected: %+v", i, r)
			}
			continue
		}
		if r.Status != StatusOK || string(r.Value) != fmt.Sprintf("v%02d-r4", i) {
			t.Fatalf("k%02d after compact: %+v (%q)", i, r, r.Value)
		}
	}
	// Writes work again post-compaction.
	if r := tb.op(t, Request{Op: OpPut, Key: "fresh", Value: []byte("new")}); r.Status != StatusOK {
		t.Fatalf("post-compact put: %+v", r)
	}
	if r := tb.op(t, Request{Op: OpGet, Key: "fresh"}); string(r.Value) != "new" {
		t.Fatalf("post-compact get: %+v", r)
	}
}

func TestRecoveryFromCompactedLog(t *testing.T) {
	tb := newTestbed(t, 0)
	for i := 0; i < 20; i++ {
		tb.op(t, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i), Value: []byte("x")})
		tb.op(t, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i), Value: []byte(fmt.Sprintf("final%02d", i))})
	}
	done := false
	tb.store.Compact(func(err error) {
		if err != nil {
			t.Errorf("compact: %v", err)
		}
		done = true
	})
	tb.run()
	if !done {
		t.Fatal("compact incomplete")
	}
	// Post-compact writes append past the compacted prefix.
	tb.op(t, Request{Op: OpPut, Key: "tail", Value: []byte("record")})

	// A fresh store recovers the exact state by scanning the compacted
	// log.
	st2 := New(Config{App: 40, FileName: "kv.dat", Control: mcID, QueueEntries: 64})
	booted := false
	var bootErr error
	st2.OnReady = func(err error) { bootErr, booted = err, true }
	tb.nic.AddApp(st2)
	tb.run()
	if !booted || bootErr != nil {
		t.Fatalf("recovery: %v", bootErr)
	}
	if st2.Keys() != 21 {
		t.Fatalf("recovered keys = %d, want 21", st2.Keys())
	}
	// 20 compacted + 1 tail record: exactly 21 records scanned.
	if recs := st2.Stats().RecoveredRecords; recs != 21 {
		t.Fatalf("records scanned = %d, want 21", recs)
	}
}

func TestWritesRefusedDuringCompaction(t *testing.T) {
	tb := newTestbed(t, 0)
	for i := 0; i < 50; i++ {
		tb.op(t, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i), Value: make([]byte, 400)})
	}
	compDone := false
	tb.store.Compact(func(err error) {
		if err != nil {
			t.Errorf("compact: %v", err)
		}
		compDone = true
	})
	// Issue a put immediately (compaction is still streaming: no engine
	// run since Compact).
	var putResp Response
	putGot := false
	tb.nic.Deliver(10, EncodeRequest(Request{Op: OpPut, Key: "during", Value: []byte("x")}), func(b []byte) {
		putResp, _ = DecodeResponse(b)
		putGot = true
	})
	// And a get, which must succeed from the old file.
	var getResp Response
	getGot := false
	tb.nic.Deliver(10, EncodeRequest(Request{Op: OpGet, Key: "k05"}), func(b []byte) {
		getResp, _ = DecodeResponse(b)
		getGot = true
	})
	tb.run()
	if !compDone || !putGot || !getGot {
		t.Fatalf("flow incomplete: comp=%v put=%v get=%v", compDone, putGot, getGot)
	}
	if putResp.Status != StatusUnavailable {
		t.Fatalf("put during compaction: %+v", putResp)
	}
	if getResp.Status != StatusOK || len(getResp.Value) != 400 {
		t.Fatalf("get during compaction: %+v", getResp)
	}
}

func TestCompactGuards(t *testing.T) {
	tb := newTestbed(t, 0)
	errs := 0
	tb.store.Compact(func(err error) {
		if err != nil {
			errs++
		}
	})
	// Double compact while the first runs.
	tb.store.Compact(func(err error) {
		if err != nil {
			errs++
		}
	})
	tb.run()
	if errs != 1 {
		t.Fatalf("concurrent-compact guard: errs=%d, want 1", errs)
	}
}

func TestFSRenameOver(t *testing.T) {
	tb := newTestbed(t, 0)
	fs := tb.ssd.FS()
	var a, b *smartssd.File
	fs.Create("a", func(f *smartssd.File, err error) { a = f })
	fs.Create("b", func(f *smartssd.File, err error) { b = f })
	tb.run()
	wrote := false
	a.WriteAt(0, []byte("contents-of-a"), func(err error) { wrote = err == nil })
	tb.run()
	if !wrote {
		t.Fatal("write failed")
	}
	renamed := false
	a.Rename("b", func(err error) {
		if err != nil {
			t.Errorf("rename: %v", err)
		}
		renamed = true
	})
	tb.run()
	if !renamed {
		t.Fatal("rename incomplete")
	}
	_ = b
	// Only one "b" remains, with a's contents; "a" is gone.
	if _, ok := fs.Lookup("a"); ok {
		t.Fatal("old name survives")
	}
	nb, ok := fs.Lookup("b")
	if !ok || nb.Size() != 13 {
		t.Fatalf("rename-over target wrong (ok=%v)", ok)
	}
	if len(fs.List()) != 2 { // kv.dat + b
		t.Fatalf("directory = %v", fs.List())
	}
}
