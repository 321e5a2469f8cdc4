package kvs

import (
	"bytes"
	"fmt"
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

func TestValueCacheLRU(t *testing.T) {
	c := newValueCache(2)
	c.put("a", []byte{1})
	c.put("b", []byte{2})
	if v, ok := c.get("a"); !ok || v[0] != 1 {
		t.Fatal("a missing")
	}
	// a is now MRU; inserting c evicts b.
	c.put("c", []byte{3})
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	// Refresh updates in place without growing.
	c.put("a", []byte{9})
	if v, _ := c.get("a"); v[0] != 9 {
		t.Fatal("refresh lost")
	}
	if len(c.entries) != 2 {
		t.Fatalf("len = %d", len(c.entries))
	}
	c.drop("a")
	if _, ok := c.get("a"); ok {
		t.Fatal("drop ineffective")
	}
	c.clear()
	if len(c.entries) != 0 {
		t.Fatal("clear ineffective")
	}
}

// cachedTestbed builds a decentralized machine with a cache-enabled KVS.
func cachedTestbed(t testing.TB, entries int) *testbed {
	t.Helper()
	tb := newTestbed(t, 0)
	// Second store with a cache, same file.
	st := New(Config{App: 20, FileName: "kv.dat", Control: mcID, QueueEntries: 64, CacheEntries: entries})
	var bootErr error
	booted := false
	st.OnReady = func(err error) { bootErr, booted = err, true }
	tb.nic.AddApp(st)
	tb.run()
	if !booted || bootErr != nil {
		t.Fatalf("cached store boot: %v", bootErr)
	}
	tb.store = st
	return tb
}

func (tb *testbed) opApp(t testing.TB, app uint32, req Request) Response {
	t.Helper()
	var resp Response
	got := false
	tb.nic.Deliver(msg.AppID(app), EncodeRequest(req), func(b []byte) {
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

func TestCacheServesRepeatGets(t *testing.T) {
	tb := cachedTestbed(t, 16)
	tb.opApp(t, 20, Request{Op: OpPut, Key: "hot", Value: []byte("cached-value")})
	// First get misses the cache? No: put is write-through, so it hits.
	r := tb.opApp(t, 20, Request{Op: OpGet, Key: "hot"})
	if r.Status != StatusOK || string(r.Value) != "cached-value" {
		t.Fatalf("get: %+v", r)
	}
	st := tb.store.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1 (write-through)", st.CacheHits)
	}
	// Cached gets are dramatically faster: no SSD flash trip.
	start := tb.eng.Now()
	tb.opApp(t, 20, Request{Op: OpGet, Key: "hot"})
	cachedTime := tb.eng.Now().Sub(start)
	if cachedTime > 10*sim.Microsecond {
		t.Fatalf("cached get took %v (flash is ~25us — did it go to the SSD?)", cachedTime)
	}
}

func TestCacheCoherentWithUpdatesAndDeletes(t *testing.T) {
	tb := cachedTestbed(t, 16)
	tb.opApp(t, 20, Request{Op: OpPut, Key: "k", Value: []byte("v1")})
	tb.opApp(t, 20, Request{Op: OpPut, Key: "k", Value: []byte("v2")})
	if r := tb.opApp(t, 20, Request{Op: OpGet, Key: "k"}); string(r.Value) != "v2" {
		t.Fatalf("stale cache after update: %q", r.Value)
	}
	tb.opApp(t, 20, Request{Op: OpDelete, Key: "k"})
	if r := tb.opApp(t, 20, Request{Op: OpGet, Key: "k"}); r.Status != StatusNotFound {
		t.Fatalf("cache resurrected deleted key: %+v", r)
	}
}

func TestCacheEvictionFallsBackToSSD(t *testing.T) {
	tb := cachedTestbed(t, 4)
	for i := 0; i < 12; i++ {
		tb.opApp(t, 20, Request{Op: OpPut, Key: fmt.Sprintf("k%02d", i), Value: bytes.Repeat([]byte{byte(i)}, 64)})
	}
	// k00 was evicted long ago; the get must still return correct data
	// (from the SSD) and repopulate the cache.
	r := tb.opApp(t, 20, Request{Op: OpGet, Key: "k00"})
	if r.Status != StatusOK || r.Value[0] != 0 || len(r.Value) != 64 {
		t.Fatalf("evicted key: %+v", r)
	}
	before := tb.store.Stats().CacheHits
	r = tb.opApp(t, 20, Request{Op: OpGet, Key: "k00"})
	if r.Status != StatusOK {
		t.Fatalf("refetched key: %+v", r)
	}
	if tb.store.Stats().CacheHits != before+1 {
		t.Fatal("miss did not repopulate the cache")
	}
}

// TestCacheOwnsValues: the write-through put keeps its own copy of the
// value. A replicated put's value is a window on the frame it arrived in,
// and frames share chunks, so whatever happens to the caller's buffer
// after the put, a cached get answers with the bytes that were put.
func TestCacheOwnsValues(t *testing.T) {
	tb := cachedTestbed(t, 16)
	val := []byte("original-value")
	var resp Response
	reply := smartnic.ReplyFunc(func(b []byte) {
		var err error
		if resp, err = DecodeResponse(b); err != nil {
			t.Fatal(err)
		}
	})
	tb.store.Serve(Request{Op: OpPut, Key: "k", Value: val}, reply)
	tb.eng.Run()
	if resp.Status != StatusOK {
		t.Fatalf("put: %+v", resp)
	}
	for i := range val {
		val[i] = 'x'
	}
	hits := tb.store.Stats().CacheHits
	tb.store.Serve(Request{Op: OpGet, Key: "k"}, reply)
	tb.eng.Run()
	if tb.store.Stats().CacheHits != hits+1 {
		t.Fatal("the get was not served from the cache")
	}
	if resp.Status != StatusOK || string(resp.Value) != "original-value" {
		t.Fatalf("cached get after the put's buffer was reused: %+v", resp)
	}
}

// TestCacheFillKeepsLentValue: a get that misses the cache fills it from
// the file read, whose bytes are lent (a view of the queue's reap buffer).
// The cache keeps a copy, so a later read on the same queue, which reuses
// that buffer, does not change what a cached get answers.
func TestCacheFillKeepsLentValue(t *testing.T) {
	tb := cachedTestbed(t, 2)
	vals := map[string]string{"a": "value-of-a", "b": "value-of-b", "c": "value-of-c"}
	for _, k := range []string{"a", "b", "c"} { // a is evicted
		tb.opApp(t, 20, Request{Op: OpPut, Key: k, Value: []byte(vals[k])})
	}
	for _, k := range []string{"a", "b"} { // each misses and fills, a first
		hits := tb.store.Stats().CacheHits
		if r := tb.opApp(t, 20, Request{Op: OpGet, Key: k}); r.Status != StatusOK || string(r.Value) != vals[k] {
			t.Fatalf("get %s: %+v", k, r)
		}
		if tb.store.Stats().CacheHits != hits {
			t.Fatalf("get %s was served from the cache", k)
		}
	}
	hits := tb.store.Stats().CacheHits
	r := tb.opApp(t, 20, Request{Op: OpGet, Key: "a"})
	if tb.store.Stats().CacheHits != hits+1 {
		t.Fatal("the get was not served from the cache")
	}
	if r.Status != StatusOK || string(r.Value) != vals["a"] {
		t.Errorf("cached get of a after a read of b answers %+v, want %q", r, vals["a"])
	}
}
