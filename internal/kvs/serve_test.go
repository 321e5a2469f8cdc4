package kvs

import (
	"testing"

	"nocpu/internal/smartnic"
)

// servedTestbed is a cache-enabled store holding one key, read once so
// the value sits in the NIC cache.
func servedTestbed(t testing.TB) *testbed {
	tb := cachedTestbed(t, 16)
	if r := tb.opApp(t, 20, Request{Op: OpPut, Key: "hot", Value: make([]byte, 64)}); r.Status != StatusOK {
		t.Fatalf("put: %v", r.Status)
	}
	if r := tb.opApp(t, 20, Request{Op: OpGet, Key: "hot"}); r.Status != StatusOK {
		t.Fatalf("get: %v", r.Status)
	}
	return tb
}

// TestStoreServeAllocs pins what a get that needs no I/O costs the store:
// the encoded response. Its storeOp (index-probe event and completion in
// one record) comes off the store's list. (2 while each such op was
// allocated.)
func TestStoreServeAllocs(t *testing.T) {
	tb := servedTestbed(t)
	reply := smartnic.ReplyFunc(func([]byte) {})
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"cached get", Request{Op: OpGet, Key: "hot"}},
		{"miss", Request{Op: OpGet, Key: "absent"}},
	} {
		n := testing.AllocsPerRun(200, func() {
			tb.store.Serve(c.req, reply)
			tb.eng.Run()
		})
		t.Logf("%s: %v allocations", c.name, n)
		if n > 1 {
			t.Errorf("%s allocates %v times, want <= 1", c.name, n)
		}
	}
	if st := tb.store.Stats(); st.CacheHits < 200 || st.Misses < 200 {
		t.Fatalf("the runs were not cache hits and misses: %+v", st)
	}
}

// BenchmarkStoreServe is Store.Serve from the call to the reply for a
// get served from the NIC cache and for a get of an absent key.
func BenchmarkStoreServe(b *testing.B) {
	tb := servedTestbed(b)
	reply := smartnic.ReplyFunc(func([]byte) {})
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"hit", Request{Op: OpGet, Key: "hot"}},
		{"miss", Request{Op: OpGet, Key: "absent"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb.store.Serve(c.req, reply)
				tb.eng.Run()
			}
		})
	}
}
