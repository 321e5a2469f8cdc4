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

// nopAnswer is an Answerer that keeps nothing, so what a run through it
// allocates is the store's own cost of answering in place.
type nopAnswer struct{}

func (nopAnswer) Answer(Response) {}
func (nopAnswer) Reply([]byte)    {}

// storeCallers are the two kinds of caller a store answers: a byte
// Replier (the NIC edge), which gets an encoding it owns, and an Answerer
// on the store's own NIC (the fabric router), which gets the Response.
var storeCallers = []struct {
	name string
	rep  smartnic.Replier
}{
	{"", smartnic.ReplyFunc(func([]byte) {})},
	{"-answer", nopAnswer{}},
}

// TestStoreServeAllocs pins what a get that needs no I/O costs the store.
// A byte Replier reads 1, the encoded response; an Answerer reads 0, as it
// gets the Response itself. The storeOp (index-probe event and completion
// in one record) comes off the store's list. (2 while each such op was
// allocated, when every caller got bytes.)
func TestStoreServeAllocs(t *testing.T) {
	tb := servedTestbed(t)
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"cached get", Request{Op: OpGet, Key: "hot"}},
		{"miss", Request{Op: OpGet, Key: "absent"}},
	} {
		for _, caller := range storeCallers {
			n := testing.AllocsPerRun(200, func() {
				tb.store.Serve(c.req, caller.rep)
				tb.eng.Run()
			})
			t.Logf("%s%s: %v allocations", c.name, caller.name, n)
			if n > 1 {
				t.Errorf("%s%s allocates %v times, want <= 1", c.name, caller.name, n)
			}
		}
	}
	if st := tb.store.Stats(); st.CacheHits < 400 || st.Misses < 400 {
		t.Fatalf("the runs were not cache hits and misses: %+v", st)
	}
}

// BenchmarkStoreServe is Store.Serve from the call to the reply for a
// get served from the NIC cache and for a get of an absent key, answered
// in bytes and (-answer) in place.
func BenchmarkStoreServe(b *testing.B) {
	tb := servedTestbed(b)
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"hit", Request{Op: OpGet, Key: "hot"}},
		{"miss", Request{Op: OpGet, Key: "absent"}},
	} {
		for _, caller := range storeCallers {
			b.Run(c.name+caller.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tb.store.Serve(c.req, caller.rep)
					tb.eng.Run()
				}
			})
		}
	}
}
