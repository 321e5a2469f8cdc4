package kvs

import (
	"bytes"
	"testing"

	"nocpu/internal/smartnic"
)

// A get that makes no file request goes back on the store's list when it
// is answered, before the reply runs; a get that made one never goes back.
// The tests below hold a recycled op to never being seen in flight.

// responses collects the answers a test's gets receive.
type responses []Response

func (r *responses) replier(t *testing.T) smartnic.Replier {
	return smartnic.ReplyFunc(func(b []byte) {
		resp, err := DecodeResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		*r = append(*r, resp)
	})
}

// While a get that missed the one-entry cache has its file request in
// flight, cache hits reuse each other's op and never the miss's; the miss
// keeps its op to the end, and both answer their own values.
func TestCacheHitReusesOpButFileGetDoesNot(t *testing.T) {
	tb := cachedTestbed(t, 1)
	cold, hot := bytes.Repeat([]byte{0xc0}, 48), bytes.Repeat([]byte{0x40}, 64)
	tb.opApp(t, 20, Request{Op: OpPut, Key: "cold", Value: cold})
	tb.opApp(t, 20, Request{Op: OpPut, Key: "hot", Value: hot}) // evicts cold
	if r := tb.opApp(t, 20, Request{Op: OpGet, Key: "hot"}); r.Status != StatusOK {
		t.Fatalf("warm get: %+v", r)
	}
	ops := &tb.store.ops
	spare := ops.Get() // the warm get's op, the only one on the list
	ops.Put(spare)

	var miss, hits responses
	tb.store.Serve(Request{Op: OpGet, Key: "cold"}, miss.replier(t)) // takes spare
	var first *storeOp
	for round := range 2 {
		tb.store.Serve(Request{Op: OpGet, Key: "hot"}, hits.replier(t))
		for len(hits) == round && tb.eng.Step() {
		}
		if len(hits) != round+1 || len(miss) != 0 {
			t.Fatalf("round %d: %d hits and %d misses answered, want the hit before the miss", round, len(hits), len(miss))
		}
		op := ops.Get()
		ops.Put(op)
		switch {
		case op == spare:
			t.Fatal("a hit took the op of the miss whose file request is in flight")
		case first == nil:
			first = op
		case op != first:
			t.Fatal("the second hit did not reuse the first one's op")
		}
	}
	tb.eng.Run()
	if len(miss) != 1 || miss[0].Status != StatusOK || !bytes.Equal(miss[0].Value, cold) {
		t.Fatalf("the miss answered %+v, want cold's value once", miss)
	}
	for i, r := range hits {
		if r.Status != StatusOK || !bytes.Equal(r.Value, hot) {
			t.Fatalf("hit %d answered %+v, want hot's value", i, r)
		}
	}
	if st := tb.store.Stats(); st.CacheHits < 3 {
		t.Fatalf("%d cache hits, want the warm get and both rounds", st.CacheHits)
	}
	if op := ops.Get(); op == spare {
		t.Fatal("the op that made a file request went back on the list")
	}
}

// A reply that serves the next request (as a fabric write task does) gets
// the op its own answer just gave back; each request hears its own answer.
func TestReplyThatServesAgainReusesTheOp(t *testing.T) {
	tb := servedTestbed(t)
	var got []Status
	const chain = 6
	var next smartnic.Replier
	next = smartnic.ReplyFunc(func(b []byte) {
		resp, _ := DecodeResponse(b)
		got = append(got, resp.Status)
		if len(got) < chain {
			key := "hot"
			if len(got)%2 == 1 {
				key = "absent"
			}
			tb.store.Serve(Request{Op: OpGet, Key: key}, next)
		}
	})
	tb.store.Serve(Request{Op: OpGet, Key: "hot"}, next)
	tb.eng.Run()
	if len(got) != chain {
		t.Fatalf("%d answers, want %d", len(got), chain)
	}
	for i, st := range got {
		want := StatusOK
		if i%2 == 1 {
			want = StatusNotFound
		}
		if st != want {
			t.Fatalf("answer %d is %v, want %v: %v", i, st, want, got)
		}
	}
}
