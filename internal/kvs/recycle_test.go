package kvs

import (
	"bytes"
	"errors"
	"testing"

	"nocpu/internal/smartnic"
	"nocpu/internal/tenant"
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

// answerLog is an Answerer that keeps a copy of every answer it gets, and
// counts the byte replies it should never get.
type answerLog struct {
	got     []Response
	replies int
}

func (a *answerLog) Answer(resp Response) {
	a.got = append(a.got, Response{Status: resp.Status, Value: bytes.Clone(resp.Value)})
}

func (a *answerLog) Reply([]byte) { a.replies++ }

// A caller may put its Replier record back as the answer begins (the
// fabric's served and applied records) only because Serve answers each
// Replier at most once. Every exit of Serve answers an Answerer exactly
// once, in place, and a byte Replier with EncodeResponse of the same
// Response.
func TestServeExitsAnswerOnceForReuse(t *testing.T) {
	tb := newTestbed(t, 0)
	reg := tenant.NewRegistry()
	reg.SetBudget(2, tenant.Budget{KVSInflight: 1})
	s := New(Config{App: 12, FileName: "kv.dat", Control: mcID, QueueEntries: 64,
		CacheEntries: 16, InflightBound: 4, Tenancy: reg})
	booted := false
	s.OnReady = func(err error) { booted = err == nil }
	tb.nic.AddApp(s)
	tb.run()
	if !booted {
		t.Fatal("store did not boot")
	}
	serve := func(req Request) {
		s.Serve(req, smartnic.ReplyFunc(func([]byte) {}))
		tb.run()
	}
	hot, cold := bytes.Repeat([]byte{0x40}, 64), bytes.Repeat([]byte{0xc0}, 48)
	serve(Request{Op: OpPut, Key: "hot", Value: hot})
	serve(Request{Op: OpPut, Key: "cold", Value: cold})
	serve(Request{Op: OpPut, Key: "empty"})

	nothing := func() {}
	for _, c := range []struct {
		name  string
		req   Request
		setup func() (undo func())
		want  Status
		value []byte
	}{
		{"unavailable", Request{Op: OpGet, Key: "hot"}, func() func() {
			s.ready = false
			return func() { s.ready = true }
		}, StatusUnavailable, nil},
		{"denied", Request{Op: OpGet, Key: "t1/x", Tenant: 2}, nil, StatusDenied, nil},
		{"tenant shed", Request{Op: OpGet, Key: "hot", Tenant: 2}, func() func() {
			s.tenInflight[2] = 1
			return func() { s.tenInflight[2] = 0 }
		}, StatusShed, nil},
		{"deadline shed", Request{Op: OpGet, Key: "hot", Deadline: 1}, nil, StatusShed, nil},
		{"inflight shed", Request{Op: OpGet, Key: "hot"}, func() func() {
			s.inflight = s.cfg.InflightBound
			return func() { s.inflight = 0 }
		}, StatusShed, nil},
		{"hit", Request{Op: OpGet, Key: "hot"}, nil, StatusOK, hot},
		{"miss", Request{Op: OpGet, Key: "absent"}, nil, StatusNotFound, nil},
		{"empty value", Request{Op: OpGet, Key: "empty"}, func() func() {
			s.cache.drop("empty")
			return nothing
		}, StatusOK, nil},
		{"file read", Request{Op: OpGet, Key: "cold"}, func() func() {
			s.cache.drop("cold")
			return nothing
		}, StatusOK, cold},
		{"put", Request{Op: OpPut, Key: "new", Value: []byte("v")}, nil, StatusOK, nil},
		{"delete", Request{Op: OpDelete, Key: "gone"}, func() func() {
			serve(Request{Op: OpPut, Key: "gone", Value: []byte("v")})
			return nothing
		}, StatusOK, nil},
		{"I/O error", Request{Op: OpGet, Key: "cold"}, func() func() {
			s.cache.drop("cold")
			s.fc.Fail(errors.New("test: queue failed"))
			return nothing
		}, StatusError, nil},
	} {
		run := func(rep smartnic.Replier) {
			undo := nothing
			if c.setup != nil {
				undo = c.setup()
			}
			s.Serve(c.req, rep)
			tb.run()
			undo()
		}
		ioErrors := s.Stats().IOErrors
		a := &answerLog{}
		run(a)
		var encoded [][]byte
		run(smartnic.ReplyFunc(func(b []byte) { encoded = append(encoded, b) }))
		if len(a.got) != 1 || a.replies != 0 {
			t.Fatalf("%s: the Answerer got %d answers and %d byte replies, want one answer", c.name, len(a.got), a.replies)
		}
		if got := a.got[0]; got.Status != c.want || !bytes.Equal(got.Value, c.value) {
			t.Fatalf("%s: answered %v with %d value bytes, want %v with %d", c.name, got.Status, len(got.Value), c.want, len(c.value))
		}
		if len(encoded) != 1 || !bytes.Equal(encoded[0], EncodeResponse(a.got[0])) {
			t.Fatalf("%s: the byte Replier got %x, want one %x", c.name, encoded, EncodeResponse(a.got[0]))
		}
		if c.want == StatusError && s.Stats().IOErrors != ioErrors+2 {
			t.Fatalf("%s: %d I/O errors counted, want 2", c.name, s.Stats().IOErrors-ioErrors)
		}
	}
}
