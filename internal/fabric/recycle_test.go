package fabric

import (
	"slices"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// A forwarded op's record goes back on its client's list as the op leaves
// the pending map, before the client is answered, and a key's gate goes
// back when its last task finishes. The tests below hold a recycled record
// to never being seen in flight.

func answer(status kvs.Status) []byte { return kvs.EncodeResponse(kvs.Response{Status: status}) }

// A WrongOwner refusal re-routes the op on the record it just gave back,
// while another op is pending; each op is answered once, with its own
// answer.
func TestReroutedOpReusesItsRecord(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 3, false, &sent)
	log := &replyLog{resp: map[int][]kvs.Status{}}
	k0, next := keyLedBy(r.v.ring, 2, 0)
	k1, _ := keyLedBy(r.v.ring, 2, next+1)
	r.client.onClient(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: k0}), nil, log.replier(0))
	first := r.client.nextReq
	rec := r.client.pending[first]
	r.client.onClient(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: k1}), nil, log.replier(1))
	other := r.client.nextReq

	r.client.onFabricResp(&msg.FabricResp{ReqID: first, Code: msg.FabricWrongOwner})
	again := r.client.nextReq
	if again == first || r.client.pending[again] != rec {
		t.Fatalf("the re-route went out as req %d on record %p, want a new req on the refused op's record %p", again, r.client.pending[again], rec)
	}
	if key, err := kvs.RequestKey(rec.payload); err != nil || string(key) != k0 {
		t.Fatalf("the re-route carries key %q, want the refused op's %q", key, k0)
	}
	r.client.onFabricResp(&msg.FabricResp{ReqID: first, Code: msg.FabricServed, Payload: answer(kvs.StatusError)})
	r.client.onFabricResp(&msg.FabricResp{ReqID: other, Code: msg.FabricServed, Payload: answer(kvs.StatusNotFound)})
	r.client.onFabricResp(&msg.FabricResp{ReqID: again, Code: msg.FabricServed, Payload: answer(kvs.StatusOK)})
	if !slices.Equal(log.order, []int{1, 0}) || !slices.Equal(log.resp[0], []kvs.Status{kvs.StatusOK}) ||
		!slices.Equal(log.resp[1], []kvs.Status{kvs.StatusNotFound}) {
		t.Fatalf("answered ops %v with %v, want op 1 NotFound then op 0 OK, once each", log.order, log.resp)
	}
	if r.v.stats.Reroutes != 1 || len(r.client.pending) != 0 {
		t.Fatalf("%d re-routes, %d still pending", r.v.stats.Reroutes, len(r.client.pending))
	}
}

// A timed-out op gives its record back; the next forward takes it, and the
// timed-out op's late answer finds nothing: the new op waits for its own.
func TestLateAnswerMissesTheReusedRecord(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 2, false, &sent)
	log := &replyLog{resp: map[int][]kvs.Status{}}
	key, _ := keyLedBy(r.v.ring, 2, 0)
	get := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
	r.client.onClient(get, nil, log.replier(0))
	old := r.client.nextReq
	rec := r.client.pending[old]
	r.v.eng.RunFor(DefaultOpTimeout + sim.Microsecond)
	r.client.onClient(get, nil, log.replier(1))
	id := r.client.nextReq
	if r.client.pending[id] != rec {
		t.Fatal("the next forward did not reuse the timed-out op's record")
	}
	r.client.onFabricResp(&msg.FabricResp{ReqID: old, Code: msg.FabricServed, Payload: answer(kvs.StatusOK)})
	if len(log.resp[1]) != 0 || r.client.pending[id] != rec {
		t.Fatalf("the late answer reached the op that took its record: %v", log.resp[1])
	}
	r.client.onFabricResp(&msg.FabricResp{ReqID: id, Code: msg.FabricServed, Payload: answer(kvs.StatusNotFound)})
	if !slices.Equal(log.resp[0], []kvs.Status{kvs.StatusUnavailable}) || !slices.Equal(log.resp[1], []kvs.Status{kvs.StatusNotFound}) {
		t.Fatalf("answers %v, want op 0 Unavailable and op 1 NotFound", log.resp)
	}
}

// Failing more pending ops than a free list keeps answers each once, and
// the forwards after it, on recycled records and new ones alike, are each
// answered with their own response.
func TestFailPendingPastFreeBound(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 2, false, &sent)
	log := &replyLog{resp: map[int][]kvs.Status{}}
	const n = 3 * sim.FreeBound
	next := 0
	forward := func(op int) uint64 {
		var key string
		key, next = keyLedBy(r.v.ring, 2, next+1)
		r.client.onClient(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key}), nil, log.replier(op))
		return r.client.nextReq
	}
	for op := range n {
		forward(op)
	}
	r.client.failPendingTo([]msg.DeviceID{2})
	ids := make([]uint64, n)
	for i := range n {
		ids[i] = forward(n + i)
	}
	for i, id := range ids {
		st := kvs.StatusOK
		if i%2 == 1 {
			st = kvs.StatusNotFound
		}
		r.client.onFabricResp(&msg.FabricResp{ReqID: id, Code: msg.FabricServed, Payload: answer(st)})
	}
	r.v.eng.RunFor(2 * DefaultOpTimeout) // a timer left armed on a recycled record would fire here
	for op := range 2 * n {
		want := kvs.StatusUnavailable
		switch {
		case op >= n && (op-n)%2 == 0:
			want = kvs.StatusOK
		case op >= n:
			want = kvs.StatusNotFound
		}
		if !slices.Equal(log.resp[op], []kvs.Status{want}) {
			t.Fatalf("op %d answered %v, want %v once", op, log.resp[op], want)
		}
	}
	if len(r.client.pending) != 0 || r.v.stats.Timeouts != 0 {
		t.Fatalf("%d ops still pending, %d timed out", len(r.client.pending), r.v.stats.Timeouts)
	}
}

// A key's gate goes back when its last task finishes, and the next key's
// first write takes it.
func TestIdleGateIsReused(t *testing.T) {
	cl := mustBoot(t, Config{N: 1, Seed: 24})
	r := cl.Machine(1).Router
	answered := 0
	reply := func(b []byte) {
		if resp, _ := kvs.DecodeResponse(b); resp.Status == kvs.StatusOK {
			answered++
		}
	}
	r.repl.servePrimary(kvs.Request{Op: kvs.OpPut, Key: keyFor(0), Value: val64(0)}, smartnic.ReplyFunc(reply))
	g := r.repl.gates[keyFor(0)]
	cl.Eng.Run()
	if r.repl.gates[keyFor(0)] != nil {
		t.Fatal("the idle key kept its gate")
	}
	r.repl.servePrimary(kvs.Request{Op: kvs.OpPut, Key: keyFor(1), Value: val64(1)}, smartnic.ReplyFunc(reply))
	r.repl.servePrimary(kvs.Request{Op: kvs.OpPut, Key: keyFor(1), Value: val64(2)}, smartnic.ReplyFunc(reply))
	if got := r.repl.gates[keyFor(1)]; got != g || len(got.queue) != 1 || got.cur == nil {
		t.Fatal("the next key's writes did not queue on the freed gate")
	}
	cl.Eng.Run()
	if answered != 3 || len(r.repl.gates) != 0 {
		t.Fatalf("%d of 3 writes acked, %d gates left", answered, len(r.repl.gates))
	}
	if resp := do(t, cl, 1, kvs.Request{Op: kvs.OpGet, Key: keyFor(1)}); resp.Status != kvs.StatusOK || string(resp.Value) != string(val64(2)) {
		t.Fatalf("the gated writes left %+v", resp)
	}
}
