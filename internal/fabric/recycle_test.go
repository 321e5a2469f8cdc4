package fabric

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// A forwarded op's record goes back on its client's list as the op leaves
// the pending map, before the client is answered, a key's gate goes back
// when its last task finishes, a write task when it finishes or is shed,
// and the owner's served and the backup's applied records go back as the
// store's one answer to them begins. The tests below hold a recycled
// record to never being seen in flight.

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

// top returns the record a free list hands out next, leaving it there.
func top[T any](f *sim.Free[T]) *T {
	r := f.Get()
	f.Put(r)
	return r
}

// watchFrames hands every frame the cluster's network delivers to see
// first; a frame see refuses is lost on the wire.
func watchFrames(cl *Cluster, see func(dst msg.DeviceID, env msg.Envelope) bool) {
	deliver := cl.net.deliver
	cl.net.deliver = func(dst msg.DeviceID, frame []byte) {
		env, err := msg.Decode(frame[1:])
		if err != nil || see(dst, env) {
			deliver(dst, frame)
		}
	}
}

// sentAnswer is one answer a machine sent: a FabricResp to (to, id) or a
// ReplicateAck to (to, seq).
type sentAnswer struct {
	to     msg.DeviceID
	id     uint64
	status kvs.Status
	ok     bool
	value  string
}

// An owner answers every copy of a duplicated forwarded op, and a backup
// applies and acks every copy of a duplicated Replicate. The value cache
// is off, so the first copy of each is still in its file op when the next
// arrives, and each later copy takes the record that a quick answer (a get
// or a delete of an absent key) gave back just before. Every answer goes
// to its own (origin, ReqID) or (src, Seq), as many times as it was asked.
func TestDuplicatesReuseAnswerRecords(t *testing.T) {
	cl := mustBoot(t, Config{N: 3, Seed: 9, MachineMemory: 4 << 20})
	const owner = msg.DeviceID(2)
	r := cl.Machine(owner).Router
	hot, next := keyLedBy(cl.Ring, owner, 0)
	val := bytes.Repeat([]byte{0x5a}, 40)
	if resp := do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: hot, Value: val}); resp.Status != kvs.StatusOK {
		t.Fatalf("put: %v", resp.Status)
	}
	var sent []sentAnswer
	watchFrames(cl, func(dst msg.DeviceID, env msg.Envelope) bool {
		if env.Src != owner {
			return true
		}
		switch m := env.Msg.(type) {
		case *msg.FabricResp:
			resp, err := kvs.DecodeResponse(m.Payload)
			if err != nil {
				t.Fatalf("answer to req %d does not decode: %v", m.ReqID, err)
			}
			sent = append(sent, sentAnswer{to: dst, id: m.ReqID, status: resp.Status, value: string(resp.Value)})
		case *msg.ReplicateAck:
			sent = append(sent, sentAnswer{to: dst, id: m.Seq, ok: m.OK})
		}
		return true
	})

	const copies = 3
	var want []sentAnswer
	dupReq := &msg.FabricReq{Origin: 1, ReqID: 7, Payload: kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: hot})}
	dupRep := &msg.Replicate{Epoch: r.v.epoch, Seq: 900, Key: "dup", Value: val}
	for i := range copies {
		var absent string
		absent, next = keyLedBy(cl.Ring, owner, next+1)
		quick := &msg.FabricReq{Origin: 3, ReqID: uint64(100 + i), Payload: kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: absent})}
		quickDel := &msg.Replicate{Epoch: r.v.epoch, Seq: uint64(950 + i), Del: true, Key: absent}
		if i > 0 {
			// A quick answer gives its record back while the first copies
			// are still in their file ops.
			rec, arec := top(&r.client.serves), top(&r.repl.applieds)
			r.client.onFabricReq(quick)
			r.repl.onReplicate(3, quickDel)
			for len(sent) < 2*i && cl.Eng.Step() {
			}
			if len(sent) != 2*i || slices.ContainsFunc(sent, func(a sentAnswer) bool { return a.to != 3 }) {
				t.Fatalf("copy %d: sent %v, want only the quick answers", i, sent)
			}
			if top(&r.client.serves) != rec || top(&r.repl.applieds) != arec {
				t.Fatalf("copy %d: a quick answer did not give its record back", i)
			}
		}
		r.client.onFabricReq(dupReq)
		r.repl.onReplicate(1, dupRep)
		want = append(want, sentAnswer{to: 1, id: 7, status: kvs.StatusOK, value: string(val)}, sentAnswer{to: 1, id: 900, ok: true})
		if i > 0 {
			want = append(want, sentAnswer{to: 3, id: quick.ReqID, status: kvs.StatusNotFound}, sentAnswer{to: 3, id: quickDel.Seq, ok: true})
		}
	}
	cl.Eng.RunFor(sim.Millisecond)
	key := func(a sentAnswer) string { return fmt.Sprintf("%d/%d/%d/%v/%x", a.to, a.id, a.status, a.ok, a.value) }
	got, exp := make([]string, len(sent)), make([]string, len(want))
	for i, a := range sent {
		got[i] = key(a)
	}
	for i, a := range want {
		exp[i] = key(a)
	}
	slices.Sort(got)
	slices.Sort(exp)
	if !slices.Equal(got, exp) {
		t.Fatalf("sent answers\n%v\nwant\n%v", got, exp)
	}
}

// A resync's sync task reads each value from the SSD (the value cache is
// off), so the store's answer lends it the queue's reap buffer, and it
// replicates that value until every target acks. It keeps its own copy:
// when its first Replicate to the backup is lost, the retransmit carries
// the value it read, not the bytes of a later read that reused the buffer.
func TestSyncTaskKeepsLentValue(t *testing.T) {
	cl := mustBoot(t, Config{N: 3, Seed: 9, MachineMemory: 4 << 20})
	const primary = msg.DeviceID(2)
	r := cl.Machine(primary).Router
	var keys []string
	var backup msg.DeviceID
	for i := 0; len(keys) < 4; i++ {
		own := cl.Ring.Owners(keyFor(i), nil, DefaultReplicas)
		if own[0] != primary || (backup != 0 && own[1] != backup) {
			continue
		}
		backup = own[1]
		keys = append(keys, keyFor(i))
	}
	value := func(i int) []byte { return bytes.Repeat([]byte{byte(0xa0 + i)}, 32) }
	for i, k := range keys {
		if resp := do(t, cl, primary, kvs.Request{Op: kvs.OpPut, Key: k, Value: value(i)}); resp.Status != kvs.StatusOK {
			t.Fatalf("put %q: %v", k, resp.Status)
		}
	}
	var lost string
	resent := 0
	watchFrames(cl, func(dst msg.DeviceID, env msg.Envelope) bool {
		m, ok := env.Msg.(*msg.Replicate)
		switch {
		case !ok || env.Src != primary || dst != backup:
		case lost == "":
			lost = m.Key
			return false
		case m.Key == lost:
			resent++
		}
		return true
	})
	resyncs := r.v.stats.Resyncs
	r.repl.resync(map[msg.DeviceID]bool{backup: true}) // as if the backup just came back
	cl.Eng.RunFor(4 * DefaultRepRetry)
	if r.v.stats.Resyncs-resyncs != uint64(len(keys)) || resent == 0 || len(r.repl.inflight) != 0 {
		t.Fatalf("%d resyncs, want %d; the lost Replicate of %q was sent again %d times; %d tasks in flight",
			r.v.stats.Resyncs-resyncs, len(keys), lost, resent, len(r.repl.inflight))
	}
	for i, k := range keys {
		var got kvs.Response
		cl.Machine(backup).Store.Serve(kvs.Request{Op: kvs.OpGet, Key: k}, smartnic.ReplyFunc(func(b []byte) {
			got, _ = kvs.DecodeResponse(b)
		}))
		cl.Eng.RunFor(sim.Millisecond)
		if got.Status != kvs.StatusOK || !bytes.Equal(got.Value, value(i)) {
			t.Fatalf("the backup holds %q = %x (%v), want %x", k, got.Value, got.Status, value(i))
		}
	}
}

// A write task goes back on its replicator's list when it finishes, once
// its gate has moved on and before the key's next task starts, and a
// shed write's task goes back as its refusal is answered. More writes
// than the list keeps queue on one key and one more is shed; the transfer
// task a staged ring then queues behind them takes the shed write's
// record. Every write is answered once, in order, with its own status,
// the transfer drains, and a second burst starts on a record the first
// gave back.
func TestQueuedWritesReuseTheirTasks(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 23})
	key := keyOwnedBy(cl, 1)
	do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(1 << 40)})
	r := cl.Machine(1).Router
	log := &replyLog{resp: map[int][]kvs.Status{}}
	ops := 0
	burst := func(n int) {
		for range n {
			r.repl.servePrimary(kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(uint64(ops))}, log.replier(ops))
			ops++
		}
	}
	// answered checks that ops from..ops-1 were each answered once, in
	// order, OK but for shed, and that the key's replicas hold the last
	// accepted write.
	answered := func(from, shed int) {
		t.Helper()
		var order []int
		for op := from; op < ops; op++ {
			want := kvs.StatusOK
			if op == shed {
				want = kvs.StatusShed
			} else {
				order = append(order, op)
			}
			if !slices.Equal(log.resp[op], []kvs.Status{want}) {
				t.Fatalf("write %d answered %v, want %v once", op, log.resp[op], want)
			}
		}
		if got := slices.DeleteFunc(slices.Clone(log.order), func(op int) bool { return op < from || op == shed }); !slices.Equal(got, order) {
			t.Fatalf("writes acked in order %v, want %v", got, order)
		}
		if len(r.repl.gates) != 0 || len(r.repl.inflight) != 0 {
			t.Fatalf("%d gates open, %d tasks in flight", len(r.repl.gates), len(r.repl.inflight))
		}
		last := uint64(ops - 1)
		if last == uint64(shed) {
			last--
		}
		for _, id := range append([]msg.DeviceID{1}, r.v.repTargets(key)...) {
			var held kvs.Response
			cl.Machine(id).Store.Serve(kvs.Request{Op: kvs.OpGet, Key: key}, smartnic.ReplyFunc(func(b []byte) {
				held, _ = kvs.DecodeResponse(b)
			}))
			cl.Eng.RunFor(sim.Millisecond)
			if !bytes.Equal(held.Value, val64(last)) {
				t.Fatalf("machine %d holds %x (%v), want write %d's value", id, held.Value, held.Status, last)
			}
		}
	}

	burst(DefaultWriteBound + 2)
	shed := DefaultWriteBound + 1
	if !slices.Equal(log.order, []int{shed}) || !slices.Equal(log.resp[shed], []kvs.Status{kvs.StatusShed}) {
		t.Fatalf("answered %v before the engine ran, want only write %d, shed", log.order, shed)
	}
	rec := top(&r.repl.tasks)
	backup := cl.Ring.Owners(key, nil, DefaultReplicas)[1]
	var members []msg.DeviceID
	for _, id := range cl.MachineIDs() {
		if id != backup {
			members = append(members, id)
		}
	}
	ringPhase(r, 1, msg.RingPrepare, 1, members...)
	g := r.repl.gates[key]
	if last := g.queue[len(g.queue)-1]; last != rec || last.xfer == nil || r.tr.left != 1 {
		t.Fatalf("the transfer task is %p (xfer %v, %d left), want it on the shed write's record %p", last, last.xfer != nil, r.tr.left, rec)
	}
	cl.Eng.RunFor(sim.Second)
	answered(0, shed)
	if r.tr.left != 0 || !r.TransferDone() {
		t.Fatalf("the transfer ended with %d tasks left", r.tr.left)
	}

	rec, from := top(&r.repl.tasks), ops
	burst(sim.FreeBound + 1)
	if r.repl.gates[key].cur != rec {
		t.Fatal("the second burst did not start on a finished task's record")
	}
	cl.Eng.RunFor(sim.Second)
	answered(from, -1)
}

// A kill's view change queues a resync task on a key whose gate holds
// more writes than the list keeps, half of them on records an earlier
// burst gave back. The writes wait on the dead backup until the view
// changes, every one is answered once, in order, and the sync task
// finishes last and leaves the new backup with the last write.
func TestResyncAfterKillReusesTasks(t *testing.T) {
	cl := mustBoot(t, Config{N: 3, Seed: 9})
	key := keyOwnedBy(cl, 1)
	r := cl.Machine(1).Router
	log := &replyLog{resp: map[int][]kvs.Status{}}
	ops := 0
	burst := func(n int) {
		for range n {
			r.repl.servePrimary(kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(uint64(ops))}, log.replier(ops))
			ops++
		}
	}
	burst(sim.FreeBound)
	cl.Eng.RunFor(sim.Second)
	if len(log.order) != sim.FreeBound || len(r.repl.gates) != 0 {
		t.Fatalf("%d of %d warm-up writes answered, %d gates open", len(log.order), sim.FreeBound, len(r.repl.gates))
	}

	backup := cl.Ring.Owners(key, nil, DefaultReplicas)[1]
	cl.Kill(backup)
	rec := top(&r.repl.tasks)
	burst(2 * sim.FreeBound)
	if r.repl.gates[key].cur != rec {
		t.Fatal("the burst did not start on a warm-up write's record")
	}
	views, resyncs := r.v.stats.ViewChanges, r.v.stats.Resyncs
	for r.v.stats.ViewChanges == views && cl.Eng.Step() {
	}
	if r.v.stats.Resyncs == resyncs {
		t.Fatal("the view change resynced nothing")
	}
	g := r.repl.gates[key]
	if g == nil || len(g.queue) == 0 || !g.queue[len(g.queue)-1].sync {
		t.Fatal("the resync task did not queue behind the waiting writes")
	}
	cl.Eng.RunFor(sim.Second)
	want := make([]int, ops)
	for op := range want {
		want[op] = op
		if !slices.Equal(log.resp[op], []kvs.Status{kvs.StatusOK}) {
			t.Fatalf("write %d answered %v, want OK once", op, log.resp[op])
		}
	}
	if !slices.Equal(log.order, want) {
		t.Fatalf("writes acked in order %v, want %v", log.order, want)
	}
	if len(r.repl.gates) != 0 || len(r.repl.inflight) != 0 {
		t.Fatalf("%d gates open, %d tasks in flight", len(r.repl.gates), len(r.repl.inflight))
	}
	now := r.v.repTargets(key)
	if len(now) != 1 || now[0] == backup {
		t.Fatalf("replication targets %v after the kill of %d", now, backup)
	}
	var held kvs.Response
	cl.Machine(now[0]).Store.Serve(kvs.Request{Op: kvs.OpGet, Key: key}, smartnic.ReplyFunc(func(b []byte) {
		held, _ = kvs.DecodeResponse(b)
	}))
	cl.Eng.RunFor(sim.Millisecond)
	if !bytes.Equal(held.Value, val64(uint64(ops-1))) {
		t.Fatalf("the new backup %d holds %x (%v), want the last write's value", now[0], held.Value, held.Status)
	}
}

// The NIC puts a RequestApp's delivery back on its list once the answer
// has crossed tx, which is safe only because Router.ServeRequest answers
// each Replier at most once and keeps it no longer. Every exit of
// ServeRequest answers a byte Replier (as the NIC's delivery is) exactly
// once, with its own status, and nothing answers it again later.
func TestServeRequestExitsAnswerOnceForReuse(t *testing.T) {
	cl := mustBoot(t, Config{N: 3, Seed: 9, Leases: true})
	r := cl.Machine(1).Router
	mine, next := keyLedBy(cl.Ring, 1, 0)
	theirs, next := keyLedBy(cl.Ring, 2, next+1)
	lost, _ := keyLedBy(cl.Ring, 3, next+1)
	for _, key := range []string{mine, theirs} {
		if resp := do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(1)}); resp.Status != kvs.StatusOK {
			t.Fatalf("put %q: %v", key, resp.Status)
		}
	}
	// Forwarded ops to machine 3 are lost on the wire; its heartbeats are
	// not, so it stays alive and an op to it can only time out.
	watchFrames(cl, func(dst msg.DeviceID, env msg.Envelope) bool {
		_, req := env.Msg.(*msg.FabricReq)
		return !req || dst != 3
	})
	get := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: mine})
	put := kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: mine, Value: val64(2)})
	log := &replyLog{resp: map[int][]kvs.Status{}}
	const fillers = -1
	var want []kvs.Status
	for op, c := range []struct {
		name    string
		stamped bool
		payload []byte
		setup   func() (undo func())
		want    kvs.Status
	}{
		{"bad stamped request", true, []byte{byte(kvs.OpGet)}, nil, kvs.StatusError},
		{"no live owner", false, get, func() func() {
			var added []msg.DeviceID
			for _, id := range cl.MachineIDs() {
				if !r.v.dead[id] {
					r.v.dead[id] = true
					added = append(added, id)
				}
			}
			return func() {
				for _, id := range added {
					delete(r.v.dead, id)
				}
			}
		}, kvs.StatusUnavailable},
		{"forwarded", false, kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: theirs}), nil, kvs.StatusOK},
		{"served locally", false, get, nil, kvs.StatusOK},
		{"write acked through the pipeline", false, put, nil, kvs.StatusOK},
		{"write shed at the bound", false, put, func() func() {
			for range DefaultWriteBound + 1 {
				r.repl.servePrimary(kvs.Request{Op: kvs.OpPut, Key: mine, Value: val64(3)}, log.replier(fillers))
			}
			return func() {}
		}, kvs.StatusShed},
		{"lease-fenced", false, get, func() func() {
			until := r.lease.until
			r.lease.until = 0
			return func() { r.lease.until = until }
		}, kvs.StatusFenced},
		{"op timeout", false, kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: lost}), nil, kvs.StatusUnavailable},
	} {
		undo := func() {}
		if c.setup != nil {
			undo = c.setup()
		}
		timeouts := r.v.stats.Timeouts
		r.ServeRequest(0, c.stamped, c.payload, log.replier(op))
		undo()
		cl.Eng.RunFor(300 * sim.Millisecond)
		if !slices.Equal(log.resp[op], []kvs.Status{c.want}) {
			t.Errorf("%s: answered %v, want %v once", c.name, log.resp[op], c.want)
		}
		if c.name == "op timeout" && r.v.stats.Timeouts != timeouts+1 {
			t.Errorf("%s: %d timeouts counted, want 1", c.name, r.v.stats.Timeouts-timeouts)
		}
		want = append(want, c.want)
	}
	cl.Eng.RunFor(2 * DefaultOpTimeout)
	for op, st := range want {
		if !slices.Equal(log.resp[op], []kvs.Status{st}) {
			t.Errorf("exit %d was answered again later: %v", op, log.resp[op])
		}
	}
	if got := log.resp[fillers]; len(got) != DefaultWriteBound+1 || slices.ContainsFunc(got, func(s kvs.Status) bool { return s != kvs.StatusOK }) {
		t.Errorf("the writes that filled the pipeline were answered %d times (%v), want %d OKs", len(got), got, DefaultWriteBound+1)
	}
}
