package fabric

import (
	"bytes"
	"slices"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// sentFrame is one frame a bare router put on its network.
type sentFrame struct {
	dst msg.DeviceID
	env msg.Envelope
}

// bareRouter composes machine id of an n-machine ring over a Network with
// nothing behind it: no Cluster, no store, and every machine alive. What
// it sends lands in *sent once the engine runs.
func bareRouter(t *testing.T, id msg.DeviceID, n int, leases bool, sent *[]sentFrame) *Router {
	t.Helper()
	net := bareNetwork(nil)
	net.deliver = func(dst msg.DeviceID, frame []byte) {
		env, err := msg.Decode(frame[1:])
		if err != nil {
			t.Fatalf("frame to %d does not decode: %v", dst, err)
		}
		*sent = append(*sent, sentFrame{dst, env})
	}
	ids := ringMachines(n)
	return newRouter(view{id: id, ids: ids, net: net, eng: net.eng, ring: NewRing(ids, DefaultVnodes)}, leases)
}

// A grant is counted only toward the round it answers: one carrying the
// Seq of an earlier round never extends the lease, however far its Until.
func TestLeaseIgnoresStaleGrant(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 3, true, &sent)
	l := r.lease
	l.renewRound()
	stale := l.seq
	l.renewRound()
	l.onGrant(2, &msg.LeaseGrant{Seq: stale, Until: uint64(sim.Second)})
	if l.valid() || l.until != 0 {
		t.Fatalf("a stale grant extended the lease to %v", l.until)
	}
	l.onGrant(2, &msg.LeaseGrant{Seq: l.seq, Until: uint64(DefaultLeaseDuration)})
	if !l.valid() || l.until != sim.Time(DefaultLeaseDuration) {
		t.Fatalf("the current round's quorum left the lease at %v", l.until)
	}
}

// The electorate is the full ring membership, dead members included: in
// a ring of five with two dead, a renewal goes to the two live peers and
// the lease needs both of their grants.
func TestLeaseQuorumCountsDeadMembers(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 5, true, &sent)
	r.v.dead[4], r.v.dead[5] = true, true
	l := r.lease
	l.renewRound()
	r.v.eng.Run()
	var to []msg.DeviceID
	for _, f := range sent {
		if _, ok := f.env.Msg.(*msg.LeaseRenew); ok {
			to = append(to, f.dst)
		}
	}
	if !slices.Equal(to, []msg.DeviceID{2, 3}) {
		t.Fatalf("renewals went to %v, want the live peers [2 3]", to)
	}
	if l.quorum() != 3 {
		t.Fatalf("quorum %d in a ring of five, want 3", l.quorum())
	}
	l.onGrant(2, &msg.LeaseGrant{Seq: l.seq, Until: uint64(DefaultLeaseDuration)})
	if l.valid() {
		t.Fatal("two of five signatures made a lease")
	}
	l.onGrant(3, &msg.LeaseGrant{Seq: l.seq, Until: uint64(DefaultLeaseDuration)})
	if !l.valid() {
		t.Fatal("three of five signatures did not make a lease")
	}
}

// A router with leases off holds a nil lease: always valid, fencing no
// key, and its recording calls do nothing.
func TestNilLease(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 3, false, &sent)
	var l *lease
	if r.lease != l {
		t.Fatal("a lease-off router holds a lease")
	}
	l.heard(2)
	l.replaced(map[msg.DeviceID]bool{2: true})
	if !l.valid() || l.fences("k") || !r.LeaseValid() || r.KeyFenced("k") {
		t.Fatal("a nil lease is not valid, or fences a key")
	}
}

// replyLog records what each of a test's client ops was answered.
type replyLog struct {
	order []int
	resp  map[int][]kvs.Status
}

func (l *replyLog) replier(op int) smartnic.Replier {
	return smartnic.ReplyFunc(func(b []byte) {
		resp, _ := kvs.DecodeResponse(b)
		l.order = append(l.order, op)
		l.resp[op] = append(l.resp[op], resp.Status)
	})
}

// A forwarded op nobody answers times out once, Unavailable; the answer
// that arrives after the timeout finds nothing and answers nothing.
func TestClientTimeoutAnswersOnce(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 2, false, &sent)
	log := &replyLog{resp: map[int][]kvs.Status{}}
	key, _ := keyLedBy(r.v.ring, 2, 0)
	r.client.onClient(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key}), nil, log.replier(0))
	r.v.eng.RunFor(DefaultOpTimeout + sim.Microsecond)
	if len(sent) != 1 || sent[0].dst != 2 {
		t.Fatalf("sent %v, want one FabricReq to the owner 2", sent)
	}
	if got := log.resp[0]; !slices.Equal(got, []kvs.Status{kvs.StatusUnavailable}) {
		t.Fatalf("answered %v, want one Unavailable", got)
	}
	id := sent[0].env.Msg.(*msg.FabricReq).ReqID
	r.client.onFabricResp(&msg.FabricResp{ReqID: id, Code: msg.FabricServed,
		Payload: kvs.EncodeResponse(kvs.Response{Status: kvs.StatusOK})})
	r.v.eng.Run()
	if len(log.resp[0]) != 1 || r.v.stats.Timeouts != 1 || len(r.client.pending) != 0 {
		t.Fatalf("after the late answer: %v answers, %d timeouts, %d pending", log.resp[0], r.v.stats.Timeouts, len(r.client.pending))
	}
}

// The ops pending on a machine that died are answered Unavailable in the
// order they were forwarded; the ops pending elsewhere wait on.
func TestFailPendingToAnswersInReqIDOrder(t *testing.T) {
	var sent []sentFrame
	r := bareRouter(t, 1, 3, false, &sent)
	log := &replyLog{resp: map[int][]kvs.Status{}}
	var want []int
	next := 0
	for op := 0; op < 12; op++ {
		owner := msg.DeviceID(2)
		if op%3 == 1 {
			owner = 3
		} else {
			want = append(want, op)
		}
		var key string
		key, next = keyLedBy(r.v.ring, owner, next+1)
		r.client.onClient(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key}), nil, log.replier(op))
	}
	r.client.failPendingTo([]msg.DeviceID{2})
	if !slices.Equal(log.order, want) {
		t.Fatalf("answered ops %v, want %v", log.order, want)
	}
	for _, op := range want {
		if !slices.Equal(log.resp[op], []kvs.Status{kvs.StatusUnavailable}) {
			t.Fatalf("op %d answered %v", op, log.resp[op])
		}
	}
	if len(r.client.pending) != 4 {
		t.Fatalf("%d ops still pending, want the 4 sent to machine 3", len(r.client.pending))
	}
}

// ringPhase drives one machine's transition with a RingConfig phase.
func ringPhase(r *Router, src msg.DeviceID, phase uint8, ver uint32, members ...msg.DeviceID) {
	r.tr.apply(src, &msg.RingConfig{Ver: ver, Phase: phase, Members: members})
}

// Phases at or below the running ring version are ignored, and so is an
// abort of any version but the staged one.
func TestTransitionIgnoresStalePhases(t *testing.T) {
	cl := mustBoot(t, Config{N: 1, Spares: 1, Seed: 21})
	r := cl.Machine(1).Router
	ringPhase(r, 1, msg.RingCommit, 2, 1)
	for _, ver := range []uint32{1, 2} {
		ringPhase(r, 1, msg.RingPrepare, ver, 1, 2)
		ringPhase(r, 1, msg.RingCommit, ver, 1, 2)
	}
	if st := r.Stats(); r.RingVer() != 2 || r.PendingVer() != 0 || st.RingStaged != 0 || st.RingCommits != 1 {
		t.Fatalf("stale phases moved the ring: v%d staged v%d, %+v", r.RingVer(), r.PendingVer(), st)
	}
	ringPhase(r, 1, msg.RingPrepare, 3, 1, 2)
	ringPhase(r, 1, msg.RingAbort, 4)
	ringPhase(r, 1, msg.RingAbort, 2)
	if r.PendingVer() != 3 || r.v.staged == nil || r.Stats().RingAborts != 0 {
		t.Fatalf("an abort of another version dropped staged v3: staged v%d", r.PendingVer())
	}
	ringPhase(r, 1, msg.RingAbort, 3)
	if r.PendingVer() != 0 || r.v.staged != nil || r.Stats().RingAborts != 1 {
		t.Fatal("the abort of the staged version did not drop it")
	}
}

// A newer prepare replaces a staged ring while the old one's transfer is
// still in flight. The old transfer's sync tasks finish after that and
// count for nothing: the new transfer drains to exactly zero and reports.
func TestReplacedTransferDoesNotCountTowardNew(t *testing.T) {
	cl := mustBoot(t, Config{N: 1, Spares: 1, Seed: 22})
	for i := 0; i < 8; i++ {
		do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: keyFor(i), Value: val64(uint64(i))})
	}
	r := cl.Machine(1).Router
	ringPhase(r, 1, msg.RingPrepare, 1, 1, 2)
	if r.tr.left != 8 {
		t.Fatalf("staging v1 started %d transfer tasks, want 8", r.tr.left)
	}
	ringPhase(r, 1, msg.RingPrepare, 2, 1, 2)
	if r.tr.left != 8 || r.PendingVer() != 2 {
		t.Fatalf("staging v2 over v1: %d tasks for v%d, want 8 for v2", r.tr.left, r.PendingVer())
	}
	cl.Eng.Run()
	if r.tr.left != 0 || !r.TransferDone() || !r.tr.reported {
		t.Fatalf("v2's transfer ended with %d left (done %v, reported %v)", r.tr.left, r.TransferDone(), r.tr.reported)
	}
	if st := r.Stats(); st.Xfers != 16 {
		t.Fatalf("%d transfer tasks ran, want 8 per staged ring", st.Xfers)
	}
}

// A staged ring's transfer task for a key whose write pipeline is full
// still queues: shed, it would leave the transfer one task short forever,
// and the coordinator would re-drive an idempotent prepare without end.
// The put burst fills the key's pipeline to its bound at the primary,
// then a prepare drops the key's backup from the ring.
func TestTransferOnFullPipelineDrains(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 23})
	key := keyOwnedBy(cl, 1)
	do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(0)})
	r := cl.Machine(1).Router
	answered := 0
	for i := 0; i <= DefaultWriteBound; i++ {
		req := kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(uint64(i + 1))}
		r.repl.servePrimary(req, smartnic.ReplyFunc(func(b []byte) {
			if resp, _ := kvs.DecodeResponse(b); resp.Status == kvs.StatusOK {
				answered++
			}
		}))
	}
	if g := r.repl.gates[key]; g == nil || len(g.queue) != DefaultWriteBound {
		t.Fatal("the burst did not fill the key's pipeline")
	}
	backup := cl.Ring.Owners(key, nil, DefaultReplicas)[1]
	var members []msg.DeviceID
	for _, id := range cl.MachineIDs() {
		if id != backup {
			members = append(members, id)
		}
	}
	ringPhase(r, 1, msg.RingPrepare, 1, members...)
	cl.Eng.RunFor(sim.Second)
	if answered != DefaultWriteBound+1 || len(r.repl.gates) != 0 {
		t.Fatalf("%d of %d puts answered OK, %d gates open", answered, DefaultWriteBound+1, len(r.repl.gates))
	}
	if r.tr.left != 0 || !r.TransferDone() {
		t.Fatalf("the transfer wedged with %d tasks left", r.tr.left)
	}
	if st := r.Stats(); st.Shed != 0 {
		t.Fatalf("%d writes counted as shed, want 0", st.Shed)
	}
	var held []byte
	cl.Machine(1).Store.Serve(kvs.Request{Op: kvs.OpGet, Key: key}, smartnic.ReplyFunc(func(b []byte) {
		resp, _ := kvs.DecodeResponse(b)
		held = resp.Value
	}))
	cl.Eng.RunFor(sim.Millisecond)
	if !bytes.Equal(held, val64(DefaultWriteBound+1)) {
		t.Fatalf("the primary holds %v, want the last put's value", held)
	}
}
