package fabric

import (
	"bytes"
	"slices"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// replicator is the router's primary/backup replication: as a key's
// primary it runs each mutation through the key's pipeline to every
// replication target, and as a backup it applies what primaries send
// behind the key's watermark. It owns the pipelines, the watermarks and
// the bodies of the frames it sends.
type replicator struct {
	v     *view
	tr    *transition
	lease *lease

	repSeq    uint64
	gates     map[string]*keyGate
	idleGates sim.Free[keyGate]   // idle keys' gates (finishTask)
	tasks     sim.Free[writeTask] // finished and shed tasks (finishTask, enqueue)
	applieds  sim.Free[applied]   // answered applies' records (applied.Answer)
	inflight  map[uint64]*writeTask
	wm        map[string]watermark
	rep       msg.Replicate
	ack       msg.ReplicateAck
}

// writeTask is one mutation moving through a key's replication
// pipeline: local apply, then Replicate to every replication target,
// then the client ack once ALL current targets acked. Sync tasks
// (view-change resync and staged-ring transfer) skip the local apply:
// their request starts as a read of the key, and its answer turns it
// into the put (or delete) of the value the store holds. The task is
// the store's answer target for either (Answer).
//
// Only its key's gate, the inflight map, its own timer and the store
// hold a task. finishTask is reached only from the store's one answer or
// after it, and clears the other three, so the task goes back on the
// replicator's list there, before the key's next task starts; a shed
// task goes back as its refusal is answered.
type writeTask struct {
	p *replicator
	// req is the mutation: the client's request, or a sync task's read.
	req kvs.Request
	// rep acks the client (nil for sync tasks).
	rep smartnic.Replier

	sync bool
	xfer *Ring // the staged ring whose transfer this sync task counts toward
	seq  uint64
	// targets is the remaining unacked replication set, recomputed under
	// the current (and staged, when one exists) view on every attempt;
	// acked holds the backups that acked. Both live in the task's own
	// arrays unless a staged ring makes the set outgrow a replica set.
	targets []msg.DeviceID
	acked   []msg.DeviceID
	tbuf    [DefaultReplicas]msg.DeviceID
	abuf    [DefaultReplicas]msg.DeviceID
	// tm is the retransmit timer, armed with the task itself (Fire).
	tm   sim.Timer
	done bool
}

// keyGate serializes a key's mutations: one task in flight, later ones
// wait. Per-key FIFO order is what makes the backup's watermark fencing
// equivalent to "newest write wins". Only the gates map holds it, so it
// goes back on the replicator's list when finishTask deletes it.
type keyGate struct {
	cur   *writeTask
	queue []*writeTask
}

// watermark fences replicated applies: a backup applies a Replicate iff
// its (epoch, seq) exceeds the key's watermark (R2).
type watermark struct {
	epoch uint32
	seq   uint64
}

// before reports whether w orders strictly before (epoch, seq).
func (w watermark) before(epoch uint32, seq uint64) bool {
	return epoch > w.epoch || (epoch == w.epoch && seq > w.seq)
}

// servePrimary executes one op this machine owns: reads hit the local
// shard directly; mutations enter the key's replication pipeline. With
// leases enabled, both paths are fenced — reads as well as writes,
// because a stale read from a deposed primary is just as nonlinearizable
// as a divergent write — behind the machine lease and the key's
// takeover fence, and every refusal is typed (StatusFenced), never a
// silent divergence.
func (p *replicator) servePrimary(req kvs.Request, rep smartnic.Replier) {
	if !p.lease.valid() || p.lease.fences(req.Key) {
		p.v.stats.LeaseFenced++
		kvs.Answer(rep, kvs.Response{Status: kvs.StatusFenced})
		return
	}
	if req.Op != kvs.OpPut && req.Op != kvs.OpDelete {
		p.v.store.Serve(req, rep)
		return
	}
	p.enqueue(p.newTask(req, rep, nil))
}

// newTask takes a task off the replicator's list: a client's mutation,
// acked through rep, or a sync task (rep nil) reading req's key, which
// counts toward the transfer of the staged ring xfer when one is given.
func (p *replicator) newTask(req kvs.Request, rep smartnic.Replier, xfer *Ring) *writeTask {
	t := p.tasks.Get()
	t.p, t.req, t.rep, t.sync, t.xfer = p, req, rep, rep == nil, xfer
	return t
}

func (p *replicator) enqueue(t *writeTask) {
	g := p.gates[t.req.Key]
	if g == nil {
		g = p.idleGates.Get()
		p.gates[t.req.Key] = g
	}
	if g.cur == nil {
		g.cur = t
		p.startTask(t)
		return
	}
	// Bounded pipeline: refuse a client write rather than queue without
	// limit. A sync task carries no client and comes at most once per
	// owned key per view or ring change, and a staged ring's transfer
	// counts on its transfer tasks finishing, so those always queue.
	if len(g.queue) >= DefaultWriteBound && !t.sync {
		p.v.stats.Shed++
		rep := t.rep
		p.tasks.Put(t)
		kvs.Answer(rep, kvs.Response{Status: kvs.StatusShed})
		return
	}
	g.queue = append(g.queue, t)
}

func (p *replicator) startTask(t *writeTask) {
	if p.v.halted {
		return
	}
	// A sync task reads the key's current value under the gate, so no
	// later client write can be overtaken by a stale sync.
	p.v.store.Serve(t.req, t)
}

// Answer is the store's answer to the task's local step: the read of a
// sync task, the local apply of any other. The store answers it once.
func (t *writeTask) Answer(resp kvs.Response) {
	p := t.p
	switch {
	case !t.sync && resp.Status != kvs.StatusOK:
		// Local apply failed (shed, unavailable, IO error): the client
		// hears the truth and nothing was replicated.
		kvs.Answer(t.rep, resp)
		p.finishTask(t)
	case !t.sync:
		p.replicate(t)
	case resp.Status == kvs.StatusError || resp.Status == kvs.StatusUnavailable:
		p.finishTask(t) // shard unreadable; a later view change retries
	case resp.Status == kvs.StatusNotFound:
		t.req.Op = kvs.OpDelete
		p.replicate(t)
	default:
		// The read's value is lent for the answer; the put keeps it until
		// every target acks.
		t.req.Op, t.req.Value = kvs.OpPut, bytes.Clone(resp.Value)
		p.replicate(t)
	}
}

func (t *writeTask) Reply(b []byte) { replyAnswer(t, b) }

// replyAnswer hands an Answerer an encoded answer; bytes that do not
// decode answer as StatusError.
func replyAnswer(a kvs.Answerer, b []byte) {
	resp, err := kvs.DecodeResponse(b)
	if err != nil {
		resp = kvs.Response{Status: kvs.StatusError}
	}
	a.Answer(resp)
}

// replicate sends the task's mutation to every replication target and
// acks the client only when all of them acked (R1). The target set is
// recomputed under the live view on every attempt, so dead backups
// drop out; with no live target left the primary is the shard's sole
// owner and acks alone.
func (p *replicator) replicate(t *writeTask) {
	v := p.v
	if v.halted || t.done {
		return
	}
	t.targets = t.tbuf[:0]
	for _, id := range v.repTargets(t.req.Key) {
		if !slices.Contains(t.acked, id) {
			t.targets = append(t.targets, id)
		}
	}
	if len(t.targets) == 0 {
		if len(t.acked) == 0 {
			v.stats.SoloAcks++
		}
		p.ackTask(t)
		return
	}
	if t.seq == 0 {
		p.repSeq++
		t.seq = p.repSeq
		p.inflight[t.seq] = t
	}
	p.rep = msg.Replicate{Epoch: v.epoch, Seq: t.seq, Del: t.req.Op == kvs.OpDelete, Sync: t.sync, Key: t.req.Key, Value: t.req.Value}
	for _, b := range t.targets {
		v.send(b, &p.rep)
	}
	t.tm.Arm(v.eng, DefaultRepRetry, t)
}

// Fire is the retransmit timer: not every target acked within DefaultRepRetry.
// Retransmit under the current view — a backup may have changed or
// vanished since the last attempt.
func (t *writeTask) Fire() { t.p.replicate(t) }

func (p *replicator) onReplicate(src msg.DeviceID, m *msg.Replicate) {
	if !p.wm[m.Key].before(m.Epoch, m.Seq) {
		// Already applied (or superseded): re-ack so a lost ack cannot
		// wedge the primary, but never re-apply (R2).
		p.v.stats.RepFenced++
		p.sendAck(src, m.Seq, true)
		return
	}
	apply := kvs.Request{Op: kvs.OpPut, Key: m.Key, Value: m.Value}
	if m.Del {
		apply = kvs.Request{Op: kvs.OpDelete, Key: m.Key}
	}
	a := p.applieds.Get()
	a.p, a.src, a.key, a.epoch, a.seq = p, src, m.Key, m.Epoch, m.Seq
	p.v.store.Serve(apply, a)
}

// applied is a Replicate this machine applies as a backup: the store's
// answer moves the key's watermark and acks the primary. Only the store
// holds it, and the store answers it once and keeps it no longer
// (kvs.Store.Serve), so it goes back on the replicator's list as its
// answer begins, once its fields are read out.
type applied struct {
	p     *replicator
	src   msg.DeviceID
	key   string
	epoch uint32
	seq   uint64
}

// Answer reads only the status.
func (a *applied) Answer(resp kvs.Response) {
	p, src, key, epoch, seq := a.p, a.src, a.key, a.epoch, a.seq
	p.applieds.Put(a)
	if p.v.halted {
		return
	}
	// Deleting an absent key converges to the same state; only real
	// failures (IO error, unavailable) withhold the ack.
	ok := resp.Status == kvs.StatusOK || resp.Status == kvs.StatusNotFound
	if ok {
		p.v.stats.Applies++
		if p.wm[key].before(epoch, seq) {
			p.wm[key] = watermark{epoch: epoch, seq: seq}
		}
	}
	p.sendAck(src, seq, ok)
}

func (a *applied) Reply(b []byte) { replyAnswer(a, b) }

func (p *replicator) sendAck(to msg.DeviceID, seq uint64, ok bool) {
	p.ack = msg.ReplicateAck{Seq: seq, OK: ok, Epoch: p.v.epoch, Dead: p.v.deadSorted}
	p.v.send(to, &p.ack)
}

// onReplicateAck counts a backup's ack. The hub has merged the ack's
// dead set into the view first.
func (p *replicator) onReplicateAck(src msg.DeviceID, m *msg.ReplicateAck) {
	t := p.inflight[m.Seq]
	if t == nil || !m.OK {
		return // stale ack, or a failed apply the retransmit timer retries
	}
	if t.acked == nil {
		t.acked = t.abuf[:0]
	}
	if !slices.Contains(t.acked, src) {
		t.acked = append(t.acked, src)
	}
	// The client is acked only when every CURRENT target acked: targets
	// are recomputed under the live view, so acks from since-dead (or
	// since-replaced) backups never complete a task on their own.
	for _, id := range p.v.repTargets(t.req.Key) {
		if !slices.Contains(t.acked, id) {
			return
		}
	}
	delete(p.inflight, m.Seq)
	p.ackTask(t)
}

// ackTask completes a task: client ack (writes only reach here with the
// mutation durable on every live owner) and pipeline advance.
func (p *replicator) ackTask(t *writeTask) {
	if t.done {
		return
	}
	if t.rep != nil {
		kvs.Answer(t.rep, kvs.Response{Status: kvs.StatusOK})
	}
	p.finishTask(t)
}

// finishTask retires a task without touching the client, puts it back
// on the list and starts the key's next queued mutation.
func (p *replicator) finishTask(t *writeTask) {
	if t.done {
		return
	}
	t.done = true
	t.tm.Stop()
	delete(p.inflight, t.seq)
	if t.xfer != nil {
		p.tr.synced(t.xfer)
	}
	g := p.gates[t.req.Key]
	if g == nil || g.cur != t {
		return
	}
	var next *writeTask
	if len(g.queue) == 0 {
		delete(p.gates, t.req.Key)
		p.idleGates.Put(g)
	} else {
		next, g.cur, g.queue = g.queue[0], g.queue[0], g.queue[1:]
	}
	p.tasks.Put(t)
	if next != nil {
		p.startTask(next)
	}
}

// resync re-replicates every key whose ownership this view change
// handed to or re-based under this machine: promotion (the old primary
// died) and backup replacement both funnel through here, keeping R3 —
// every key reaches a full live replica set again.
func (p *replicator) resync(prevDead map[msg.DeviceID]bool) {
	v := p.v
	for _, key := range v.store.KeyList() {
		now := v.ring.Owners(key, v.dead, DefaultReplicas)
		if len(now) == 0 || now[0] != v.id {
			continue
		}
		was := v.ring.Owners(key, prevDead, DefaultReplicas)
		if slices.Equal(was, now) {
			continue
		}
		v.stats.Resyncs++
		p.enqueue(p.newTask(kvs.Request{Op: kvs.OpGet, Key: key}, nil, nil))
	}
}

// keepOwned keeps a key after a ring adoption iff this machine still
// owns it (any replica slot) or a task for it is in flight. Purging
// strays matters for safety, not just space: a stale copy on a
// non-owner could be served as truth if later deaths promote the
// machine back into the key's owner set.
func (p *replicator) keepOwned(key string) bool {
	return p.gates[key] != nil || slices.Contains(p.v.owners(key), p.v.id)
}

// fresh reports whether the key's watermark was set at ring version ver
// or later.
func (p *replicator) fresh(key string, ver uint32) bool {
	w, ok := p.wm[key]
	return ok && w.epoch>>8 >= ver
}

// purge deletes the listed keys from the local store, skipping those
// keep() wants, one at a time in sorted order — each delete's answer
// starts the next, so the sweep cannot overrun the store queue bound.
// done (optional) fires when the sweep ends.
func (p *replicator) purge(keys []string, keep func(string) bool, done func()) {
	if p.v.halted {
		return
	}
	for i, key := range keys {
		if keep(key) {
			continue
		}
		delete(p.wm, key)
		p.v.stats.Strays++
		rest := keys[i+1:]
		p.v.store.Serve(kvs.Request{Op: kvs.OpDelete, Key: key}, smartnic.ReplyFunc(func([]byte) {
			p.purge(rest, keep, done)
		}))
		return
	}
	if done != nil {
		done()
	}
}
