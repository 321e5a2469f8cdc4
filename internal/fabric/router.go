package fabric

import (
	"maps"
	"slices"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// Well-known app slots on every fabric machine's NIC.
const (
	// StoreApp is the local KVS shard.
	StoreApp msg.AppID = 1
	// RouterApp is the fabric router; peer frames and client requests
	// both enter through it.
	RouterApp msg.AppID = 2
)

// Router timings and sizes.
const (
	DefaultReplicas       = 2
	DefaultRepRetry       = 500 * sim.Microsecond
	DefaultOpTimeout      = 10 * sim.Millisecond
	DefaultHeartbeatEvery = 1 * sim.Millisecond
	DefaultFailTimeout    = 4 * sim.Millisecond
	DefaultWriteBound     = 128
	// DefaultUpgradeDelay models flashing a config/firmware version onto
	// an out-of-ring machine (fleet reconciliation only).
	DefaultUpgradeDelay = 2 * sim.Millisecond
	// Epoch leases (Config.Leases). The lease must be shorter than the
	// failure-detection timeout: by the time a majority has declared a
	// machine dead and stopped countersigning, every lease it ever held
	// has lapsed, so the promoted primary's takeover fence
	// (DefaultLeaseDuration + DefaultFailTimeout past the promotion)
	// outlives the old primary's authority.
	DefaultLeaseDuration   = 2 * sim.Millisecond
	DefaultLeaseRenewEvery = 500 * sim.Microsecond
)

// DefaultLeaseDuration < DefaultFailTimeout, checked at build time: a
// negative constant does not convert to uint.
const _ = uint(DefaultFailTimeout - DefaultLeaseDuration - 1)

// RouterStats counts one machine's fabric activity.
type RouterStats struct {
	Local       uint64 // client ops served by the ingress machine itself
	Remote      uint64 // client ops forwarded to another machine
	HeadRelayed uint64 // ops this head node relayed to shard owners
	WrongOwner  uint64 // FabricReqs refused: responder not the owner
	Applies     uint64 // Replicate frames applied at this backup
	RepFenced   uint64 // Replicate frames fenced by the (epoch, seq) watermark
	Resyncs     uint64 // keys re-replicated after a view change
	SoloAcks    uint64 // writes acked with no live backup in view
	Shed        uint64 // writes refused at the per-key pipeline bound
	ViewChanges uint64
	Timeouts    uint64 // pending client ops that hit DefaultOpTimeout
	Reroutes    uint64 // ops re-sent after a WrongOwner redirect

	// Fleet-reconciliation activity (all zero unless a reconciler drives
	// planned membership change through the router).
	RingStaged  uint64 // RingConfig prepares staged
	RingCommits uint64 // staged rings adopted
	RingAborts  uint64 // staged rings dropped
	Xfers       uint64 // keys re-replicated for a staged ring's transfer
	Strays      uint64 // locally purged keys (join wipe + post-adoption strays)
	Cordons     uint64 // cordon orders honored
	Upgrades    uint64 // upgrade orders honored

	// Epoch-lease fencing (all zero unless Config.Leases is set).
	LeaseRenews   uint64 // renewal rounds started
	LeaseGrants   uint64 // countersigns sent to peers
	LeaseRevokes  uint64 // typed renewal refusals sent (sender holds the peer dead)
	LeaseFenced   uint64 // client ops refused with StatusFenced
	LeaseLapses   uint64 // renewal rounds started with the previous lease already expired
	Suspicions    uint64 // directional transport suspicions recorded
	SilenceDeaths uint64 // peers declared dead by the inbound-silence detector
}

// pendingReq is a client op forwarded to another machine, awaiting its
// FabricResp. It is the one record the forwarding hop allocates: tm is
// armed with the record itself, whose Fire is the op timeout.
type pendingReq struct {
	tm       sim.Timer
	r        *Router
	id       uint64
	target   msg.DeviceID
	rerouted bool
	rep      smartnic.Replier
	payload  []byte
}

// writeTask is one mutation moving through a key's replication
// pipeline: local apply, then Replicate to every replication target,
// then the client ack once ALL current targets acked. Sync tasks
// (view-change resync and staged-ring transfer) skip the local apply:
// their request starts as a read of the key, and its answer turns it
// into the put (or delete) of the value the store holds. The task is
// the store's answer target for either (Reply).
type writeTask struct {
	r *Router
	// req is the mutation: the client's request, or a sync task's read.
	req kvs.Request
	// rep acks the client (nil for sync tasks).
	rep  smartnic.Replier
	resp []byte // local store response, held until the backups ack

	sync    bool
	xfer    bool   // sync task counted toward a staged ring's transfer
	xferVer uint32 // the staged ring version the transfer belongs to
	seq     uint64
	// targets is the remaining unacked replication set, recomputed under
	// the current (and staged, when one exists) view on every attempt.
	targets []msg.DeviceID
	acked   map[msg.DeviceID]bool
	// tm is the retransmit timer, armed with the task itself (Fire).
	tm   sim.Timer
	done bool
}

// keyGate serializes a key's mutations: one task in flight, later ones
// wait. Per-key FIFO order is what makes the backup's watermark fencing
// equivalent to "newest write wins".
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

// Router is the fabric brain on each machine's smart NIC: client-side
// shard routing, cross-machine forwarding, primary/backup replication
// with fenced failover, and membership (reactive+gossip, or
// heartbeat-to-head when a head node is configured).
type Router struct {
	id     msg.DeviceID
	head   msg.DeviceID // 0 = decentralized membership
	leases bool         // Config.Leases
	cl     *Cluster
	ring   *Ring
	store  *kvs.Store
	eng    *sim.Engine
	rt     *smartnic.Runtime

	halted bool

	// dead is the view's dead set, and deadSorted the same set in ID order
	// (gossip payloads, deterministic iteration), read-only: noteDead, the
	// only writer, replaces the slice rather than editing it.
	dead       map[msg.DeviceID]bool
	deadSorted []msg.DeviceID
	epoch      uint32

	// Staged membership (fleet reconciliation). ringVer is the version
	// of the ring this router currently serves; a RingConfig prepare
	// stages pendingRing until the coordinator commits or aborts it.
	// While a ring is staged, mutations replicate to the UNION of
	// current and staged owners, so the data outcome is safe whichever
	// way the transition resolves.
	ringVer        uint32
	pendingRing    *Ring
	pendingVer     uint32
	pendingMembers []msg.DeviceID
	pendingFrom    msg.DeviceID // coordinator to notify on transfer-done
	xferLeft       int          // staged-ring sync tasks still in flight
	xferReported   bool         // transfer-done sent for the staged ring

	// Reconciler-driven machine conditions.
	cordoned  bool
	upgradeTo uint32 // nonzero while an upgrade installs this config version
	confVer   uint32
	condSeq   uint64
	ctrl      ControlAgent

	dedup msg.DedupWindow

	nextReq uint64
	pending map[uint64]*pendingReq
	// own and targets hold the last ring lookup (owners) and replication
	// set (repTargets): router scratch, valid until the next lookup.
	own, targets []msg.DeviceID
	// The bodies of every outgoing steady-state frame: client ops and
	// their answers, replication and its acks, and the lease round.
	// Network.Send encodes the message before it returns and keeps no
	// reference, so one body per kind is refilled per frame.
	fwd    msg.FabricReq
	resp   msg.FabricResp
	rep    msg.Replicate
	ack    msg.ReplicateAck
	renew  msg.LeaseRenew
	grant  msg.LeaseGrant
	revoke msg.LeaseRevoke
	// in holds the bodies the same kinds arrive in, and heartbeats.
	in inbox

	repSeq   uint64
	gates    map[string]*keyGate
	inflight map[uint64]*writeTask

	wm map[string]watermark

	hbSeq    uint64
	lastBeat map[msg.DeviceID]sim.Time

	// Epoch-lease fencing (leases). The machine serves as primary
	// only while leaseUntil is in the future, i.e. while a quorum of the
	// ring membership countersigned its most recent renewal round.
	// lastHeard feeds the inbound-silence failure detector (the renewal
	// chatter gives every pair of ring members periodic traffic, which is
	// what makes silence meaningful); suspects holds directional
	// transport suspicion (I could not reach them — says nothing about
	// whether they can reach me); views holds the takeover-fence history:
	// each entry is a membership view this machine replaced, so a freshly
	// promoted primary refuses any key whose recent-past view named a
	// different primary until every lease that primary could possibly
	// hold has lapsed. A history (rather than a per-key fence map) covers
	// keys the promoted machine holds no replica of — mass view changes
	// promote machines for key ranges they never stored, and those keys
	// must be fenced too.
	leaseSeq   uint64
	leaseRound map[msg.DeviceID]bool
	leaseUntil sim.Time
	lastHeard  map[msg.DeviceID]sim.Time
	suspects   map[msg.DeviceID]bool
	views      []viewSnap

	stats RouterStats
}

// ControlAgent is the fleet-reconciliation policy hook: the router
// dispatches management-plane frames (spec gossip, condition reports)
// to the attached agent and stays pure mechanism. internal/reconcile
// provides the implementation; a nil agent drops the frames.
type ControlAgent interface {
	OnControl(src msg.DeviceID, m msg.Message)
}

func newRouter(cl *Cluster, id, head msg.DeviceID, leases bool, ring *Ring, store *kvs.Store, eng *sim.Engine) *Router {
	return &Router{
		id:         id,
		head:       head,
		leases:     leases,
		cl:         cl,
		ring:       ring,
		store:      store,
		eng:        eng,
		confVer:    1,
		dead:       make(map[msg.DeviceID]bool),
		pending:    make(map[uint64]*pendingReq),
		gates:      make(map[string]*keyGate),
		inflight:   make(map[uint64]*writeTask),
		wm:         make(map[string]watermark),
		lastBeat:   make(map[msg.DeviceID]sim.Time),
		lastHeard:  make(map[msg.DeviceID]sim.Time),
		suspects:   make(map[msg.DeviceID]bool),
		leaseRound: make(map[msg.DeviceID]bool),
	}
}

// Stats returns a copy of the counters.
func (r *Router) Stats() RouterStats { return r.stats }

// Epoch returns the router's current view epoch: ring version in the
// high bits, dead machines seen in the low byte. With no planned
// membership changes the ring version stays 0 and the epoch is exactly
// the dead count, as it was before fleet reconciliation existed.
func (r *Router) Epoch() uint32 { return r.epoch }

// recalcEpoch folds the ring version and the dead count into the
// fencing epoch. Both components are monotone (the dead set never
// shrinks; ring versions only grow), so the epoch is monotone per
// router — which is what the per-key (epoch, seq) watermark needs. The
// low byte holds the dead count; machines are addressed in one byte,
// so it cannot overflow into the ring version.
func (r *Router) recalcEpoch() {
	r.epoch = r.ringVer<<8 | uint32(len(r.dead))
}

// AppID implements smartnic.App.
func (r *Router) AppID() msg.AppID { return RouterApp }

// Boot implements smartnic.App. With a head node configured, the head
// arms its failure-sweep timer and everyone else starts heartbeating.
// With leases enabled, every machine also starts its renewal loop and
// takes a bootstrap lease (membership is known-good at boot, so the
// fleet does not start life fenced); the decentralized flavor arms the
// inbound-silence detector too (under a head, heartbeat staleness at
// the head stays the sole death authority).
func (r *Router) Boot(rt *smartnic.Runtime) {
	r.rt = rt
	if r.leases {
		if r.InRing() {
			r.leaseUntil = r.eng.Now().Add(DefaultLeaseDuration)
		}
		r.eng.Schedule(DefaultLeaseRenewEvery, (*leaseTick)(r))
		if r.head == 0 {
			r.eng.Schedule(DefaultFailTimeout/2, (*silence)(r))
		}
	}
	if r.head == 0 {
		return
	}
	if r.isHead() {
		r.eng.Schedule(DefaultFailTimeout/2, (*sweep)(r))
	} else {
		r.eng.Schedule(DefaultHeartbeatEvery, (*heartbeat)(r))
	}
}

// PeerFailed implements smartnic.App. Intra-machine device failure is
// the machine's own problem; fabric membership is judged at machine
// granularity by the network and the head.
func (r *Router) PeerFailed(msg.DeviceID) {}

func (r *Router) isHead() bool { return r.head != 0 && r.head == r.id }

// --- fleet-reconciliation surface (used by internal/reconcile) ---

// AttachControl installs the machine's reconcile agent.
func (r *Router) AttachControl(a ControlAgent) { r.ctrl = a }

// ID returns the router's machine address.
func (r *Router) ID() msg.DeviceID { return r.id }

// Head returns the configured head machine (0 when decentralized).
func (r *Router) Head() msg.DeviceID { return r.head }

// Halted reports whether the machine has crash-stopped.
func (r *Router) Halted() bool { return r.halted }

// RingVer returns the version of the ring this router serves.
func (r *Router) RingVer() uint32 { return r.ringVer }

// PendingVer returns the staged ring version (0 when none is staged).
func (r *Router) PendingVer() uint32 { return r.pendingVer }

// TransferDone reports whether the staged ring's transfer has drained.
// The router pushes one transfer-done report itself (xferCheck), but
// that frame can be lost under an injected fault plane; agents fold
// this level-triggered signal into their periodic condition reports so
// a transition can never wedge on one dropped frame.
func (r *Router) TransferDone() bool {
	return r.pendingRing != nil && r.xferLeft == 0
}

// RingMembers returns the current ring membership in ID order.
func (r *Router) RingMembers() []msg.DeviceID { return r.ring.Machines() }

// InRing reports whether this machine is a member of its current ring.
func (r *Router) InRing() bool { return slices.Contains(r.ring.machines, r.id) }

// Cordoned reports whether the machine is cordoned off client ingress.
func (r *Router) Cordoned() bool { return r.cordoned }

// Upgrading reports whether a config flash is in progress.
func (r *Router) Upgrading() bool { return r.upgradeTo != 0 }

// ConfigVersion returns the machine's running config/firmware version.
func (r *Router) ConfigVersion() uint32 { return r.confVer }

// DeadIDs returns the machines this router's view has declared dead.
func (r *Router) DeadIDs() []msg.DeviceID { return append([]msg.DeviceID{}, r.deadSorted...) }

// Conditions assembles this machine's status-condition report
// (machine-controller style). Each call stamps a fresh sequence number.
func (r *Router) Conditions() *msg.CondReport {
	r.condSeq++
	return &msg.CondReport{
		Seq:           r.condSeq,
		Ready:         !r.halted && r.upgradeTo == 0,
		Cordoned:      r.cordoned,
		Upgrading:     r.upgradeTo != 0,
		ConfigVersion: r.confVer,
		RingVer:       r.ringVer,
		PendingVer:    r.pendingVer,
		Keys:          uint32(r.store.Keys()),
	}
}

// SendControl puts a management-plane message on the fabric (or hands
// it straight to the local agent when addressed to this machine).
func (r *Router) SendControl(dst msg.DeviceID, m msg.Message) {
	if r.halted {
		return
	}
	if dst == r.id {
		// Self-delivery: drain orders are mechanism (the decentralized
		// actor must be able to cordon and rotate ITSELF out of the ring);
		// everything else is policy traffic for the agent.
		if d, ok := m.(*msg.Drain); ok {
			r.onDrain(d)
			return
		}
		if r.ctrl != nil {
			r.ctrl.OnControl(r.id, m)
		}
		return
	}
	r.cl.net.Send(r.id, dst, r.epoch, m)
}

// ProposeRing broadcasts a RingConfig phase to every machine the view
// holds live (spares included) and applies it locally — the coordinator
// is a participant like any other. The broadcast happens inside one
// event, so a crash can never split it.
func (r *Router) ProposeRing(ver uint32, phase uint8, members []msg.DeviceID) {
	if r.halted {
		return
	}
	for _, id := range r.cl.MachineIDs() {
		if id == r.id || r.dead[id] {
			continue
		}
		r.cl.net.Send(r.id, id, r.epoch, &msg.RingConfig{
			Ver: ver, Phase: phase, Members: append([]msg.DeviceID(nil), members...),
		})
	}
	r.applyRingConfig(r.id, &msg.RingConfig{Ver: ver, Phase: phase, Members: members})
}

// owners is the ring lookup under this router's view. The result is
// router scratch, valid until the router's next lookup.
func (r *Router) owners(key string) []msg.DeviceID {
	r.own = r.ring.ownersInto(r.own, key, r.dead, DefaultReplicas)
	return r.own
}

// ServeNetwork implements smartnic.App; the NIC calls ServeRequest.
func (r *Router) ServeNetwork(payload []byte, reply func([]byte)) {
	r.ServeRequest(0, false, payload, smartnic.ReplyFunc(reply))
}

// ServeRequest implements smartnic.RequestApp: one byte discriminates
// peer fabric frames (frameMagic) from client kvs requests. When the NIC
// edge stamped the client as tenant tn (0 included), the stamp replaces
// the payload's claim and is re-encoded into the request before routing
// so it survives fabric hops — the owning machine's store sees the same
// authenticated tenant the entry machine did, wherever the key lives.
// Stamping is the one case in which an ingress decodes a request;
// otherwise only the machine that serves it does (onClient).
func (r *Router) ServeRequest(tn uint16, stamped bool, payload []byte, rep smartnic.Replier) {
	if r.halted {
		return
	}
	if len(payload) > 0 && payload[0] == frameMagic {
		r.onFrame(payload[1:]) // peer frames carry no tenant
		return
	}
	if !stamped {
		r.onClient(payload, nil, rep)
		return
	}
	req, err := kvs.DecodeRequest(payload)
	if err != nil {
		rep.Reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusError}))
		return
	}
	req.Tenant = uint32(tn)
	r.onClient(kvs.EncodeRequest(req), &req, rep)
}

// --- client ingress ---

// onClient routes a client request on its key, read in place. Only the
// machine that serves a request decodes it (req, when the caller already
// did); a forwarded one travels on as payload.
func (r *Router) onClient(payload []byte, req *kvs.Request, rep smartnic.Replier) {
	key, err := kvs.RequestKey(payload)
	if err != nil {
		rep.Reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusError}))
		return
	}
	own := r.owners(string(key))
	if len(own) == 0 {
		rep.Reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
		return
	}
	if own[0] != r.id {
		r.stats.Remote++
		r.forward(own[0], payload, rep, false)
		return
	}
	r.stats.Local++
	if req == nil {
		decoded, _ := kvs.DecodeRequest(payload) // RequestKey accepted it
		req = &decoded
	}
	r.servePrimary(*req, rep)
}

// forward sends a client op to the key's primary — directly, or through
// the head node when one is configured (the centralized-routing
// baseline; the owner still answers the origin directly, so only the
// request leg transits the head).
func (r *Router) forward(primary msg.DeviceID, payload []byte, rep smartnic.Replier, rerouted bool) {
	target := primary
	if r.head != 0 && !r.isHead() {
		target = r.head
	}
	r.nextReq++
	p := &pendingReq{r: r, id: r.nextReq, target: primary, rep: rep, payload: payload, rerouted: rerouted}
	r.pending[p.id] = p
	p.tm.Arm(r.eng, DefaultOpTimeout, p)
	r.fwd = msg.FabricReq{Origin: r.id, ReqID: p.id, Payload: payload}
	r.cl.net.Send(r.id, target, r.epoch, &r.fwd)
}

// Fire is the op timeout: nobody answered within DefaultOpTimeout.
func (p *pendingReq) Fire() {
	if p.r.halted || p.r.pending[p.id] != p {
		return
	}
	p.r.stats.Timeouts++
	p.finish(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
}

// finish forgets a forwarded op and answers its client.
func (p *pendingReq) finish(resp []byte) {
	delete(p.r.pending, p.id)
	p.tm.Stop()
	p.rep.Reply(resp)
}

// --- peer frames ---

// inbox is the one body per steady-state kind that onFrame decodes into.
// A body is refilled by the next frame of its kind, which no handler can
// see arrive: frames land only through NIC rx events. So nothing may
// keep a body past its handler, and none does: a handler copies the
// fields it keeps (served, applied, noteDead's ids, r.fwd), and a byte
// field is a window onto the frame, not onto the body. Policy traffic
// (handed to the ControlAgent, which may keep it) and the rare control
// and membership kinds decode fresh.
type inbox struct {
	req   msg.FabricReq
	resp  msg.FabricResp
	rep   msg.Replicate
	ack   msg.ReplicateAck
	renew msg.LeaseRenew
	grant msg.LeaseGrant
	hb    msg.Heartbeat
}

func (in *inbox) body(k msg.Kind) msg.Message {
	switch k {
	case msg.KindFabricReq:
		return &in.req
	case msg.KindFabricResp:
		return &in.resp
	case msg.KindReplicate:
		return &in.rep
	case msg.KindReplicateAck:
		return &in.ack
	case msg.KindLeaseRenew:
		return &in.renew
	case msg.KindLeaseGrant:
		return &in.grant
	case msg.KindHeartbeat:
		return &in.hb
	}
	return nil
}

func (r *Router) onFrame(raw []byte) {
	env, err := msg.DecodeInto(raw, r.in.body)
	if err != nil {
		return // a corrupt frame vanishes, like a bad checksum on a real wire
	}
	if r.leases {
		// Any inbound frame — even a duplicate — is proof the sender can
		// reach us: feed the silence detector and clear directional
		// transport suspicion.
		r.lastHeard[env.Src] = r.eng.Now()
		delete(r.suspects, env.Src)
	}
	if r.dedup.Duplicate(env.Src, env.Seq) {
		return
	}
	if r.dead[env.Src] {
		// Fencing: traffic from machines this view declared dead is
		// ignored, so a straggler from an old primary can never regress a
		// promoted replica (R2). One exception: a renewal from a machine
		// we hold dead gets a typed LeaseRevoke (carrying our dead set)
		// instead of silence — the fenced machine provably observes why
		// it lost its lease.
		if ren, ok := env.Msg.(*msg.LeaseRenew); ok && r.leases {
			r.stats.LeaseRevokes++
			r.revoke = msg.LeaseRevoke{Seq: ren.Seq, Dead: r.deadSorted}
			r.cl.net.Send(r.id, env.Src, r.epoch, &r.revoke)
		}
		return
	}
	switch m := env.Msg.(type) {
	case *msg.FabricReq:
		r.onFabricReq(m)
	case *msg.FabricResp:
		r.onFabricResp(m)
	case *msg.Replicate:
		r.onReplicate(env.Src, m)
	case *msg.ReplicateAck:
		r.onReplicateAck(env.Src, m)
	case *msg.RingUpdate:
		r.noteDead("ring.update", m.Dead...)
	case *msg.Heartbeat:
		if r.isHead() {
			r.lastBeat[env.Src] = r.eng.Now()
		}
	case *msg.RingConfig:
		r.applyRingConfig(env.Src, m)
	case *msg.Drain:
		r.onDrain(m)
	case *msg.SpecGossip, *msg.CondReport:
		// Policy traffic: the router is mechanism only.
		if r.ctrl != nil {
			r.ctrl.OnControl(env.Src, env.Msg)
		}
	case *msg.LeaseRenew:
		r.onLeaseRenew(env.Src, m)
	case *msg.LeaseGrant:
		r.onLeaseGrant(env.Src, m)
	case *msg.LeaseRevoke:
		// A member refused to countersign: its view holds us dead. Merge
		// its dead set (it cannot contain us — noteDead skips self) so we
		// converge toward the majority view instead of renewing blind.
		r.noteDead("revoke", m.Dead...)
	}
}

// onFabricReq routes a forwarded client op on its key, read in place,
// and decodes the request only to serve it.
func (r *Router) onFabricReq(m *msg.FabricReq) {
	key, err := kvs.RequestKey(m.Payload)
	if err != nil {
		r.respond(m.Origin, m.ReqID, msg.FabricServed,
			kvs.EncodeResponse(kvs.Response{Status: kvs.StatusError}))
		return
	}
	own := r.owners(string(key))
	switch {
	case len(own) > 0 && own[0] == r.id:
		req, _ := kvs.DecodeRequest(m.Payload) // RequestKey accepted it
		r.servePrimary(req, &served{r: r, origin: m.Origin, id: m.ReqID})
	case r.isHead() && m.Hops == 0 && len(own) > 0:
		// Head relay: forward to the shard owner, origin preserved. Hops
		// guards the (unreachable in a sane view) forwarding loop. A head
		// that lost its lease is fenced like any primary: with the sole
		// authority partitioned away, the whole machine's typed answer is
		// "fenced" — the contrast E21 measures against the decentralized
		// flavor, where only the cut-off side stalls.
		if r.leases && !r.LeaseValid() {
			r.stats.LeaseFenced++
			r.respond(m.Origin, m.ReqID, msg.FabricServed,
				kvs.EncodeResponse(kvs.Response{Status: kvs.StatusFenced}))
			return
		}
		r.stats.HeadRelayed++
		r.fwd = msg.FabricReq{Origin: m.Origin, ReqID: m.ReqID, Hops: m.Hops + 1, Payload: m.Payload}
		r.cl.net.Send(r.id, own[0], r.epoch, &r.fwd)
	default:
		// Not ours: tell the origin whom we think is dead so it can catch
		// up and re-route.
		r.stats.WrongOwner++
		r.respond(m.Origin, m.ReqID, msg.FabricWrongOwner, nil)
	}
}

// served is a forwarded op this machine serves as the key's owner: its
// answer goes back to the origin router.
type served struct {
	r      *Router
	origin msg.DeviceID
	id     uint64
}

func (s *served) Reply(resp []byte) { s.r.respond(s.origin, s.id, msg.FabricServed, resp) }

// respond sends a FabricResp carrying this router's dead set as gossip.
func (r *Router) respond(origin msg.DeviceID, id uint64, code uint8, resp []byte) {
	r.resp = msg.FabricResp{ReqID: id, Code: code, Dead: r.deadSorted, Payload: resp}
	r.cl.net.Send(r.id, origin, r.epoch, &r.resp)
}

func (r *Router) onFabricResp(m *msg.FabricResp) {
	r.noteDead("gossip", m.Dead...)
	p := r.pending[m.ReqID]
	if p == nil {
		return // already timed out or resolved
	}
	if m.Code == msg.FabricServed {
		p.finish(m.Payload)
		return
	}
	// WrongOwner/unavailable: one re-route with the merged view, then
	// give up and let the client retry.
	delete(r.pending, m.ReqID)
	p.tm.Stop()
	if key, err := kvs.RequestKey(p.payload); err == nil && !p.rerouted {
		if own := r.owners(string(key)); len(own) > 0 {
			r.stats.Reroutes++
			if own[0] != r.id {
				r.forward(own[0], p.payload, p.rep, true)
				return
			}
			// The merged view promoted us: serve locally after all.
			req, _ := kvs.DecodeRequest(p.payload) // RequestKey accepted it
			r.servePrimary(req, p.rep)
			return
		}
	}
	p.rep.Reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
}

// --- primary path ---

// servePrimary executes one op this machine owns: reads hit the local
// shard directly; mutations enter the key's replication pipeline. With
// leases enabled, both paths are fenced — reads as well as writes,
// because a stale read from a deposed primary is just as nonlinearizable
// as a divergent write — behind the machine lease and the key's
// takeover fence, and every refusal is typed (StatusFenced), never a
// silent divergence.
func (r *Router) servePrimary(req kvs.Request, rep smartnic.Replier) {
	if r.leases && (!r.LeaseValid() || r.keyFenced(req.Key)) {
		r.stats.LeaseFenced++
		rep.Reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusFenced}))
		return
	}
	if req.Op != kvs.OpPut && req.Op != kvs.OpDelete {
		r.store.Serve(req, rep)
		return
	}
	r.enqueue(&writeTask{req: req, rep: rep})
}

func (r *Router) enqueue(t *writeTask) {
	t.r = r
	g := r.gates[t.req.Key]
	if g == nil {
		g = &keyGate{}
		r.gates[t.req.Key] = g
	}
	if g.cur == nil {
		g.cur = t
		r.startTask(t)
		return
	}
	if len(g.queue) >= DefaultWriteBound {
		// Bounded pipeline: refuse rather than queue without limit.
		r.stats.Shed++
		if t.rep != nil {
			t.rep.Reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusShed}))
		}
		return
	}
	g.queue = append(g.queue, t)
}

func (r *Router) startTask(t *writeTask) {
	if r.halted {
		return
	}
	// A sync task reads the key's current value under the gate, so no
	// later client write can be overtaken by a stale sync.
	r.store.Serve(t.req, t)
}

// Reply is the store's answer to the task's local step: the read of a
// sync task, the local apply of any other.
func (t *writeTask) Reply(b []byte) {
	r := t.r
	resp, err := kvs.DecodeResponse(b)
	switch {
	case !t.sync && (err != nil || resp.Status != kvs.StatusOK):
		// Local apply failed (shed, unavailable, IO error): the client
		// hears the truth and nothing was replicated.
		t.rep.Reply(b)
		r.finishTask(t)
	case !t.sync:
		t.resp = b
		r.replicate(t)
	case err != nil || resp.Status == kvs.StatusError || resp.Status == kvs.StatusUnavailable:
		r.finishTask(t) // shard unreadable; a later view change retries
	case resp.Status == kvs.StatusNotFound:
		t.req.Op = kvs.OpDelete
		r.replicate(t)
	default:
		t.req.Op, t.req.Value = kvs.OpPut, resp.Value
		r.replicate(t)
	}
}

// repTargets computes the task's replication set: every live owner of
// the key under the current ring, plus — while a ring is staged —
// every live owner under the staged ring, minus this machine. Order is
// ring order (current first), so the set is deterministic. The result
// is router scratch, like owners'.
func (r *Router) repTargets(key string) []msg.DeviceID {
	out := r.targets[:0]
	for _, id := range r.owners(key) {
		if id != r.id {
			out = append(out, id)
		}
	}
	if r.pendingRing != nil {
		r.own = r.pendingRing.ownersInto(r.own, key, r.dead, DefaultReplicas)
		for _, id := range r.own {
			if id != r.id && !slices.Contains(out, id) {
				out = append(out, id)
			}
		}
	}
	r.targets = out
	return out
}

// replicate sends the task's mutation to every replication target and
// acks the client only when all of them acked (R1). The target set is
// recomputed under the live view on every attempt, so dead backups
// drop out; with no live target left the primary is the shard's sole
// owner and acks alone.
func (r *Router) replicate(t *writeTask) {
	if r.halted || t.done {
		return
	}
	t.targets = t.targets[:0]
	for _, id := range r.repTargets(t.req.Key) {
		if !t.acked[id] {
			t.targets = append(t.targets, id)
		}
	}
	if len(t.targets) == 0 {
		if len(t.acked) == 0 {
			r.stats.SoloAcks++
		}
		r.ackTask(t)
		return
	}
	if t.seq == 0 {
		r.repSeq++
		t.seq = r.repSeq
		r.inflight[t.seq] = t
	}
	r.rep = msg.Replicate{Epoch: r.epoch, Seq: t.seq, Del: t.req.Op == kvs.OpDelete, Sync: t.sync, Key: t.req.Key, Value: t.req.Value}
	for _, b := range t.targets {
		r.cl.net.Send(r.id, b, r.epoch, &r.rep)
	}
	t.tm.Arm(r.eng, DefaultRepRetry, t)
}

// Fire is the retransmit timer: not every target acked within DefaultRepRetry.
// Retransmit under the current view — a backup may have changed or
// vanished since the last attempt.
func (t *writeTask) Fire() { t.r.replicate(t) }

func (r *Router) onReplicate(src msg.DeviceID, m *msg.Replicate) {
	w := r.wm[m.Key]
	newer := m.Epoch > w.epoch || (m.Epoch == w.epoch && m.Seq > w.seq)
	if !newer {
		// Already applied (or superseded): re-ack so a lost ack cannot
		// wedge the primary, but never re-apply (R2).
		r.stats.RepFenced++
		r.sendAck(src, m.Seq, true)
		return
	}
	apply := kvs.Request{Op: kvs.OpPut, Key: m.Key, Value: m.Value}
	if m.Del {
		apply = kvs.Request{Op: kvs.OpDelete, Key: m.Key}
	}
	r.store.Serve(apply, &applied{r: r, src: src, key: m.Key, epoch: m.Epoch, seq: m.Seq})
}

// applied is a Replicate this machine applies as a backup: the store's
// answer moves the key's watermark and acks the primary.
type applied struct {
	r     *Router
	src   msg.DeviceID
	key   string
	epoch uint32
	seq   uint64
}

func (a *applied) Reply(b []byte) {
	r := a.r
	if r.halted {
		return
	}
	resp, err := kvs.DecodeResponse(b)
	// Deleting an absent key converges to the same state; only real
	// failures (IO error, unavailable) withhold the ack.
	ok := err == nil && (resp.Status == kvs.StatusOK || resp.Status == kvs.StatusNotFound)
	if ok {
		r.stats.Applies++
		if cur := r.wm[a.key]; a.epoch > cur.epoch || (a.epoch == cur.epoch && a.seq > cur.seq) {
			r.wm[a.key] = watermark{epoch: a.epoch, seq: a.seq}
		}
	}
	r.sendAck(a.src, a.seq, ok)
}

func (r *Router) sendAck(to msg.DeviceID, seq uint64, ok bool) {
	r.ack = msg.ReplicateAck{Seq: seq, OK: ok, Epoch: r.epoch, Dead: r.deadSorted}
	r.cl.net.Send(r.id, to, r.epoch, &r.ack)
}

func (r *Router) onReplicateAck(src msg.DeviceID, m *msg.ReplicateAck) {
	r.noteDead("gossip", m.Dead...)
	t := r.inflight[m.Seq]
	if t == nil || !m.OK {
		return // stale ack, or a failed apply the retransmit timer retries
	}
	if t.acked == nil {
		t.acked = make(map[msg.DeviceID]bool)
	}
	t.acked[src] = true
	// The client is acked only when every CURRENT target acked: targets
	// are recomputed under the live view, so acks from since-dead (or
	// since-replaced) backups never complete a task on their own.
	for _, id := range r.repTargets(t.req.Key) {
		if !t.acked[id] {
			return
		}
	}
	delete(r.inflight, m.Seq)
	r.ackTask(t)
}

// ackTask completes a task: client ack (writes only reach here with the
// mutation durable on every live owner) and pipeline advance.
func (r *Router) ackTask(t *writeTask) {
	if t.done {
		return
	}
	if t.rep != nil {
		resp := t.resp
		if resp == nil {
			resp = kvs.EncodeResponse(kvs.Response{Status: kvs.StatusOK})
		}
		t.rep.Reply(resp)
	}
	r.finishTask(t)
}

// finishTask retires a task without touching the client and starts the
// key's next queued mutation.
func (r *Router) finishTask(t *writeTask) {
	if t.done {
		return
	}
	t.done = true
	t.tm.Stop()
	delete(r.inflight, t.seq)
	if t.xfer && r.pendingRing != nil && t.xferVer == r.pendingVer {
		r.xferLeft--
		r.xferCheck()
	}
	g := r.gates[t.req.Key]
	if g == nil || g.cur != t {
		return
	}
	if len(g.queue) == 0 {
		delete(r.gates, t.req.Key)
		return
	}
	g.cur = g.queue[0]
	g.queue = g.queue[1:]
	r.startTask(g.cur)
}

// --- membership ---

// noteUnreachable is the network's transport-failure signal. Under
// decentralized membership the observer rules the peer dead and tells
// everyone; under a head node only the head's own observations count
// (it is the authority), and everyone else waits for its RingUpdate.
func (r *Router) noteUnreachable(dst msg.DeviceID) {
	if r.halted {
		return
	}
	if r.leases {
		// Directional suspicion: failing to reach dst proves only that
		// the forward path is broken — dst may be healthy and still
		// hearing us (asymmetric cut), or merely slow. Record the
		// suspicion; death is declared only once the INBOUND direction
		// confirms it (the silence sweep, at half the usual patience for
		// suspects). Without this, a one-way cut A→B made A declare B
		// dead even while B answered everyone. A peer we have NEVER
		// heard from is exempt: a connection refused during someone
		// else's boot is normal, not evidence.
		if _, heard := r.lastHeard[dst]; heard && !r.suspects[dst] {
			r.suspects[dst] = true
			r.stats.Suspicions++
		}
		return
	}
	if r.head != 0 && !r.isHead() {
		return
	}
	r.noteDead("unreachable", dst)
}

// noteDead merges machine deaths into the view; on change it bumps the
// epoch, fails pending ops aimed at the dead, re-replicates the shards
// this machine now leads, and (as detector or head) broadcasts the view.
func (r *Router) noteDead(why string, ids ...msg.DeviceID) {
	if r.halted {
		return
	}
	fresh := make([]msg.DeviceID, 0, len(ids))
	for _, id := range ids {
		if id != r.id && !r.dead[id] {
			r.dead[id] = true
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return
	}
	sorted := make([]msg.DeviceID, 0, len(r.dead))
	for id := range r.dead {
		sorted = append(sorted, id)
	}
	slices.Sort(sorted)
	r.deadSorted = sorted
	// prev is the view before this change: the dead set minus the
	// machines that just joined it.
	prev := maps.Clone(r.dead)
	for _, id := range fresh {
		delete(prev, id)
	}
	r.stats.ViewChanges++
	r.recalcEpoch()
	r.cl.tracef("m%d view epoch=%d dead=%v (%s)", r.id, r.epoch, r.deadSorted, why)

	if r.leases {
		// Takeover fence: record the view this change replaced. Any key
		// whose primary differs between a recent-past view and now is
		// refused (typed, StatusFenced) until every lease the deposed
		// primary could possibly hold has lapsed — see keyFenced. Rings
		// are immutable after construction, so capturing the pointer is
		// a snapshot.
		r.views = append(r.views, viewSnap{until: r.eng.Now(), ring: r.ring, dead: prev})
	}

	r.failPendingTo(fresh)
	r.resyncAfter(prev)

	// Gossip radius: the machine that detected the death (or the head,
	// whose word is law) broadcasts; learners stay quiet so one death
	// costs one broadcast wave, not a storm. Silence-detected deaths
	// broadcast for the same reason transport-detected ones do: the
	// detector is the only machine that knows.
	if why == "unreachable" || why == "silence" || (r.isHead() && why != "ring.update") {
		r.broadcastView()
	}
}

// failPendingTo answers every pending op whose target just died:
// Unavailable now beats a client timeout later.
func (r *Router) failPendingTo(died []msg.DeviceID) {
	gone := make(map[msg.DeviceID]bool, len(died))
	for _, id := range died {
		gone[id] = true
	}
	var ids []uint64
	for id, p := range r.pending {
		if gone[p.target] {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		r.pending[id].finish(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
	}
}

// resyncAfter re-replicates every key whose ownership this view change
// handed to or re-based under this machine: promotion (the old primary
// died) and backup replacement both funnel through here, keeping R3 —
// every key reaches a full live replica set again.
func (r *Router) resyncAfter(prevDead map[msg.DeviceID]bool) {
	for _, key := range r.store.KeyList() {
		now := r.ring.Owners(key, r.dead, DefaultReplicas)
		if len(now) == 0 || now[0] != r.id {
			continue
		}
		was := r.ring.Owners(key, prevDead, DefaultReplicas)
		if slices.Equal(was, now) {
			continue
		}
		r.stats.Resyncs++
		r.enqueue(&writeTask{req: kvs.Request{Op: kvs.OpGet, Key: key}, sync: true})
	}
}

// broadcastView sends the dead set to every machine still in the view.
func (r *Router) broadcastView() {
	dead := r.deadSorted
	for _, id := range r.cl.MachineIDs() {
		if id == r.id || r.dead[id] {
			continue
		}
		r.cl.net.Send(r.id, id, r.epoch, &msg.RingUpdate{Epoch: r.epoch, Dead: dead})
	}
}

// --- planned membership change (fleet reconciliation) ---
//
// A membership change is a two-phase protocol over ring versions:
//
//	prepare(v, members) — every live machine stages ring v. Each
//	  current primary re-replicates the keys whose owner set changes
//	  (the ring's minimal-movement property keeps this to the moved
//	  arc), and client mutations replicate to the UNION of current and
//	  staged owners for the duration. Routing stays on the current
//	  ring, so reads always land where the data already is. When a
//	  machine's transfer drains it reports transfer-done to the
//	  coordinator.
//	commit(v, members) — after every live participant reported, the
//	  coordinator broadcasts commit and all routers adopt ring v
//	  atomically (per machine). The commit broadcast happens inside
//	  one event, so a coordinator crash cannot split it.
//	abort(v) — any death during the transition aborts it (the level-
//	  triggered reconciler retries once failover settles); union
//	  replication has kept every acked write durable at both owner
//	  sets, so aborting loses nothing.
//
// Phases are idempotent: versions at or below the running ring are
// ignored, so duplicated or re-driven phases are harmless.

func (r *Router) applyRingConfig(src msg.DeviceID, m *msg.RingConfig) {
	if r.halted || m.Ver <= r.ringVer {
		return
	}
	switch m.Phase {
	case msg.RingPrepare:
		if len(m.Members) == 0 || (r.pendingRing != nil && m.Ver <= r.pendingVer) {
			return
		}
		joining := !r.InRing() && slices.Contains(m.Members, r.id)
		r.pendingVer = m.Ver
		r.pendingMembers = append([]msg.DeviceID(nil), m.Members...)
		r.pendingRing = NewRing(m.Members, DefaultVnodes)
		r.pendingFrom = src
		r.xferReported = false
		r.stats.RingStaged++
		r.cl.tracef("m%d ring stage v%d members=%v", r.id, m.Ver, m.Members)
		r.startXfer()
		if joining {
			// Joining: wipe whatever a previous ring stint left behind
			// before reporting transfer-done — a commit must never find
			// stale keys here. Keys this very transition is syncing over
			// are kept: a watermark at the ring version current NOW (pinned,
			// so a commit mid-sweep cannot reinterpret it) proves freshness.
			minVer := r.ringVer
			ver := m.Ver
			r.xferLeft++
			r.purgeKeys(r.store.KeyList(), func(key string) bool {
				w, ok := r.wm[key]
				return ok && w.epoch>>8 >= minVer
			}, func() {
				if r.pendingRing != nil && r.pendingVer == ver {
					r.xferLeft--
					r.xferCheck()
				}
			})
		}
		r.xferCheck()
	case msg.RingCommit:
		members := m.Members
		if len(members) == 0 && r.pendingRing != nil && m.Ver == r.pendingVer {
			members = r.pendingMembers
		}
		if len(members) == 0 {
			return
		}
		r.ring = NewRing(members, DefaultVnodes)
		r.ringVer = m.Ver
		r.clearPending()
		r.recalcEpoch()
		r.stats.RingCommits++
		r.cl.tracef("m%d ring commit v%d members=%v epoch=%d", r.id, m.Ver, members, r.epoch)
		r.purgeKeys(r.store.KeyList(), r.keepOwned, nil)
	case msg.RingAbort:
		if r.pendingRing == nil || m.Ver != r.pendingVer {
			return
		}
		r.clearPending()
		r.stats.RingAborts++
		r.cl.tracef("m%d ring abort v%d", r.id, m.Ver)
		r.purgeKeys(r.store.KeyList(), r.keepOwned, nil)
	}
}

func (r *Router) clearPending() {
	r.pendingRing = nil
	r.pendingVer = 0
	r.pendingMembers = nil
	r.pendingFrom = 0
	r.xferLeft = 0
	r.xferReported = false
}

// startXfer enqueues one sync task per local key whose owner set
// changes under the staged ring and this machine currently leads. The
// tasks ride the per-key gates, so they serialize behind (and carry
// the values of) any in-flight client writes.
func (r *Router) startXfer() {
	count := 0
	for _, key := range r.store.KeyList() {
		cur := r.owners(key)
		if len(cur) == 0 || cur[0] != r.id {
			continue
		}
		if slices.Equal(cur, r.pendingRing.Owners(key, r.dead, DefaultReplicas)) {
			continue
		}
		count++
		r.stats.Xfers++
		r.enqueue(&writeTask{req: kvs.Request{Op: kvs.OpGet, Key: key}, sync: true, xfer: true, xferVer: r.pendingVer})
	}
	r.xferLeft = count
}

// xferCheck reports this machine's transfer complete to the
// coordinator, exactly once per staged ring, when nothing is left.
func (r *Router) xferCheck() {
	if r.pendingRing == nil || r.xferLeft != 0 || r.xferReported {
		return
	}
	r.xferReported = true
	rep := r.Conditions()
	rep.TransferVer = r.pendingVer
	r.cl.tracef("m%d ring xfer done v%d", r.id, r.pendingVer)
	r.SendControl(r.pendingFrom, rep)
}

// onDrain executes a reconciler order. Upgrade is legal only out of
// the ring (flashing never races serving); an unknown mode is ignored.
func (r *Router) onDrain(m *msg.Drain) {
	switch m.Mode {
	case msg.DrainCordon:
		if !r.cordoned {
			r.cordoned = true
			r.stats.Cordons++
			r.cl.tracef("m%d cordoned", r.id)
		}
	case msg.DrainUncordon:
		r.cordoned = false
	case msg.DrainUpgrade:
		if r.InRing() || r.upgradeTo != 0 || r.confVer >= m.ConfigVersion {
			return
		}
		r.upgradeTo = m.ConfigVersion
		r.stats.Upgrades++
		r.cl.tracef("m%d upgrading to conf v%d", r.id, r.upgradeTo)
		r.eng.Schedule(DefaultUpgradeDelay, (*upgradeDone)(r))
	}
}

// upgradeDone is the router as the event that ends its config flash (a
// pointer conversion: arming it allocates nothing), as are its periodic
// events below. A halted router's events do nothing.
type upgradeDone Router

func (e *upgradeDone) Fire() {
	r := (*Router)(e)
	if r.halted {
		return
	}
	r.confVer, r.upgradeTo = r.upgradeTo, 0
	r.cl.tracef("m%d upgraded to conf v%d", r.id, r.confVer)
}

// keepOwned keeps a key after a ring adoption iff this machine still
// owns it (any replica slot) or a task for it is in flight. Purging
// strays matters for safety, not just space: a stale copy on a
// non-owner could be served as truth if later deaths promote the
// machine back into the key's owner set.
func (r *Router) keepOwned(key string) bool {
	if r.gates[key] != nil {
		return true
	}
	return slices.Contains(r.owners(key), r.id)
}

// purgeKeys deletes the listed keys from the local store, skipping
// those keep() wants, one at a time in sorted order — each delete's
// answer starts the next, so the sweep cannot overrun the store queue
// bound. done (optional) fires when the sweep ends.
func (r *Router) purgeKeys(keys []string, keep func(string) bool, done func()) {
	if r.halted {
		return
	}
	for i, key := range keys {
		if keep(key) {
			continue
		}
		delete(r.wm, key)
		r.stats.Strays++
		rest := keys[i+1:]
		r.store.Serve(kvs.Request{Op: kvs.OpDelete, Key: key}, smartnic.ReplyFunc(func([]byte) {
			r.purgeKeys(rest, keep, done)
		}))
		return
	}
	if done != nil {
		done()
	}
}

// --- head-node heartbeating ---

// heartbeat is the router as the event of its next heartbeat to the head.
type heartbeat Router

func (e *heartbeat) Fire() {
	r := (*Router)(e)
	if r.halted {
		return
	}
	r.hbSeq++
	r.cl.net.Send(r.id, r.head, r.epoch, &msg.Heartbeat{Seq: r.hbSeq})
	r.eng.Schedule(DefaultHeartbeatEvery, e)
}

// sweep is the head's staleness sweep: a machine whose heartbeat is older
// than DefaultFailTimeout is declared dead and the view broadcast.
type sweep Router

func (e *sweep) Fire() {
	r := (*Router)(e)
	if r.halted {
		return
	}
	now := r.eng.Now()
	var stale []msg.DeviceID
	for _, id := range r.cl.MachineIDs() {
		if id == r.id || r.dead[id] {
			continue
		}
		last, beaten := r.lastBeat[id]
		if beaten && now.Sub(last) > DefaultFailTimeout {
			stale = append(stale, id)
		}
	}
	if len(stale) > 0 {
		r.noteDead("heartbeat", stale...)
	}
	r.eng.Schedule(DefaultFailTimeout/2, e)
}

// --- epoch leases (Config.Leases) ---
//
// The split-brain defense. A machine serves as primary (or acts as the
// reconcile actor) only while holding a lease countersigned by a quorum
// — a majority of the full ring membership, counting itself — within
// the last DefaultLeaseDuration of virtual time. Two disjoint
// majorities cannot exist, so two machines cannot hold live leases
// under contradictory membership views: the side of a partition that
// cannot assemble a quorum loses its lease within DefaultLeaseDuration
// and refuses every client op with StatusFenced. Renewal runs every
// DefaultLeaseRenewEvery; since grantors stop countersigning the moment
// their view declares the holder dead (and dead sets never shrink), a
// deposed primary's authority dies no later than DefaultLeaseDuration
// after its last quorum.

// leaseQuorum is a majority of the full ring membership. The membership
// (not the live view) is the electorate: a machine that declares
// everyone else dead must still find itself short of quorum.
func (r *Router) leaseQuorum() int { return len(r.ring.machines)/2 + 1 }

// LeaseValid reports whether this machine currently holds a
// quorum-countersigned lease. With leases disabled it is always true —
// the gate compiles away and every earlier experiment is untouched.
// internal/reconcile fences the actor role on it and E21's split-brain
// audit samples it.
func (r *Router) LeaseValid() bool {
	if !r.leases {
		return true
	}
	return r.InRing() && r.eng.Now() < r.leaseUntil
}

// viewSnap is one entry of the takeover-fence history: the membership
// view (ring + dead set) that was in effect strictly before `until`.
type viewSnap struct {
	until sim.Time
	ring  *Ring
	dead  map[msg.DeviceID]bool
}

// keyFenced reports whether key sits behind a still-live takeover
// fence: the view in effect DefaultLeaseDuration+DefaultFailTimeout ago
// named a different primary, and that primary may still hold a lease
// granted under it (one gossip round for its last grantor to learn of
// the death, ≤ DefaultFailTimeout, plus the lease itself). The check consults the view
// history rather than a per-key map so that keys promoted WITHOUT a
// local replica are fenced too. Dead sets only grow, so a machine that
// was primary for a key at the window's start stays primary through
// now — checking the single view at the cutoff covers the whole window.
func (r *Router) keyFenced(key string) bool {
	cutoff := r.eng.Now().Add(-(DefaultLeaseDuration + DefaultFailTimeout))
	// Views replaced at or before the cutoff can never fence again (the
	// cutoff only advances); drop them.
	for len(r.views) > 0 && r.views[0].until <= cutoff {
		r.views = r.views[1:]
	}
	if len(r.views) == 0 {
		return false
	}
	v := r.views[0] // the view in effect at the cutoff instant
	was := v.ring.Owners(key, v.dead, DefaultReplicas)
	return len(was) > 0 && was[0] != r.id
}

// KeyFenced is the exported takeover-fence probe (E21 split-brain audit).
func (r *Router) KeyFenced(key string) bool {
	if !r.leases {
		return false
	}
	return r.keyFenced(key)
}

// PrimaryFor reports whether this router's own membership view routes
// key to itself as primary. Together with LeaseValid and KeyFenced it
// is the "would I serve this key right now" probe: E21 counts, at every
// sample instant, how many machines answer yes for the same key — more
// than one is a split brain.
func (r *Router) PrimaryFor(key string) bool {
	own := r.owners(key)
	return len(own) > 0 && own[0] == r.id
}

// Suspects returns the directionally-suspected peers (sorted; test and
// diagnostic use).
func (r *Router) Suspects() []msg.DeviceID {
	out := make([]msg.DeviceID, 0, len(r.suspects))
	for id := range r.suspects {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// leaseTick is the router as the event of its next lease renewal.
type leaseTick Router

func (e *leaseTick) Fire() {
	r := (*Router)(e)
	if r.halted {
		return
	}
	r.renewLease()
	r.eng.Schedule(DefaultLeaseRenewEvery, e)
}

// renewLease starts one countersigning round: a fresh Seq, a self-grant,
// and a LeaseRenew to every ring member this view holds alive. Stale
// grants (older Seq) are ignored, so a slow round can never resurrect an
// expired lease with old signatures.
func (r *Router) renewLease() {
	if !r.InRing() {
		return
	}
	if r.eng.Now() >= r.leaseUntil {
		r.stats.LeaseLapses++
	}
	r.leaseSeq++
	r.stats.LeaseRenews++
	clear(r.leaseRound)
	r.leaseRound[r.id] = true
	until := r.eng.Now().Add(DefaultLeaseDuration)
	if len(r.leaseRound) >= r.leaseQuorum() {
		// Single-member ring: the self-grant is the quorum.
		r.extendLease(until)
		return
	}
	r.renew = msg.LeaseRenew{Seq: r.leaseSeq, Until: uint64(until)}
	for _, id := range r.ring.machines {
		if id == r.id || r.dead[id] {
			continue
		}
		r.cl.net.Send(r.id, id, r.epoch, &r.renew)
	}
}

func (r *Router) extendLease(until sim.Time) {
	if until > r.leaseUntil {
		r.leaseUntil = until
	}
}

// onLeaseRenew countersigns a renewal round. Frames from machines this
// view holds dead never reach here (onFrame answers those with a typed
// LeaseRevoke), so reaching this handler IS the grant decision.
func (r *Router) onLeaseRenew(src msg.DeviceID, m *msg.LeaseRenew) {
	r.stats.LeaseGrants++
	r.grant = msg.LeaseGrant{Seq: m.Seq, Until: m.Until}
	r.cl.net.Send(r.id, src, r.epoch, &r.grant)
}

func (r *Router) onLeaseGrant(src msg.DeviceID, m *msg.LeaseGrant) {
	if m.Seq != r.leaseSeq {
		return // a stale round's signature proves nothing about now
	}
	r.leaseRound[src] = true
	if len(r.leaseRound) >= r.leaseQuorum() {
		r.extendLease(sim.Time(m.Until))
	}
}

// silence is the decentralized inbound-silence failure detector.
// The lease renewal chatter guarantees every pair of ring members
// periodic traffic, so "I have heard nothing from p for
// DefaultFailTimeout" is meaningful evidence — and unlike a transport-level send failure it
// measures the direction that matters for death: whether p can still
// reach us. Directionally-suspected peers (we failed to reach them) get
// half the patience: two independent signals, outbound failure plus
// inbound silence, converge on a declaration sooner than either alone.
type silence Router

func (e *silence) Fire() {
	r := (*Router)(e)
	if r.halted {
		return
	}
	if r.InRing() {
		now := r.eng.Now()
		var silent []msg.DeviceID
		for _, id := range r.ring.machines {
			if id == r.id || r.dead[id] {
				continue
			}
			last, heard := r.lastHeard[id]
			if !heard {
				// A peer that has never spoken to us cannot be judged
				// silent: during a staggered boot it is indistinguishable
				// from a machine still coming up, and declaring it dead
				// here is exactly the false positive that cascades (the
				// boot window grows with N, so any fixed grace loses).
				// Once it speaks, the renewal chatter keeps every pair's
				// clock fresh within microseconds — and a booted machine
				// that dies IS heard-from by its neighbors first, whose
				// silence verdict then reaches us as view gossip.
				continue
			}
			patience := DefaultFailTimeout
			if r.suspects[id] {
				patience /= 2
			}
			if now.Sub(last) > patience {
				silent = append(silent, id)
			}
		}
		if len(silent) > 0 {
			r.stats.SilenceDeaths += uint64(len(silent))
			r.noteDead("silence", silent...)
		} else if len(r.dead) > 0 {
			// Level-triggered view gossip: re-broadcast the dead set
			// each sweep so machines the original wave could not reach
			// (one-way cuts) still converge, which bounds how long a
			// deposed primary keeps finding willing grantors.
			r.broadcastView()
		}
	}
	r.eng.Schedule(DefaultFailTimeout/2, e)
}
