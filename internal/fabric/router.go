package fabric

import (
	"sort"

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

// Router tuning defaults.
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
	// Epoch-lease defaults (Config.Leases). The lease must be shorter
	// than the failure-detection timeout: by the time a majority has
	// declared a machine dead and stopped countersigning, every lease it
	// ever held has lapsed, so the promoted primary's takeover fence
	// (leaseDur + failAfter past the promotion) outlives the old
	// primary's authority.
	DefaultLeaseDuration   = 2 * sim.Millisecond
	DefaultLeaseRenewEvery = 500 * sim.Microsecond
)

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
	Timeouts    uint64 // pending client ops that hit OpTimeout
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

// routerConfig is assembled by the Cluster from its Config.
type routerConfig struct {
	id           msg.DeviceID
	head         msg.DeviceID // 0 = decentralized membership
	replicas     int
	vnodes       int
	repRetry     sim.Duration
	opTimeout    sim.Duration
	hbEvery      sim.Duration
	failAfter    sim.Duration
	upgradeDelay sim.Duration
	writeBound   int
	leases       bool
	leaseDur     sim.Duration
	leaseRenew   sim.Duration
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
	reply    func([]byte)
	payload  []byte
}

// writeTask is one mutation moving through a key's replication
// pipeline: local apply, then Replicate to every replication target,
// then the client ack once ALL current targets acked. Sync tasks
// (view-change resync and staged-ring transfer) skip the local apply
// and carry the value read from the store instead.
type writeTask struct {
	r     *Router
	key   string
	del   bool
	value []byte
	// req is the original client request (unset for sync tasks).
	req kvs.Request
	// reply acks the client (nil for sync tasks).
	reply func([]byte)
	resp  []byte // local store response, held until the backups ack

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
	cfg   routerConfig
	cl    *Cluster
	ring  *Ring
	store *kvs.Store
	eng   *sim.Engine
	rt    *smartnic.Runtime

	halted bool

	dead       map[msg.DeviceID]bool
	deadSorted []msg.DeviceID // dead in ID order, rebuilt when dead changes
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
	// fwd and resp are the bodies of outgoing FabricReq and FabricResp
	// frames. Network.Send encodes the message before it returns and
	// keeps no reference, so one body per router is refilled per frame.
	fwd  msg.FabricReq
	resp msg.FabricResp

	repSeq   uint64
	gates    map[string]*keyGate
	inflight map[uint64]*writeTask

	wm map[string]watermark

	hbSeq    uint64
	lastBeat map[msg.DeviceID]sim.Time

	// Epoch-lease fencing (cfg.leases). The machine serves as primary
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

func newRouter(cl *Cluster, cfg routerConfig, ring *Ring, store *kvs.Store, eng *sim.Engine) *Router {
	return &Router{
		cfg:       cfg,
		cl:        cl,
		ring:      ring,
		store:     store,
		eng:       eng,
		confVer:   1,
		dead:      make(map[msg.DeviceID]bool),
		pending:   make(map[uint64]*pendingReq),
		gates:     make(map[string]*keyGate),
		inflight:  make(map[uint64]*writeTask),
		wm:        make(map[string]watermark),
		lastBeat:  make(map[msg.DeviceID]sim.Time),
		lastHeard: make(map[msg.DeviceID]sim.Time),
		suspects:  make(map[msg.DeviceID]bool),
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
	if r.cfg.leases {
		if r.InRing() {
			r.leaseUntil = r.eng.Now().Add(r.cfg.leaseDur)
		}
		r.eng.Schedule(r.cfg.leaseRenew, (*leaseTick)(r))
		if r.cfg.head == 0 {
			r.eng.Schedule(r.cfg.failAfter/2, (*silence)(r))
		}
	}
	if r.cfg.head == 0 {
		return
	}
	if r.isHead() {
		r.eng.Schedule(r.cfg.failAfter/2, (*sweep)(r))
	} else {
		r.eng.Schedule(r.cfg.hbEvery, (*heartbeat)(r))
	}
}

// PeerFailed implements smartnic.App. Intra-machine device failure is
// the machine's own problem; fabric membership is judged at machine
// granularity by the network and the head.
func (r *Router) PeerFailed(msg.DeviceID) {}

func (r *Router) isHead() bool { return r.cfg.head != 0 && r.cfg.head == r.cfg.id }

// --- fleet-reconciliation surface (used by internal/reconcile) ---

// AttachControl installs the machine's reconcile agent.
func (r *Router) AttachControl(a ControlAgent) { r.ctrl = a }

// ID returns the router's machine address.
func (r *Router) ID() msg.DeviceID { return r.cfg.id }

// Head returns the configured head machine (0 when decentralized).
func (r *Router) Head() msg.DeviceID { return r.cfg.head }

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
func (r *Router) InRing() bool { return memberOf(r.ring.Machines(), r.cfg.id) }

// Cordoned reports whether the machine is cordoned off client ingress.
func (r *Router) Cordoned() bool { return r.cordoned }

// Upgrading reports whether a config flash is in progress.
func (r *Router) Upgrading() bool { return r.upgradeTo != 0 }

// ConfigVersion returns the machine's running config/firmware version.
func (r *Router) ConfigVersion() uint32 { return r.confVer }

// DeadIDs returns the machines this router's view has declared dead.
func (r *Router) DeadIDs() []msg.DeviceID { return append([]msg.DeviceID{}, r.deadList()...) }

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
	if dst == r.cfg.id {
		// Self-delivery: drain orders are mechanism (the decentralized
		// actor must be able to cordon and rotate ITSELF out of the ring);
		// everything else is policy traffic for the agent.
		if d, ok := m.(*msg.Drain); ok {
			r.onDrain(d)
			return
		}
		if r.ctrl != nil {
			r.ctrl.OnControl(r.cfg.id, m)
		}
		return
	}
	r.cl.net.Send(r.cfg.id, dst, r.epoch, m)
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
		if id == r.cfg.id || r.dead[id] {
			continue
		}
		r.cl.net.Send(r.cfg.id, id, r.epoch, &msg.RingConfig{
			Ver: ver, Phase: phase, Members: append([]msg.DeviceID(nil), members...),
		})
	}
	r.applyRingConfig(r.cfg.id, &msg.RingConfig{Ver: ver, Phase: phase, Members: members})
}

func memberOf(ms []msg.DeviceID, id msg.DeviceID) bool {
	for _, m := range ms {
		if m == id {
			return true
		}
	}
	return false
}

// halt freezes the router when the cluster kills its machine: every
// timer and handler bails, modeling crash-stop.
func (r *Router) halt() { r.halted = true }

// deadList returns the dead set in sorted order (gossip payloads and
// deterministic iteration). The slice is shared and read-only: noteDead,
// the only place the dead set changes, replaces it rather than editing it.
func (r *Router) deadList() []msg.DeviceID { return r.deadSorted }

// owners is the ring lookup under this router's view.
func (r *Router) owners(key string) []msg.DeviceID {
	return r.ring.Owners(key, r.dead, r.cfg.replicas)
}

// ServeNetwork implements smartnic.App: one byte discriminates peer
// fabric frames (frameMagic) from client kvs requests.
func (r *Router) ServeNetwork(payload []byte, reply func([]byte)) {
	r.ServeTenantNetwork(0, payload, reply)
}

// ServeTenantNetwork implements smartnic.TenantApp: the NIC edge
// authenticated the client as tenant tn, and the stamp is re-encoded
// into the request before routing so it survives fabric hops — the
// owning machine's store sees the same authenticated tenant the entry
// machine did, wherever the key lives.
func (r *Router) ServeTenantNetwork(tn uint16, payload []byte, reply func([]byte)) {
	if r.halted {
		return
	}
	if len(payload) > 0 && payload[0] == frameMagic {
		r.onFrame(payload[1:]) // peer frames carry no tenant
		return
	}
	// The one decode of a client request on this machine: everything
	// downstream takes req, and payload only travels on.
	req, err := kvs.DecodeRequest(payload)
	if err != nil {
		reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusError}))
		return
	}
	if tn != 0 {
		req.Tenant = uint32(tn)
		payload = kvs.EncodeRequest(req)
	}
	r.onClient(req, payload, reply)
}

// --- client ingress ---

func (r *Router) onClient(req kvs.Request, payload []byte, reply func([]byte)) {
	own := r.owners(req.Key)
	if len(own) == 0 {
		reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
		return
	}
	if own[0] == r.cfg.id {
		r.stats.Local++
		r.servePrimary(req, payload, reply)
		return
	}
	r.stats.Remote++
	r.forward(own[0], payload, reply, false)
}

// forward sends a client op to the key's primary — directly, or through
// the head node when one is configured (the centralized-routing
// baseline; the owner still answers the origin directly, so only the
// request leg transits the head).
func (r *Router) forward(primary msg.DeviceID, payload []byte, reply func([]byte), rerouted bool) {
	target := primary
	if r.cfg.head != 0 && !r.isHead() {
		target = r.cfg.head
	}
	r.nextReq++
	p := &pendingReq{r: r, id: r.nextReq, target: primary, reply: reply, payload: payload, rerouted: rerouted}
	r.pending[p.id] = p
	p.tm.Arm(r.eng, r.cfg.opTimeout, p)
	r.fwd = msg.FabricReq{Origin: r.cfg.id, ReqID: p.id, Payload: payload}
	r.cl.net.Send(r.cfg.id, target, r.epoch, &r.fwd)
}

// Fire is the op timeout: nobody answered within opTimeout.
func (p *pendingReq) Fire() {
	r := p.r
	if r.halted || r.pending[p.id] != p {
		return
	}
	delete(r.pending, p.id)
	r.stats.Timeouts++
	p.reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
}

// resolvePending finishes a forwarded op exactly once.
func (r *Router) resolvePending(id uint64, p *pendingReq, resp []byte) {
	if r.pending[id] != p {
		return
	}
	delete(r.pending, id)
	p.tm.Stop()
	p.reply(resp)
}

// --- peer frames ---

func (r *Router) onFrame(raw []byte) {
	env, err := msg.Decode(raw)
	if err != nil {
		return // a corrupt frame vanishes, like a bad checksum on a real wire
	}
	if r.cfg.leases {
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
		if ren, ok := env.Msg.(*msg.LeaseRenew); ok && r.cfg.leases {
			r.stats.LeaseRevokes++
			r.cl.net.Send(r.cfg.id, env.Src, r.epoch, &msg.LeaseRevoke{Seq: ren.Seq, Dead: r.deadList()})
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

func (r *Router) onFabricReq(m *msg.FabricReq) {
	req, err := kvs.DecodeRequest(m.Payload)
	if err != nil {
		r.respond(m.Origin, m.ReqID, msg.FabricServed,
			kvs.EncodeResponse(kvs.Response{Status: kvs.StatusError}))
		return
	}
	own := r.owners(req.Key)
	switch {
	case len(own) > 0 && own[0] == r.cfg.id:
		origin, id := m.Origin, m.ReqID
		r.servePrimary(req, m.Payload, func(resp []byte) {
			r.respond(origin, id, msg.FabricServed, resp)
		})
	case r.isHead() && m.Hops == 0 && len(own) > 0:
		// Head relay: forward to the shard owner, origin preserved. Hops
		// guards the (unreachable in a sane view) forwarding loop. A head
		// that lost its lease is fenced like any primary: with the sole
		// authority partitioned away, the whole machine's typed answer is
		// "fenced" — the contrast E21 measures against the decentralized
		// flavor, where only the cut-off side stalls.
		if r.cfg.leases && !r.leaseValid() {
			r.stats.LeaseFenced++
			r.respond(m.Origin, m.ReqID, msg.FabricServed,
				kvs.EncodeResponse(kvs.Response{Status: kvs.StatusFenced}))
			return
		}
		r.stats.HeadRelayed++
		r.fwd = msg.FabricReq{Origin: m.Origin, ReqID: m.ReqID, Hops: m.Hops + 1, Payload: m.Payload}
		r.cl.net.Send(r.cfg.id, own[0], r.epoch, &r.fwd)
	default:
		// Not ours: tell the origin whom we think is dead so it can catch
		// up and re-route.
		r.stats.WrongOwner++
		r.respond(m.Origin, m.ReqID, msg.FabricWrongOwner, nil)
	}
}

// respond sends a FabricResp carrying this router's dead set as gossip.
func (r *Router) respond(origin msg.DeviceID, id uint64, code uint8, resp []byte) {
	r.resp = msg.FabricResp{ReqID: id, Code: code, Dead: r.deadList(), Payload: resp}
	r.cl.net.Send(r.cfg.id, origin, r.epoch, &r.resp)
}

func (r *Router) onFabricResp(m *msg.FabricResp) {
	r.noteDead("gossip", m.Dead...)
	p := r.pending[m.ReqID]
	if p == nil {
		return // already timed out or resolved
	}
	if m.Code == msg.FabricServed {
		r.resolvePending(m.ReqID, p, m.Payload)
		return
	}
	// WrongOwner/unavailable: one re-route with the merged view, then
	// give up and let the client retry.
	delete(r.pending, m.ReqID)
	p.tm.Stop()
	if p.rerouted {
		p.reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
		return
	}
	req, err := kvs.DecodeRequest(p.payload)
	if err == nil {
		if own := r.owners(req.Key); len(own) > 0 && own[0] != r.cfg.id {
			r.stats.Reroutes++
			r.forward(own[0], p.payload, p.reply, true)
			return
		} else if len(own) > 0 {
			// The merged view promoted us: serve locally after all.
			r.stats.Reroutes++
			r.servePrimary(req, p.payload, p.reply)
			return
		}
	}
	p.reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
}

// --- primary path ---

// servePrimary executes one op this machine owns: reads hit the local
// shard directly; mutations enter the key's replication pipeline. With
// leases enabled, both paths are fenced — reads as well as writes,
// because a stale read from a deposed primary is just as nonlinearizable
// as a divergent write — behind the machine lease and the key's
// takeover fence, and every refusal is typed (StatusFenced), never a
// silent divergence.
func (r *Router) servePrimary(req kvs.Request, payload []byte, reply func([]byte)) {
	if r.cfg.leases && (!r.leaseValid() || r.keyFenced(req.Key)) {
		r.stats.LeaseFenced++
		reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusFenced}))
		return
	}
	if req.Op != kvs.OpPut && req.Op != kvs.OpDelete {
		r.store.Serve(req, reply)
		return
	}
	r.enqueue(&writeTask{
		key: req.Key, del: req.Op == kvs.OpDelete, value: req.Value,
		req: req, reply: reply,
	})
}

func (r *Router) enqueue(t *writeTask) {
	t.r = r
	g := r.gates[t.key]
	if g == nil {
		g = &keyGate{}
		r.gates[t.key] = g
	}
	if g.cur == nil {
		g.cur = t
		r.startTask(t)
		return
	}
	if len(g.queue) >= r.cfg.writeBound {
		// Bounded pipeline: refuse rather than queue without limit.
		r.stats.Shed++
		if t.reply != nil {
			t.reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusShed}))
		}
		return
	}
	g.queue = append(g.queue, t)
}

func (r *Router) startTask(t *writeTask) {
	if r.halted {
		return
	}
	if t.sync {
		// Resync: replicate the key's current value (read under the gate,
		// so no later client write can be overtaken by a stale sync).
		r.store.Serve(kvs.Request{Op: kvs.OpGet, Key: t.key}, func(b []byte) {
			resp, err := kvs.DecodeResponse(b)
			switch {
			case err != nil || resp.Status == kvs.StatusError || resp.Status == kvs.StatusUnavailable:
				r.finishTask(t) // shard unreadable; a later view change retries
			case resp.Status == kvs.StatusNotFound:
				t.del = true
				r.replicate(t)
			default:
				t.value = resp.Value
				r.replicate(t)
			}
		})
		return
	}
	r.store.Serve(t.req, func(b []byte) {
		resp, err := kvs.DecodeResponse(b)
		if err != nil || resp.Status != kvs.StatusOK {
			// Local apply failed (shed, unavailable, IO error): the client
			// hears the truth and nothing was replicated.
			if t.reply != nil {
				t.reply(b)
			}
			r.finishTask(t)
			return
		}
		t.resp = b
		r.replicate(t)
	})
}

// repTargets computes the task's replication set: every live owner of
// the key under the current ring, plus — while a ring is staged —
// every live owner under the staged ring, minus this machine. Order is
// ring order (current first), so the set is deterministic.
func (r *Router) repTargets(key string) []msg.DeviceID {
	own := r.owners(key)
	out := make([]msg.DeviceID, 0, len(own))
	for _, id := range own {
		if id != r.cfg.id {
			out = append(out, id)
		}
	}
	if r.pendingRing != nil {
		for _, id := range r.pendingRing.Owners(key, r.dead, r.cfg.replicas) {
			if id != r.cfg.id && !memberOf(out, id) {
				out = append(out, id)
			}
		}
	}
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
	for _, id := range r.repTargets(t.key) {
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
	for _, b := range t.targets {
		r.cl.net.Send(r.cfg.id, b, r.epoch, &msg.Replicate{
			Epoch: r.epoch, Seq: t.seq, Del: t.del, Sync: t.sync,
			Key: t.key, Value: t.value,
		})
	}
	t.tm.Arm(r.eng, r.cfg.repRetry, t)
}

// Fire is the retransmit timer: not every target acked within repRetry.
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
	epoch, seq := m.Epoch, m.Seq
	key := m.Key
	r.store.Serve(apply, func(b []byte) {
		if r.halted {
			return
		}
		resp, err := kvs.DecodeResponse(b)
		// Deleting an absent key converges to the same state; only real
		// failures (IO error, unavailable) withhold the ack.
		ok := err == nil && (resp.Status == kvs.StatusOK || resp.Status == kvs.StatusNotFound)
		if ok {
			r.stats.Applies++
			if cur := r.wm[key]; epoch > cur.epoch || (epoch == cur.epoch && seq > cur.seq) {
				r.wm[key] = watermark{epoch: epoch, seq: seq}
			}
		}
		r.sendAck(src, seq, ok)
	})
}

func (r *Router) sendAck(to msg.DeviceID, seq uint64, ok bool) {
	r.cl.net.Send(r.cfg.id, to, r.epoch, &msg.ReplicateAck{
		Seq: seq, OK: ok, Epoch: r.epoch, Dead: r.deadList(),
	})
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
	for _, id := range r.repTargets(t.key) {
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
	if t.reply != nil {
		resp := t.resp
		if resp == nil {
			resp = kvs.EncodeResponse(kvs.Response{Status: kvs.StatusOK})
		}
		t.reply(resp)
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
	g := r.gates[t.key]
	if g == nil || g.cur != t {
		return
	}
	if len(g.queue) == 0 {
		delete(r.gates, t.key)
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
	if r.cfg.leases {
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
	if r.cfg.head != 0 && !r.isHead() {
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
		if id != r.cfg.id && !r.dead[id] {
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
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	r.deadSorted = sorted
	// prev is the view before this change: the dead set minus the
	// machines that just joined it.
	prev := make(map[msg.DeviceID]bool, len(r.dead))
	for id := range r.dead {
		prev[id] = true
	}
	for _, id := range fresh {
		delete(prev, id)
	}
	r.stats.ViewChanges++
	r.recalcEpoch()
	r.cl.tracef("m%d view epoch=%d dead=%v (%s)", r.cfg.id, r.epoch, r.deadList(), why)

	if r.cfg.leases {
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
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := r.pending[id]
		delete(r.pending, id)
		p.tm.Stop()
		p.reply(kvs.EncodeResponse(kvs.Response{Status: kvs.StatusUnavailable}))
	}
}

// resyncAfter re-replicates every key whose ownership this view change
// handed to or re-based under this machine: promotion (the old primary
// died) and backup replacement both funnel through here, keeping R3 —
// every key reaches a full live replica set again.
func (r *Router) resyncAfter(prevDead map[msg.DeviceID]bool) {
	for _, key := range r.store.KeyList() {
		now := r.ring.Owners(key, r.dead, r.cfg.replicas)
		if len(now) == 0 || now[0] != r.cfg.id {
			continue
		}
		was := r.ring.Owners(key, prevDead, r.cfg.replicas)
		if ownersEqual(was, now) {
			continue
		}
		r.stats.Resyncs++
		r.enqueue(&writeTask{key: key, sync: true})
	}
}

func ownersEqual(a, b []msg.DeviceID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// broadcastView sends the dead set to every machine still in the view.
func (r *Router) broadcastView() {
	dead := r.deadList()
	for _, id := range r.cl.MachineIDs() {
		if id == r.cfg.id || r.dead[id] {
			continue
		}
		r.cl.net.Send(r.cfg.id, id, r.epoch, &msg.RingUpdate{Epoch: r.epoch, Dead: dead})
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
		joining := !r.InRing() && memberOf(m.Members, r.cfg.id)
		r.pendingVer = m.Ver
		r.pendingMembers = append([]msg.DeviceID(nil), m.Members...)
		r.pendingRing = NewRing(m.Members, r.cfg.vnodes)
		r.pendingFrom = src
		r.xferReported = false
		r.stats.RingStaged++
		r.cl.tracef("m%d ring stage v%d members=%v", r.cfg.id, m.Ver, m.Members)
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
		r.ring = NewRing(members, r.cfg.vnodes)
		r.ringVer = m.Ver
		r.clearPending()
		r.recalcEpoch()
		r.stats.RingCommits++
		r.cl.tracef("m%d ring commit v%d members=%v epoch=%d", r.cfg.id, m.Ver, members, r.epoch)
		r.purgeKeys(r.store.KeyList(), r.keepOwned, nil)
	case msg.RingAbort:
		if r.pendingRing == nil || m.Ver != r.pendingVer {
			return
		}
		r.clearPending()
		r.stats.RingAborts++
		r.cl.tracef("m%d ring abort v%d", r.cfg.id, m.Ver)
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
		if len(cur) == 0 || cur[0] != r.cfg.id {
			continue
		}
		if ownersEqual(cur, r.pendingRing.Owners(key, r.dead, r.cfg.replicas)) {
			continue
		}
		count++
		r.stats.Xfers++
		r.enqueue(&writeTask{key: key, sync: true, xfer: true, xferVer: r.pendingVer})
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
	r.cl.tracef("m%d ring xfer done v%d", r.cfg.id, r.pendingVer)
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
			r.cl.tracef("m%d cordoned", r.cfg.id)
		}
	case msg.DrainUncordon:
		r.cordoned = false
	case msg.DrainUpgrade:
		if r.InRing() || r.upgradeTo != 0 || r.confVer >= m.ConfigVersion {
			return
		}
		r.upgradeTo = m.ConfigVersion
		r.stats.Upgrades++
		r.cl.tracef("m%d upgrading to conf v%d", r.cfg.id, r.upgradeTo)
		r.eng.Schedule(r.cfg.upgradeDelay, (*upgradeDone)(r))
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
	r.cl.tracef("m%d upgraded to conf v%d", r.cfg.id, r.confVer)
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
	return memberOf(r.owners(key), r.cfg.id)
}

// purgeKeys deletes the listed keys from the local store, skipping
// those keep() wants, one at a time in sorted order — chained through
// the store's completion callbacks so the sweep cannot overrun the
// store queue bound. done (optional) fires when the sweep ends.
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
		r.store.Serve(kvs.Request{Op: kvs.OpDelete, Key: key}, func([]byte) {
			r.purgeKeys(rest, keep, done)
		})
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
	r.cl.net.Send(r.cfg.id, r.cfg.head, r.epoch, &msg.Heartbeat{Seq: r.hbSeq})
	r.eng.Schedule(r.cfg.hbEvery, e)
}

// sweep is the head's staleness sweep: a machine whose heartbeat is older
// than failAfter is declared dead and the view broadcast.
type sweep Router

func (e *sweep) Fire() {
	r := (*Router)(e)
	if r.halted {
		return
	}
	now := r.eng.Now()
	var stale []msg.DeviceID
	for _, id := range r.cl.MachineIDs() {
		if id == r.cfg.id || r.dead[id] {
			continue
		}
		last, beaten := r.lastBeat[id]
		if beaten && now.Sub(last) > r.cfg.failAfter {
			stale = append(stale, id)
		}
	}
	if len(stale) > 0 {
		r.noteDead("heartbeat", stale...)
	}
	r.eng.Schedule(r.cfg.failAfter/2, e)
}

// --- epoch leases (Config.Leases) ---
//
// The split-brain defense. A machine serves as primary (or acts as the
// reconcile actor) only while holding a lease countersigned by a quorum
// — a majority of the full ring membership, counting itself — within
// the last leaseDur of virtual time. Two disjoint majorities cannot
// exist, so two machines cannot hold live leases under contradictory
// membership views: the side of a partition that cannot assemble a
// quorum loses its lease within leaseDur and refuses every client op
// with StatusFenced. Renewal runs every leaseRenew; since grantors stop
// countersigning the moment their view declares the holder dead (and
// dead sets never shrink), a deposed primary's authority dies no later
// than leaseDur after its last quorum.

// leaseQuorum is a majority of the full ring membership. The membership
// (not the live view) is the electorate: a machine that declares
// everyone else dead must still find itself short of quorum.
func (r *Router) leaseQuorum() int { return len(r.ring.Machines())/2 + 1 }

// leaseValid reports whether this machine currently holds a
// quorum-countersigned lease. With leases disabled it is always true —
// the gate compiles away and every earlier experiment is untouched.
func (r *Router) leaseValid() bool {
	if !r.cfg.leases {
		return true
	}
	return r.InRing() && r.eng.Now() < r.leaseUntil
}

// LeaseValid is the exported lease probe; internal/reconcile fences the
// actor role on it and E21's split-brain audit samples it.
func (r *Router) LeaseValid() bool { return r.leaseValid() }

// viewSnap is one entry of the takeover-fence history: the membership
// view (ring + dead set) that was in effect strictly before `until`.
type viewSnap struct {
	until sim.Time
	ring  *Ring
	dead  map[msg.DeviceID]bool
}

// keyFenced reports whether key sits behind a still-live takeover
// fence: the view in effect leaseDur+failAfter ago named a different
// primary, and that primary may still hold a lease granted under it
// (one gossip round for its last grantor to learn of the death, ≤
// failAfter, plus the lease itself). The check consults the view
// history rather than a per-key map so that keys promoted WITHOUT a
// local replica are fenced too. Dead sets only grow, so a machine that
// was primary for a key at the window's start stays primary through
// now — checking the single view at the cutoff covers the whole window.
func (r *Router) keyFenced(key string) bool {
	cutoff := r.eng.Now().Add(-(r.cfg.leaseDur + r.cfg.failAfter))
	// Views replaced at or before the cutoff can never fence again (the
	// cutoff only advances); drop them.
	for len(r.views) > 0 && r.views[0].until <= cutoff {
		r.views = r.views[1:]
	}
	if len(r.views) == 0 {
		return false
	}
	v := r.views[0] // the view in effect at the cutoff instant
	was := v.ring.Owners(key, v.dead, r.cfg.replicas)
	return len(was) > 0 && was[0] != r.cfg.id
}

// KeyFenced is the exported takeover-fence probe (E21 split-brain audit).
func (r *Router) KeyFenced(key string) bool {
	if !r.cfg.leases {
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
	return len(own) > 0 && own[0] == r.cfg.id
}

// Suspects returns the directionally-suspected peers (sorted; test and
// diagnostic use).
func (r *Router) Suspects() []msg.DeviceID {
	out := make([]msg.DeviceID, 0, len(r.suspects))
	for id := range r.suspects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	r.eng.Schedule(r.cfg.leaseRenew, e)
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
	r.leaseRound = map[msg.DeviceID]bool{r.cfg.id: true}
	until := r.eng.Now().Add(r.cfg.leaseDur)
	if len(r.leaseRound) >= r.leaseQuorum() {
		// Single-member ring: the self-grant is the quorum.
		r.extendLease(until)
		return
	}
	renew := &msg.LeaseRenew{Seq: r.leaseSeq, Until: uint64(until)}
	for _, id := range r.ring.Machines() {
		if id == r.cfg.id || r.dead[id] {
			continue
		}
		r.cl.net.Send(r.cfg.id, id, r.epoch, renew)
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
	r.cl.net.Send(r.cfg.id, src, r.epoch, &msg.LeaseGrant{Seq: m.Seq, Until: m.Until})
}

func (r *Router) onLeaseGrant(src msg.DeviceID, m *msg.LeaseGrant) {
	if m.Seq != r.leaseSeq || r.leaseRound == nil {
		return // a stale round's signature proves nothing about now
	}
	r.leaseRound[src] = true
	if len(r.leaseRound) >= r.leaseQuorum() {
		r.extendLease(sim.Time(m.Until))
	}
}

// silence is the decentralized inbound-silence failure detector.
// The lease renewal chatter guarantees every pair of ring members
// periodic traffic, so "I have heard nothing from p for failAfter" is
// meaningful evidence — and unlike a transport-level send failure it
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
		for _, id := range r.ring.Machines() {
			if id == r.cfg.id || r.dead[id] {
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
			patience := r.cfg.failAfter
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
	r.eng.Schedule(r.cfg.failAfter/2, e)
}
