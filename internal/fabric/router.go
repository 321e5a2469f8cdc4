package fabric

import (
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

// Router is the fabric brain on each machine's smart NIC, composed of
// four components around one view: the client path (client.go),
// primary/backup replication with fenced failover (replicate.go), the
// staged ring transition (transition.go) and, with Config.Leases, the
// epoch lease (lease.go). The router itself is the hub: it dispatches
// frames to them and runs membership (members.go) — reactive+gossip, or
// heartbeat-to-head when a head node is configured.
type Router struct {
	v      view
	client client
	repl   replicator
	tr     transition
	lease  *lease // nil with leases off

	dedup msg.DedupWindow
	in    inbox

	hbSeq    uint64
	lastBeat map[msg.DeviceID]sim.Time
}

// ControlAgent is the fleet-reconciliation policy hook: the router
// dispatches management-plane frames (spec gossip, condition reports)
// to the attached agent and stays pure mechanism. internal/reconcile
// provides the implementation; a nil agent drops the frames.
type ControlAgent interface {
	OnControl(src msg.DeviceID, m msg.Message)
}

// newRouter composes a router around v, filled but for the dead set.
func newRouter(v view, leases bool) *Router {
	r := &Router{v: v, lastBeat: make(map[msg.DeviceID]sim.Time)}
	r.v.dead = make(map[msg.DeviceID]bool)
	if leases {
		r.lease = &lease{v: &r.v, round: make(map[msg.DeviceID]bool),
			lastHeard: make(map[msg.DeviceID]sim.Time), suspects: make(map[msg.DeviceID]bool)}
	}
	r.client = client{v: &r.v, repl: &r.repl, lease: r.lease, pending: make(map[uint64]*pendingReq)}
	r.repl = replicator{v: &r.v, tr: &r.tr, lease: r.lease, gates: make(map[string]*keyGate),
		inflight: make(map[uint64]*writeTask), wm: make(map[string]watermark)}
	r.tr = transition{v: &r.v, repl: &r.repl, confVer: 1}
	return r
}

// Stats returns a copy of the counters.
func (r *Router) Stats() RouterStats { return r.v.stats }

// AppID implements smartnic.App.
func (r *Router) AppID() msg.AppID { return RouterApp }

// Boot implements smartnic.App. With a head node configured, the head
// arms its failure-sweep timer and everyone else starts heartbeating.
// With leases enabled, every machine also starts its renewal loop and
// takes a bootstrap lease (membership is known-good at boot, so the
// fleet does not start life fenced); the decentralized flavor arms the
// inbound-silence detector too (under a head, heartbeat staleness at
// the head stays the sole death authority).
func (r *Router) Boot(*smartnic.Runtime) {
	v := &r.v
	if r.lease != nil {
		if v.inRing() {
			r.lease.until = v.eng.Now().Add(DefaultLeaseDuration)
		}
		v.eng.Schedule(DefaultLeaseRenewEvery, r.lease)
		if v.head == 0 {
			v.eng.Schedule(DefaultFailTimeout/2, (*silence)(r))
		}
	}
	if v.head == 0 {
		return
	}
	if v.isHead() {
		v.eng.Schedule(DefaultFailTimeout/2, (*sweep)(r))
	} else {
		v.eng.Schedule(DefaultHeartbeatEvery, (*heartbeat)(r))
	}
}

// PeerFailed implements smartnic.App. Intra-machine device failure is
// the machine's own problem; fabric membership is judged at machine
// granularity by the network and the head.
func (r *Router) PeerFailed(msg.DeviceID) {}

// --- fleet-reconciliation surface (used by internal/reconcile) ---

// AttachControl installs the machine's reconcile agent.
func (r *Router) AttachControl(a ControlAgent) { r.tr.ctrl = a }

// ID returns the router's machine address.
func (r *Router) ID() msg.DeviceID { return r.v.id }

// Head returns the configured head machine (0 when decentralized).
func (r *Router) Head() msg.DeviceID { return r.v.head }

// Halted reports whether the machine has crash-stopped.
func (r *Router) Halted() bool { return r.v.halted }

// RingVer returns the version of the ring this router serves.
func (r *Router) RingVer() uint32 { return r.v.ringVer }

// PendingVer returns the staged ring version (0 when none is staged).
func (r *Router) PendingVer() uint32 { return r.tr.ver }

// TransferDone reports whether the staged ring's transfer has drained.
// The router pushes one transfer-done report itself (xferCheck), but
// that frame can be lost under an injected fault plane; agents fold
// this level-triggered signal into their periodic condition reports so
// a transition can never wedge on one dropped frame.
func (r *Router) TransferDone() bool { return r.v.staged != nil && r.tr.left == 0 }

// RingMembers returns the current ring membership in ID order.
func (r *Router) RingMembers() []msg.DeviceID { return r.v.ring.Machines() }

// InRing reports whether this machine is a member of its current ring.
func (r *Router) InRing() bool { return r.v.inRing() }

// Cordoned reports whether the machine is cordoned off client ingress.
func (r *Router) Cordoned() bool { return r.tr.cordoned }

// Upgrading reports whether a config flash is in progress.
func (r *Router) Upgrading() bool { return r.tr.upgradeTo != 0 }

// ConfigVersion returns the machine's running config/firmware version.
func (r *Router) ConfigVersion() uint32 { return r.tr.confVer }

// DeadIDs returns the machines this router's view has declared dead.
func (r *Router) DeadIDs() []msg.DeviceID { return append([]msg.DeviceID{}, r.v.deadSorted...) }

// Conditions assembles this machine's status-condition report
// (machine-controller style). Each call stamps a fresh sequence number.
func (r *Router) Conditions() *msg.CondReport { return r.tr.conditions() }

// SendControl puts a management-plane message on the fabric (or hands
// it straight to the local agent when addressed to this machine).
func (r *Router) SendControl(dst msg.DeviceID, m msg.Message) { r.tr.sendControl(dst, m) }

// ProposeRing broadcasts a RingConfig phase to every machine the view
// holds live (spares included) and applies it locally — the coordinator
// is a participant like any other. The broadcast happens inside one
// event, so a crash can never split it.
func (r *Router) ProposeRing(ver uint32, phase uint8, members []msg.DeviceID) {
	v := &r.v
	if v.halted {
		return
	}
	m := &msg.RingConfig{Ver: ver, Phase: phase, Members: members}
	for _, id := range v.ids {
		if id != v.id && !v.dead[id] {
			v.send(id, m)
		}
	}
	r.tr.apply(v.id, m)
}

// LeaseValid reports whether this machine currently holds a
// quorum-countersigned lease. With leases disabled it is always true —
// the gate compiles away and every earlier experiment is untouched.
// internal/reconcile fences the actor role on it and E21's split-brain
// audit samples it.
func (r *Router) LeaseValid() bool { return r.lease.valid() }

// KeyFenced is the exported takeover-fence probe (E21 split-brain audit).
func (r *Router) KeyFenced(key string) bool { return r.lease.fences(key) }

// PrimaryFor reports whether this router's own membership view routes
// key to itself as primary. Together with LeaseValid and KeyFenced it
// is the "would I serve this key right now" probe: E21 counts, at every
// sample instant, how many machines answer yes for the same key — more
// than one is a split brain.
func (r *Router) PrimaryFor(key string) bool {
	own := r.v.owners(key)
	return len(own) > 0 && own[0] == r.v.id
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
//
// ServeRequest answers rep at most once and keeps no reference to it once
// that answer begins (smartnic.RequestApp): whoever holds it on the way
// (a forwarded op's pendingReq, a write task, the store) answers it once
// and lets go. A halted router answers nothing.
func (r *Router) ServeRequest(tn uint16, stamped bool, payload []byte, rep smartnic.Replier) {
	if r.v.halted {
		return
	}
	if len(payload) > 0 && payload[0] == frameMagic {
		r.onFrame(payload[1:]) // peer frames carry no tenant
		return
	}
	if !stamped {
		r.client.onClient(payload, nil, rep)
		return
	}
	req, err := kvs.DecodeRequest(payload)
	if err != nil {
		kvs.Answer(rep, kvs.Response{Status: kvs.StatusError})
		return
	}
	req.Tenant = uint32(tn)
	r.client.onClient(kvs.EncodeRequest(req), &req, rep)
}

// inbox is the one body per steady-state kind that onFrame decodes into.
// A body is refilled by the next frame of its kind, which no handler can
// see arrive: frames land only through NIC rx events. So nothing may
// keep a body past its handler, and none does: a handler copies the
// fields it keeps (served, applied, noteDead's ids, the client's fwd),
// and a byte field is a window onto the frame, not onto the body. Policy
// traffic (handed to the ControlAgent, which may keep it) and the rare
// control and membership kinds decode fresh.
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
	r.lease.heard(env.Src)
	if r.dedup.Duplicate(env.Src, env.Seq) {
		return
	}
	if r.v.dead[env.Src] {
		// Fencing: traffic from machines this view declared dead is
		// ignored, so a straggler from an old primary can never regress a
		// promoted replica (R2). One exception: a renewal from a machine
		// we hold dead gets a typed LeaseRevoke (carrying our dead set)
		// instead of silence — the fenced machine provably observes why
		// it lost its lease.
		if ren, ok := env.Msg.(*msg.LeaseRenew); ok && r.lease != nil {
			r.lease.revoke(env.Src, ren)
		}
		return
	}
	switch m := env.Msg.(type) {
	case *msg.FabricReq:
		r.client.onFabricReq(m)
	case *msg.FabricResp:
		r.noteDead("gossip", m.Dead...)
		r.client.onFabricResp(m)
	case *msg.Replicate:
		r.repl.onReplicate(env.Src, m)
	case *msg.ReplicateAck:
		r.noteDead("gossip", m.Dead...)
		r.repl.onReplicateAck(env.Src, m)
	case *msg.RingUpdate:
		r.noteDead("ring.update", m.Dead...)
	case *msg.Heartbeat:
		if r.v.isHead() {
			r.lastBeat[env.Src] = r.v.eng.Now()
		}
	case *msg.RingConfig:
		r.tr.apply(env.Src, m)
	case *msg.Drain:
		r.tr.onDrain(m)
	case *msg.SpecGossip, *msg.CondReport:
		// Policy traffic: the router is mechanism only.
		if r.tr.ctrl != nil {
			r.tr.ctrl.OnControl(env.Src, env.Msg)
		}
	case *msg.LeaseRenew:
		r.lease.onRenew(env.Src, m)
	case *msg.LeaseGrant:
		r.lease.onGrant(env.Src, m)
	case *msg.LeaseRevoke:
		// A member refused to countersign: its view holds us dead. Merge
		// its dead set (it cannot contain us — noteDead skips self) so we
		// converge toward the majority view instead of renewing blind.
		r.noteDead("revoke", m.Dead...)
	}
}
