// Package bus implements the system-management bus of "The Last CPU" —
// the specialized control plane that replaces the CPU-resident OS kernel
// (§2.2).
//
// The bus is a privileged message switch. It carries no data and holds no
// policy: it forwards unicast messages, fans out broadcasts (discovery,
// failure notices), records device liveness, and performs the one
// privileged mechanism of the design — programming device IOMMUs — and
// only when instructed by the resource's controller:
//
//   - When it forwards a successful AllocResp from the memory controller
//     to the requesting device, it programs that device's IOMMU with the
//     granted mappings (§3 step 6).
//   - When a device asks to share one of its app's regions with another
//     device (GrantReq), the bus first asks the memory controller for
//     authorization (AuthReq/AuthResp) and only then programs the target
//     IOMMU (§3: "must be first authorized by the memory controller").
//
// Devices never receive references to each other's IOMMUs; the bus holds
// the only handles, which is the paper's security argument made literal.
package bus

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"nocpu/internal/faultinject"
	"nocpu/internal/iommu"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/tenant"
	"nocpu/internal/trace"
)

// Config is the bus timing and watchdog model. Per §2.3 the management
// bus "need not" be high-throughput; defaults are deliberately modest and
// experiment E10 sweeps them.
type Config struct {
	// HopLatency is the one-way latency of a message between a device and
	// the bus (and bus to device).
	HopLatency sim.Duration
	// BytesPerNs is bus bandwidth; control messages are small so this
	// rarely matters (0.5 = 500 MB/s).
	BytesPerNs float64
	// ProcPerMsg is the bus's processing cost per message (it must
	// "process messages, so it can update the management tables").
	ProcPerMsg sim.Duration
	// MapPerPage is the cost of programming one IOMMU page-table entry.
	MapPerPage sim.Duration
	// WatchdogTimeout marks a device failed when no heartbeat arrives
	// within it. 0 disables the watchdog.
	WatchdogTimeout sim.Duration
	// CreditWindow enables credit-based flow control when > 0: each
	// attached port may have at most CreditWindow envelopes absorbed by
	// the bus but not yet re-credited; further Sends stall in a bounded
	// port-local FIFO until the bus returns credit (CreditUpdate). 0
	// disables flow control — infinite credits, the pre-overload
	// behavior, byte-identical traces.
	CreditWindow int
	// IngressBound bounds the bus's processing backlog when > 0: an
	// arriving envelope that would push the backlog past the bound is
	// refused with a NackOverload back to its sender instead of queueing
	// without limit. 0 means unbounded.
	IngressBound int
}

// DefaultConfig models a microcontroller-class bus: 1 µs hops, 500 MB/s,
// 500 ns per message of table-update work.
var DefaultConfig = Config{
	HopLatency:      1 * sim.Microsecond,
	BytesPerNs:      0.5,
	ProcPerMsg:      500 * sim.Nanosecond,
	MapPerPage:      150 * sim.Nanosecond,
	WatchdogTimeout: 0,
}

// Stats counts bus activity for the experiments.
type Stats struct {
	Messages   uint64
	Deliveries uint64
	Broadcasts uint64
	// Dropped counts messages lost with no one to tell: unknown senders
	// and deliveries that died in flight. Traffic refused because its
	// sender is marked failed (or is a stale incarnation) is counted in
	// DeadSenderDropped instead, so the experiments can tell wire loss
	// from lifecycle fencing.
	Dropped uint64
	// DeadSenderDropped counts envelopes fenced because the bus considers
	// the sender dead or because they were stamped by a previous
	// incarnation of a since-revived device.
	DeadSenderDropped uint64
	// Nacks counts refusals reported back to the sender (previously these
	// were silent drops; Dropped now covers only cases with no one to
	// tell — unknown or dead senders, or in-flight loss).
	Nacks uint64
	// DupSuppressed counts envelopes discarded by the link-layer
	// duplicate filter (only a faulty fabric produces these).
	DupSuppressed uint64
	PagesMapped   uint64
	PagesUnmapped uint64
	GrantsOK      uint64
	GrantsDenied  uint64
	DevicesFailed uint64
	Resets        uint64
	// Rejoins counts devices that re-enrolled (Hello or ResetDone) after
	// having been marked failed.
	Rejoins uint64
	// CreditUpdates counts window replenishments the bus issued.
	CreditUpdates uint64
	// CreditStalls counts sends that waited in a port's stall queue for
	// credit instead of going straight to the wire.
	CreditStalls uint64
	// StallDropped counts sends discarded because a port's bounded stall
	// queue overflowed (the sender's timeout recovers them).
	StallDropped uint64
	// IngressShed counts envelopes refused at the ingress bound with a
	// NackOverload.
	IngressShed uint64
	// StaleCreditDropped counts CreditUpdates a port refused because they
	// were fenced to a previous incarnation (a replayed replenishment
	// must not inflate the new life's window).
	StaleCreditDropped uint64
	// TenantDenied counts cross-tenant accesses the bus refused (grants,
	// mappings, scoped discovery, stale replays, budget exhaustion) —
	// each with a typed, attributed denial in the tenancy registry.
	TenantDenied uint64
}

// Handler receives messages delivered to a device.
type Handler func(env msg.Envelope)

type attachment struct {
	id      msg.DeviceID
	name    string
	role    msg.Role
	handler Handler
	mmu     *iommu.IOMMU
	alive   bool
	lastHB  sim.Time
	// inc is the highest incarnation stamp seen from this device; lower
	// stamps are fenced as messages from a dead previous life.
	inc uint32
	// failed/failedAt record that (and when) failDevice last marked the
	// device dead, for rejoin accounting and outage measurement.
	failed   bool
	failedAt sim.Time
	// creditsUsed counts envelopes absorbed from this device since the
	// last CreditUpdate; at half a window the bus returns the credit.
	creditsUsed int
	// mmuEngine models the device-side IOMMU command interface: table
	// programming serializes per device but runs in parallel across
	// devices (the bus only dispatches commands).
	mmuEngine *sim.Server
}

// ownerKey identifies an app region for grant auditing.
type ownerKey struct {
	app msg.AppID
	va  uint64
}

// grantRec is one recorded grant (possibly a sub-range of an owned
// region).
type grantRec struct {
	target msg.DeviceID
	pages  int // 4 KiB units
	huge   bool
}

// Bus is the system-management bus.
type Bus struct {
	eng  *sim.Engine
	cfg  Config
	tr   *trace.Tracer
	proc *sim.Server
	// egress serializes outgoing deliveries on the shared medium: a
	// broadcast to N devices occupies the bus for N transmission times.
	egress  *sim.Server
	devices map[msg.DeviceID]*attachment
	// order is the attachments in id order, kept by Attach: broadcasts,
	// failure notices and the watchdog scan fan out in it, never in map order.
	order   []*attachment
	memctrl msg.DeviceID

	// owners records, from intercepted AllocResps, which device owns each
	// allocated app region (app+base VA -> owning device and page count).
	owners map[ownerKey]ownerInfo
	// grants records which targets were granted each (possibly sub-)
	// region, for the owner's free to unmap.
	grants map[ownerKey][]grantRec
	// pendingGrants correlates AuthReq nonces with the originating
	// GrantReq.
	pendingGrants map[uint32]pendingGrant
	nextNonce     uint32

	// plane is the optional fault injector; nil means pass-through.
	plane *faultinject.Plane
	// dedup filters fabric-injected duplicate envelopes by seq tag.
	dedup msg.DedupWindow
	// busSeq tags bus-originated messages.
	busSeq uint32

	// ingressG tracks the processing backlog against IngressBound for
	// the overload audit's Q1 invariant.
	ingressG *metrics.Gauge

	// tenancy, when set, is the multi-tenant isolation registry: the bus
	// scopes broadcasts to isolation domains, refuses cross-tenant
	// grants and mappings, applies per-tenant credit windows, and
	// records every refusal as a typed, attributed denial. nil (the
	// default) disables all of it — byte-identical legacy behavior.
	tenancy *tenant.Registry

	// hops and acks recycle the bus's own event records: only the bus
	// ever holds one, so it alone can tell when one is dead (DESIGN.md
	// "Pool only what the owner alone sees").
	hops sim.Free[hop]
	acks sim.Free[grantAck]
	// gkeys is unmapEverywhere's scratch.
	gkeys []ownerKey

	stats Stats
}

type ownerInfo struct {
	dev   msg.DeviceID
	pages int // 4 KiB units (huge regions store runs*512)
	huge  bool
	// frameSum fingerprints the backing frames so a replayed AllocResp
	// (identical frames: idempotent success) is distinguishable from a
	// conflicting double-alloc (different frames: error).
	frameSum uint64
}

// frameFingerprint hashes a frame list (FNV-1a over the values).
func frameFingerprint(frames []uint64, huge bool) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, f := range frames {
		mix(f)
	}
	if huge {
		mix(1)
	}
	return h
}

type pendingGrant struct {
	req msg.GrantReq
	src msg.DeviceID
}

// New creates a bus on the engine. tr may be nil.
func New(eng *sim.Engine, cfg Config, tr *trace.Tracer) *Bus {
	if cfg.BytesPerNs <= 0 {
		cfg.BytesPerNs = DefaultConfig.BytesPerNs
	}
	b := &Bus{
		eng:           eng,
		cfg:           cfg,
		tr:            tr,
		proc:          sim.NewServer(eng),
		egress:        sim.NewServer(eng),
		devices:       make(map[msg.DeviceID]*attachment),
		owners:        make(map[ownerKey]ownerInfo),
		grants:        make(map[ownerKey][]grantRec),
		pendingGrants: make(map[uint32]pendingGrant),
	}
	b.ingressG = metrics.NewGauge(cfg.IngressBound)
	if cfg.WatchdogTimeout > 0 {
		b.eng.Schedule(b.cfg.WatchdogTimeout/2, (*watchdog)(b))
	}
	return b
}

// Stats returns a copy of the counters.
func (b *Bus) Stats() Stats { return b.stats }

// SetFaultPlane installs (or, with nil, removes) the fault injector.
// Every message crossing the bus is judged exactly once: on the
// device→bus hop for device traffic, on the bus→device hop for
// bus-originated traffic.
func (b *Bus) SetFaultPlane(p *faultinject.Plane) { b.plane = p }

// SetTenancy installs (or, with nil, removes) the multi-tenant
// isolation registry. Call before devices attach so per-tenant credit
// windows take effect from the first send.
func (b *Bus) SetTenancy(reg *tenant.Registry) { b.tenancy = reg }

// windowFor is the effective credit window of one device: the tenant's
// declared budget when it has one, the global Config.CreditWindow
// otherwise. A tenant budget can turn flow control on for its devices
// even when the global window is 0.
func (b *Bus) windowFor(id msg.DeviceID) int {
	w := b.cfg.CreditWindow
	if b.tenancy != nil {
		if t := b.tenancy.DeviceTenant(id); t != 0 {
			if bw := b.tenancy.Budget(t).CreditWindow; bw != 0 {
				w = int(bw)
			}
		}
	}
	return w
}

// tenantOf is the isolation domain of a device (0 when tenancy is off
// or the device is unbound).
func (b *Bus) tenantOf(id msg.DeviceID) tenant.ID {
	if b.tenancy == nil {
		return 0
	}
	return b.tenancy.DeviceTenant(id)
}

// recordDenial books one refused cross-tenant access in the registry,
// attributed to the offending tenant (no-op with tenancy off).
func (b *Bus) recordDenial(attacker, victim tenant.ID, class tenant.Class, detail string) {
	if b.tenancy == nil {
		return
	}
	b.stats.TenantDenied++
	b.tenancy.Record(b.eng.Now(), attacker, victim, class, detail)
}

// reportDenial records a refusal and additionally tells the offender
// with a typed DenialReport wire message — the S1 invariant's "never
// silently dropped" clause: the attacker provably observed a refusal.
func (b *Bus) reportDenial(offender *attachment, victim tenant.ID, class tenant.Class, of msg.Kind, detail string) {
	at := b.tenantOf(offender.id)
	b.recordDenial(at, victim, class, detail)
	b.sendFromBus(offender, &msg.DenialReport{
		Tenant: uint16(at), Victim: uint16(victim),
		Class: uint8(class), Of: uint16(of), Detail: detail,
	})
}

// Port is a device's attachment point to the bus.
type Port struct {
	bus     *Bus
	id      msg.DeviceID
	nextSeq uint32
	inc     uint32
	// credits is the remaining send allowance when flow control is on
	// (Config.CreditWindow > 0); the bus returns spent credit with
	// CreditUpdate messages.
	credits int
	// stalled holds sends awaiting credit, FIFO, bounded at 4× the
	// window; overflow drops deterministically (timeouts recover).
	stalled []msg.Envelope
	stallG  *metrics.Gauge
}

// Incarnation returns the port's current incarnation (0 until the first
// crash recovery).
func (p *Port) Incarnation() uint32 { return p.inc }

// NewIncarnation begins the device's next life after a crash: outgoing
// envelopes are stamped with the bumped incarnation and the link-layer
// sequence counter restarts (the bus forgets the old dedup window when
// it adopts the new incarnation). Pure port state — no bus traffic.
func (p *Port) NewIncarnation() uint32 {
	p.inc++
	p.nextSeq = 0
	// The old life's stalled sends died with it; the new life starts
	// with a full window (the bus resets its side on rejoin).
	p.stalled = nil
	p.stallG.Set(0)
	p.credits = p.window()
	return p.inc
}

// window is the port's effective credit window (per-tenant budget when
// tenancy declares one, the global config otherwise).
func (p *Port) window() int { return p.bus.windowFor(p.id) }

// Attach connects a device to the bus. The IOMMU handle is how the bus —
// and only the bus — programs the device's translations. A device with
// RoleMemoryController becomes the authorizer for memory operations; at
// most one may attach.
func (b *Bus) Attach(id msg.DeviceID, name string, role msg.Role, mmu *iommu.IOMMU, h Handler) (*Port, error) {
	if id == 0 || id == msg.Broadcast || id == msg.BusID {
		return nil, fmt.Errorf("bus: reserved device id %v", id)
	}
	if _, dup := b.devices[id]; dup {
		return nil, fmt.Errorf("bus: device id %v already attached", id)
	}
	if role == msg.RoleMemoryController {
		if b.memctrl != 0 {
			return nil, fmt.Errorf("bus: second memory controller %v (have %v)", id, b.memctrl)
		}
		b.memctrl = id
	}
	a := &attachment{id: id, name: name, role: role, handler: h, mmu: mmu, mmuEngine: sim.NewServer(b.eng)}
	b.devices[id] = a
	at := sort.Search(len(b.order), func(i int) bool { return b.order[i].id > id })
	b.order = slices.Insert(b.order, at, a)
	p := &Port{bus: b, id: id, credits: b.windowFor(id)}
	p.stallG = metrics.NewGauge(p.stallBound())
	return p, nil
}

// nameOf returns a device's name for tracing.
func (b *Bus) nameOf(id msg.DeviceID) string {
	switch id {
	case msg.Broadcast:
		return "broadcast"
	case msg.BusID:
		return "bus"
	}
	if a, ok := b.devices[id]; ok {
		return a.name
	}
	return id.String()
}

// Send submits a message from the port's device and returns the
// envelope's link-layer seq tag, which a NACK for this message will echo
// (assigned here, so a send that waits for credit keeps it). Transport is
// one hop to the bus, FIFO bus processing, then (for unicast/broadcast)
// one hop to each destination; encoded size determines serialization time.
func (p *Port) Send(dst msg.DeviceID, m msg.Message) uint32 {
	b := p.bus
	p.nextSeq++
	env := msg.Envelope{Src: p.id, Dst: dst, Seq: p.nextSeq, Inc: p.inc, Msg: m}
	if p.window() > 0 {
		if p.credits == 0 {
			// Out of credits: stall instead of flooding the wire. The
			// stall queue is itself bounded; past the bound the send is
			// dropped here, deterministically, and the sender's timeout
			// recovers — exactly as for a wire loss.
			if len(p.stalled) >= p.stallBound() {
				b.stats.StallDropped++
				b.recordDenial(b.tenantOf(p.id), 0, tenant.DenyBudget,
					fmt.Sprintf("%s stall queue overflow, %v dropped", b.nameOf(p.id), m.Kind()))
				return env.Seq
			}
			b.stats.CreditStalls++
			p.stalled = append(p.stalled, env)
			p.stallG.Set(len(p.stalled))
			return env.Seq
		}
		p.credits--
	}
	p.transmit(env)
	return env.Seq
}

// transmit puts a stamped envelope on the device→bus wire, which is where
// the fault plane judges device traffic.
func (p *Port) transmit(env msg.Envelope) {
	b := p.bus
	b.ingress(env, b.plane.Filter(faultinject.LayerBus, b.eng.Now(), env.Src, env.Dst, env.Msg.Kind()))
}

// hopStage names where an envelope in flight is waiting, and so what its
// record does when it fires.
type hopStage uint8

const (
	hopWire        hopStage = iota // on the device→bus wire; meets the ingress bound
	hopQueued                      // in the processing queue; runs process
	hopProgramming                 // behind the IOMMU programming an AllocResp must not overtake; runs deliver
	hopEgress                      // serializing on the shared egress medium; starts propagation
	hopArriving                    // on the bus→device wire; runs arrive
)

// hop is one envelope in flight, and the event of every stage it crosses:
// the engine and the three servers queue the record itself. A broadcast
// takes a record per destination and a bus-originated message one of its
// own. A duplicate the fault plane injects is a second record: both copies
// are in flight at once, each at its own stage. Only the bus holds a hop
// (a handler gets the envelope by value), so each goes back on the bus's
// free list where its last stage ends: shed at the ingress bound, not sent
// on by process, or after arrive. A message, broadcast or not, then costs
// no allocation between Port.Send and the destination's handler.
type hop struct {
	b   *Bus
	env msg.Envelope
	// dst is set once process has picked the destination.
	dst *attachment
	// last is the bus→device propagation time: HopLatency, plus the
	// fault plane's delay on a bus-originated message.
	last sim.Duration
	// dup asks for a second copy on the bus→device wire (bus-originated
	// traffic is judged on that hop).
	dup   bool
	stage hopStage
}

// Fire runs the stage the hop was queued for.
func (h *hop) Fire() {
	b := h.b
	switch h.stage {
	case hopWire:
		if bound := b.cfg.IngressBound; bound > 0 && b.proc.Pending() >= bound {
			b.shedIngress(h.env)
			b.hops.Put(h)
			return
		}
		h.stage = hopQueued
		b.proc.Submit(b.cfg.ProcPerMsg, h)
		b.ingressG.Set(b.proc.Pending())
	case hopQueued:
		b.process(h)
		if h.stage == hopQueued {
			// Not sent on: dropped, consumed by the bus, refused, or
			// fanned out in records of their own.
			b.hops.Put(h)
		}
	case hopProgramming:
		b.deliver(h, h.dst)
	case hopEgress:
		// Transmission occupied the shared medium; propagation overlaps.
		// The stage is final before either copy is queued, and the first
		// copy is queued first.
		h.stage = hopArriving
		b.eng.Schedule(h.last, h)
		if h.dup {
			twin := b.hops.Get()
			*twin = *h // same seq: the receiver's dedup window eats it
			b.eng.Schedule(h.last, twin)
		}
	case hopArriving:
		h.arrive()
		b.hops.Put(h)
	}
}

// newHop takes a record for env off the free list.
func (b *Bus) newHop(env msg.Envelope) *hop {
	h := b.hops.Get()
	h.b, h.env = b, env
	return h
}

// ingress is the one way into the bus: Port.transmit with the fault
// plane's verdict, Replay with none. The envelope crosses the device→bus
// wire (latency plus serialization, plus an injected delay) and then meets
// the ingress bound. A duplicate is an identical envelope right behind the
// first; the bus's dedup window eats it.
func (b *Bus) ingress(env msg.Envelope, d faultinject.Decision) {
	if d.Op == faultinject.Drop {
		return // lost on the wire; the sender's timeout recovers
	}
	wire := b.cfg.HopLatency + sim.Duration(float64(msg.EncodedSize(env.Msg))/b.cfg.BytesPerNs)
	if d.Op == faultinject.Delay || d.Op == faultinject.Reorder {
		wire += d.Delay
	}
	b.eng.Schedule(wire, b.newHop(env))
	if d.Op == faultinject.Dup {
		b.eng.Schedule(wire, b.newHop(env))
	}
}

// stallBound is the port stall queue's capacity: four windows' worth of
// backlog, enough to ride out a replenishment round trip at full rate.
func (p *Port) stallBound() int { return 4 * p.window() }

// AddCredits returns n spent credits to the port (the payload of a bus
// CreditUpdate), saturating at the configured window, then drains
// stalled sends in FIFO order — each drained send spends one of the
// fresh credits. forInc is the incarnation the bus fenced the credit
// to: a mismatch means the update was issued for (or replayed from) a
// different life of this port and is refused with a typed drop —
// trusting the sender identity alone would let a captured replenishment
// inflate the window after a crash recovery.
func (p *Port) AddCredits(n, forInc uint32) {
	w := p.window()
	if w <= 0 {
		return
	}
	if forInc != p.inc {
		b := p.bus
		b.stats.StaleCreditDropped++
		b.tr.Record(b.eng.Now(), b.nameOf(p.id), "bus", "credit.stale-dropped",
			fmt.Sprintf("for inc %d, port inc %d", forInc, p.inc))
		b.recordDenial(b.tenantOf(p.id), 0, tenant.DenyStaleCredit,
			fmt.Sprintf("%s replayed credit for incarnation %d, port at %d", b.nameOf(p.id), forInc, p.inc))
		return
	}
	p.credits += int(n)
	if p.credits > w {
		p.credits = w
	}
	for p.credits > 0 && len(p.stalled) > 0 {
		env := p.stalled[0]
		p.stalled[0] = msg.Envelope{}
		p.stalled = p.stalled[1:]
		p.credits--
		p.transmit(env)
	}
	if len(p.stalled) == 0 {
		p.stalled = nil
	}
	p.stallG.Set(len(p.stalled))
}

// Credits returns the port's current send allowance (testing).
func (p *Port) Credits() int { return p.credits }

// StallGauge exposes the stall-queue depth gauge for the overload audit.
func (p *Port) StallGauge() *metrics.Gauge { return p.stallG }

// shedIngress refuses an envelope at the bus's bounded ingress: the
// sender gets a typed overload NACK (and its flow-control credit back)
// rather than unbounded queueing.
func (b *Bus) shedIngress(env msg.Envelope) {
	b.stats.IngressShed++
	src, ok := b.devices[env.Src]
	if !ok || !src.alive {
		b.stats.Dropped++ // no one to tell
		return
	}
	b.replenish(src)
	b.nack(src, env, msg.NackOverload, "bus ingress queue full")
}

// replenish accounts one absorbed envelope against the sender's credit
// window and returns the spent credit once half a window accumulates.
// The update is fenced to the sender's current incarnation so a
// captured replenishment replayed after a crash recovery is refused by
// the port (ForInc 0 — the never-crashed common case — encodes to the
// legacy wire form).
func (b *Bus) replenish(src *attachment) {
	w := b.windowFor(src.id)
	if w <= 0 {
		return
	}
	src.creditsUsed++
	if src.creditsUsed >= (w+1)/2 {
		n := src.creditsUsed
		src.creditsUsed = 0
		b.stats.CreditUpdates++
		b.sendFromBus(src, &msg.CreditUpdate{Window: uint32(w), Credits: uint32(n), ForInc: src.inc})
	}
}

// IngressGauge exposes the processing-backlog gauge for the overload
// audit.
func (b *Bus) IngressGauge() *metrics.Gauge { return b.ingressG }

// process runs on the bus after the message has been received and the
// processing cost paid. It takes the hop the envelope arrived in: a
// unicast goes on to its destination in the same record, so a response
// the bus rewrites is rewritten in h.env.
func (b *Bus) process(h *hop) {
	env := h.env
	b.stats.Messages++
	if b.tr != nil { // summarize formats; with tracing off it must not run
		b.tr.Record(b.eng.Now(), b.nameOf(env.Src), b.nameOf(env.Dst), env.Msg.Kind().String(), summarize(env.Msg))
	}

	src, ok := b.devices[env.Src]
	if !ok {
		// No attachment to address a NACK to: silent drop.
		b.stats.Dropped++
		return
	}

	// Incarnation fencing. A device revived after a crash stamps its
	// envelopes with a bumped incarnation: adopt it on first sight (and
	// forget the dedup window — the new life's sequence counter restarts
	// at 1, which the old window would swallow as stale duplicates).
	// Anything still stamped with an older incarnation was sent by the
	// pre-crash life and may describe state that died with it: fence it.
	if env.Inc > src.inc {
		src.inc = env.Inc
		b.dedup.Forget(env.Src)
	} else if env.Inc < src.inc {
		b.stats.DeadSenderDropped++
		b.recordDenial(b.tenantOf(src.id), 0, tenant.DenyStaleReplay,
			fmt.Sprintf("%s replayed %v stamped by incarnation %d, current %d",
				src.name, env.Msg.Kind(), env.Inc, src.inc))
		return
	}

	// The envelope is absorbed (even if deduplicated below): its
	// flow-control credit flows back to the sender. Fabric-injected
	// duplicates can over-credit by one and wire losses under-credit —
	// the window saturation bounds the former, sender timeouts ride out
	// the latter; the overload experiments run without fault injection.
	// Crediting happens after incarnation adoption so the replenishment
	// is fenced to the life that actually sent the envelope.
	b.replenish(src)

	if b.dedup.Duplicate(env.Src, env.Seq) {
		b.stats.DupSuppressed++
		return
	}

	// Lifecycle messages addressed to the bus.
	if env.Dst == msg.BusID {
		b.handleBusMessage(src, env)
		return
	}

	// A dead device's messages are dropped (it should not be talking),
	// except Hello/ResetDone which revive it, handled above. No NACK: the
	// bus considers the sender unreachable.
	if !src.alive {
		b.stats.DeadSenderDropped++
		return
	}

	if env.Dst == msg.Broadcast {
		b.stats.Broadcasts++
		// Tenancy scopes broadcast fan-out to the sender's isolation
		// domain (plus untenanted infrastructure): a tenant cannot probe
		// another tenant's services by discovery. The scoped-away
		// audience is reported back once, typed, so the abuse is never a
		// silent narrowing.
		var scopedFrom tenant.ID
		for _, a := range b.order {
			if a.id == env.Src || !a.alive {
				continue
			}
			if b.tenancy != nil && !b.tenancy.SameDomain(env.Src, a.id) {
				if scopedFrom == 0 {
					scopedFrom = b.tenantOf(a.id)
				}
				continue
			}
			b.deliver(b.newHop(env), a)
		}
		if scopedFrom != 0 {
			if _, isDiscover := env.Msg.(*msg.DiscoverReq); isDiscover {
				b.reportDenial(src, scopedFrom, tenant.DenyDiscovery, env.Msg.Kind(),
					fmt.Sprintf("%s discovery scoped away from %v", src.name, scopedFrom))
			}
		}
		return
	}

	dst, ok := b.devices[env.Dst]
	if !ok {
		b.nack(src, env, msg.NackUnknownDst, "no such device")
		return
	}
	if !dst.alive {
		b.nack(src, env, msg.NackDeadDst, dst.name+" is failed")
		return
	}

	// Privileged interception: a successful AllocResp from the memory
	// controller causes the bus to program the requester's IOMMU before
	// the response is delivered (§3 step 6). When no memory controller is
	// registered (the centralized baseline), the bus is pure transport
	// and AllocResps pass through untouched.
	if ar, isAlloc := env.Msg.(*msg.AllocResp); isAlloc && b.memctrl != 0 {
		if env.Src != b.memctrl {
			// Only the registered controller may authorize mappings; a
			// forged AllocResp is refused.
			b.nack(src, env, msg.NackUnauthorized, "only the memory controller may send alloc responses")
			return
		}
		if ar.OK {
			if err := b.programMappings(dst, ar); err != nil {
				// Mapping refused or failed: convert to a failure response
				// so the requester learns the truth.
				h.env.Msg = &msg.AllocResp{App: ar.App, OK: false, Reason: err.Error(), VA: ar.VA}
				b.deliver(h, dst)
				return
			}
			// The response reaches the requester only after its IOMMU
			// tables are programmed.
			h.dst, h.stage = dst, hopProgramming
			dst.mmuEngine.Submit(sim.Duration(len(ar.Frames))*b.cfg.MapPerPage, h)
			return
		}
	}
	if fr, isFree := env.Msg.(*msg.FreeResp); isFree && env.Src == b.memctrl && fr.OK {
		b.unmapEverywhere(dst, fr)
	}

	b.deliver(h, dst)
}

// nack reports a refused message back to its (alive, attached) sender.
func (b *Bus) nack(src *attachment, env msg.Envelope, code msg.NackCode, reason string) {
	b.stats.Nacks++
	b.sendFromBus(src, &msg.Nack{Of: env.Msg.Kind(), Seq: env.Seq, Dst: env.Dst, Code: code, Reason: reason})
}

// deliver sends a routed envelope on to one destination: a unicast in
// the record it arrived in, a broadcast copy or a failure notice in a
// record of its own.
func (b *Bus) deliver(h *hop, dst *attachment) {
	b.stats.Deliveries++
	h.dst, h.last = dst, b.cfg.HopLatency
	h.egress()
}

// sendFromBus emits a bus-originated message to one device. The message
// is traced, counted as a delivery and given the next bus seq before the
// fault plane judges it — bus traffic is judged on the bus→device hop, so
// a dropped one was still sent, and a delay lengthens that hop's
// propagation.
func (b *Bus) sendFromBus(dst *attachment, m msg.Message) {
	if b.tr != nil {
		b.tr.Record(b.eng.Now(), "bus", dst.name, m.Kind().String(), summarize(m))
	}
	b.stats.Deliveries++
	b.busSeq++
	d := b.plane.Filter(faultinject.LayerBus, b.eng.Now(), msg.BusID, dst.id, m.Kind())
	if d.Op == faultinject.Drop {
		return
	}
	h := b.newHop(msg.Envelope{Src: msg.BusID, Dst: dst.id, Seq: b.busSeq, Msg: m})
	h.dst, h.last, h.dup = dst, b.cfg.HopLatency, d.Op == faultinject.Dup
	if d.Op == faultinject.Delay || d.Op == faultinject.Reorder {
		h.last += d.Delay
	}
	h.egress()
}

// egress is the one way out of the bus. Transmission time occupies the
// shared medium (so a broadcast serializes per destination); when it is
// done the hop propagates for h.last and arrives.
func (h *hop) egress() {
	h.stage = hopEgress
	h.b.egress.Submit(sim.Duration(float64(msg.EncodedSize(h.env.Msg))/h.b.cfg.BytesPerNs), h)
}

// arrive hands the envelope to its destination's handler, unless the
// destination died while the message was in flight. Then exactly three
// rules apply. A Reset from the bus is delivered all the same: it is the
// revival path (from the bus only — a device must not be able to revive a
// failed peer by unicast). A unicast whose sender is still alive is
// answered with NackDeadDst. Everything else — a broadcast copy, a
// bus-originated message, a unicast whose sender died too — has no one to
// tell and is counted Dropped.
func (h *hop) arrive() {
	b, dst, env := h.b, h.dst, h.env
	switch {
	case dst.alive || env.Src == msg.BusID && env.Msg.Kind() == msg.KindReset:
		dst.handler(env)
	case env.Dst != msg.Broadcast && b.Alive(env.Src):
		b.nack(b.devices[env.Src], env, msg.NackDeadDst, dst.name+" failed in flight")
	default:
		b.stats.Dropped++
	}
}

// handleBusMessage processes messages addressed to the bus itself.
func (b *Bus) handleBusMessage(src *attachment, env msg.Envelope) {
	switch m := env.Msg.(type) {
	case *msg.Hello:
		b.noteRejoin(src)
		src.alive = true
		src.lastHB = b.eng.Now()
		b.sendFromBus(src, &msg.HelloAck{})
	case *msg.ResetDone:
		b.noteRejoin(src)
		src.alive = true
		src.lastHB = b.eng.Now()
	case *msg.Heartbeat:
		if src.alive {
			src.lastHB = b.eng.Now()
		} else {
			// A heartbeat from a device the bus marked failed means the
			// device believes it is healthy — its ResetDone was lost on a
			// faulty fabric. Re-issue the Reset so the lifecycle
			// reconverges instead of leaving a permanent zombie. (A device
			// mid-reset ignores the extra Reset; a genuinely dead device
			// never heartbeats.)
			b.stats.Resets++
			b.sendFromBus(src, &msg.Reset{Reason: "bus: heartbeat from failed device"})
		}
	case *msg.GrantReq:
		b.handleGrant(src, m)
	case *msg.AuthResp:
		b.handleAuthResp(src, m)
	case *msg.StateQuery:
		b.sendFromBus(src, b.stateRespFor(src, m.Nonce))
	default:
		b.nack(src, env, msg.NackUnknownKind, "bus cannot handle "+env.Msg.Kind().String())
	}
}

// noteRejoin records a re-enrollment (Hello or ResetDone from a device
// the bus had marked failed) for the recovery experiments.
func (b *Bus) noteRejoin(a *attachment) {
	if !a.failed {
		return
	}
	a.failed = false
	// Resynchronize flow control with the revived port's full window.
	a.creditsUsed = 0
	b.stats.Rejoins++
	b.tr.Record(b.eng.Now(), "bus", a.name, "device.rejoined",
		fmt.Sprintf("inc=%d outage=%v", a.inc, b.eng.Now().Sub(a.failedAt)))
}

// stateRespFor answers a revived device's StateQuery from the bus's own
// management tables: every region the device still owns, with the
// grantees currently mapped into it, in (app, va) order.
func (b *Bus) stateRespFor(a *attachment, nonce uint32) *msg.StateResp {
	var keys []ownerKey
	for key, info := range b.owners {
		if info.dev == a.id {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		return keys[i].va < keys[j].va
	})
	resp := &msg.StateResp{Nonce: nonce}
	for _, key := range keys {
		info := b.owners[key]
		reg := msg.OwnedRegion{App: key.app, VA: key.va, Pages: uint32(info.pages), Huge: info.huge}
		for _, rec := range b.grants[key] {
			reg.Grantees = append(reg.Grantees, rec.target)
		}
		resp.Regions = append(resp.Regions, reg)
	}
	return resp
}

// programMappings installs an AllocResp's frames into the requester's
// IOMMU and records ownership.
func (b *Bus) programMappings(dst *attachment, ar *msg.AllocResp) error {
	if b.tenancy != nil {
		// Cross-tenant mapping: the requesting device must share the
		// app's isolation domain before the bus touches its IOMMU. (The
		// device's own domain check would also refuse — this is defense
		// in depth, and it attributes the denial.)
		if terr := b.tenancy.CheckDevApp(dst.id, ar.App); terr != nil {
			e := terr.(*tenant.Error)
			b.reportDenial(dst, e.Victim, tenant.DenyMapping, msg.KindAllocResp, e.Detail)
			return errors.New("cross-tenant mapping refused")
		}
	}
	if dst.mmu == nil {
		return fmt.Errorf("device %s has no IOMMU", dst.name)
	}
	// A retried AllocReq can produce a second OK response for a region
	// whose tables are already programmed (the first response was lost
	// after the controller committed). Re-programming would fail with
	// "already mapped"; recognize the replay — same device, same frames —
	// and succeed idempotently. A response with different frames is a
	// genuine conflict and falls through to the mapping error below.
	if info, ok := b.owners[ownerKey{ar.App, ar.VA}]; ok && info.dev == dst.id &&
		info.frameSum == frameFingerprint(ar.Frames, ar.Huge) {
		return nil
	}
	pages, err := b.mapFrames(dst.mmu, ar.App, ar.VA, ar.Frames, ar.Perm, ar.Huge)
	if err != nil {
		return err
	}
	b.owners[ownerKey{ar.App, ar.VA}] = ownerInfo{dev: dst.id, pages: pages, huge: ar.Huge, frameSum: frameFingerprint(ar.Frames, ar.Huge)}
	return nil
}

// mapFrames programs one authorized run of frames into a device's IOMMU
// — the privileged mechanism, written once for an allocation and a grant
// — and returns the 4 KiB pages it covers. iommu.MapRange owns geometry
// and rollback: a refusal leaves nothing of this call behind.
func (b *Bus) mapFrames(mmu *iommu.IOMMU, app msg.AppID, va uint64, frames []uint64, perm uint8, huge bool) (int, error) {
	if err := iommu.MapRange(mmu, iommu.PASID(app), iommu.VirtAddr(va), frames, iommu.Perm(perm), huge); err != nil {
		return 0, err
	}
	_, per := iommu.PageGeometry(huge)
	b.stats.PagesMapped += uint64(len(frames) * per)
	return len(frames) * per, nil
}

// ownsRange reports whether dev owns an allocated region of app fully
// containing [va, va+bytes).
func (b *Bus) ownsRange(dev msg.DeviceID, app msg.AppID, va, bytes uint64) bool {
	for key, info := range b.owners {
		if key.app != app || info.dev != dev {
			continue
		}
		end := key.va + uint64(info.pages)*physmem.PageSize
		if va >= key.va && va+bytes <= end {
			return true
		}
	}
	return false
}

// unmapEverywhere handles a successful FreeResp: the region disappears
// from the owner and every grantee (including sub-range grants carved
// out of it).
func (b *Bus) unmapEverywhere(owner *attachment, fr *msg.FreeResp) {
	key := ownerKey{fr.App, fr.VA}
	info, ok := b.owners[key]
	if !ok || info.dev != owner.id {
		return
	}
	pasid := iommu.PASID(fr.App)
	regionEnd := fr.VA + uint64(info.pages)*physmem.PageSize
	work := 0
	// Owner's own mappings.
	if owner.mmu != nil {
		work += b.unmapRegion(owner.mmu, pasid, fr.VA, info.pages, info.huge)
	}
	// Any grants whose range falls inside the freed region. The unmap
	// submissions below schedule simulator events, so iterate the grant
	// table in key order, not map order.
	gkeys := b.gkeys[:0]
	for gkey := range b.grants {
		if gkey.app != fr.App || gkey.va < fr.VA || gkey.va >= regionEnd {
			continue
		}
		gkeys = append(gkeys, gkey)
	}
	slices.SortFunc(gkeys, func(x, y ownerKey) int { return cmp.Compare(x.va, y.va) })
	b.gkeys = gkeys
	for _, gkey := range gkeys {
		for _, rec := range b.grants[gkey] {
			a, ok := b.devices[rec.target]
			if !ok || a.mmu == nil {
				continue
			}
			n := b.unmapRegion(a.mmu, pasid, gkey.va, rec.pages, rec.huge)
			a.mmuEngine.Submit(sim.Duration(n)*b.cfg.MapPerPage, nil)
		}
		delete(b.grants, gkey)
	}
	owner.mmuEngine.Submit(sim.Duration(work)*b.cfg.MapPerPage, nil)
	delete(b.owners, key)
}

// unmapRegion removes a region's translations (pages counts 4 KiB units
// whatever the mapping size) and returns the number of PTEs cleared.
func (b *Bus) unmapRegion(mmu *iommu.IOMMU, pasid iommu.PASID, va uint64, pages int, huge bool) int {
	_, per := iommu.PageGeometry(huge)
	n := mmu.UnmapRange(pasid, iommu.VirtAddr(va), pages/per, huge)
	b.stats.PagesUnmapped += uint64(n * per)
	return n
}

// handleGrant begins the authorize-then-map protocol.
func (b *Bus) handleGrant(src *attachment, m *msg.GrantReq) {
	deny := func(reason string) {
		b.stats.GrantsDenied++
		b.sendFromBus(src, &msg.GrantResp{App: m.App, OK: false, Reason: reason, VA: m.VA, Target: m.Target})
	}
	// Cross-tenant grants are refused outright — before any mechanism
	// check, so ownership state leaks nothing across the boundary:
	// neither the target device nor the app may live in a different
	// isolation domain than the requester. Attributed and reported (S1).
	if b.tenancy != nil {
		if !b.tenancy.SameDomain(src.id, m.Target) {
			deny("cross-tenant grant refused")
			b.reportDenial(src, b.tenantOf(m.Target), tenant.DenyGrant, msg.KindGrantReq,
				fmt.Sprintf("%s may not grant app %d to %v in %v", src.name, m.App, m.Target, b.tenantOf(m.Target)))
			return
		}
		if terr := b.tenancy.CheckDevApp(m.Target, m.App); terr != nil {
			e := terr.(*tenant.Error)
			deny("cross-tenant grant refused")
			b.reportDenial(src, e.Victim, tenant.DenyGrant, msg.KindGrantReq, e.Detail)
			return
		}
	}
	// The bus's own sanity checks (mechanism, not policy): requester must
	// own the range, target must exist.
	if !b.ownsRange(src.id, m.App, m.VA, m.Bytes) {
		deny("requester does not own region")
		return
	}
	// A retried GrantReq for a grant already in force succeeds without
	// re-authorizing or re-mapping (the first response was lost).
	for _, r := range b.grants[ownerKey{m.App, m.VA}] {
		if r.target == m.Target {
			b.stats.GrantsOK++
			b.sendFromBus(src, &msg.GrantResp{App: m.App, OK: true, VA: m.VA, Target: m.Target})
			return
		}
	}
	tgt, ok := b.devices[m.Target]
	if !ok || !tgt.alive {
		deny("unknown or dead target device")
		return
	}
	if b.memctrl == 0 {
		deny("no memory controller")
		return
	}
	mc := b.devices[b.memctrl]
	b.nextNonce++
	nonce := b.nextNonce
	b.pendingGrants[nonce] = pendingGrant{req: *m, src: src.id}
	b.sendFromBus(mc, &msg.AuthReq{App: m.App, VA: m.VA, Bytes: m.Bytes, Target: m.Target, Perm: m.Perm, Nonce: nonce})
}

// handleAuthResp completes a pending grant.
func (b *Bus) handleAuthResp(src *attachment, m *msg.AuthResp) {
	if src.id != b.memctrl {
		b.stats.Dropped++ // forged authorization
		return
	}
	pg, ok := b.pendingGrants[m.Nonce]
	if !ok {
		b.stats.Dropped++
		return
	}
	delete(b.pendingGrants, m.Nonce)
	ack := b.acks.Get()
	ack.b, ack.requester, ack.pg = b, b.devices[pg.src], pg
	if !m.OK {
		ack.reply(false, m.Reason)
		return
	}
	tgt, ok := b.devices[pg.req.Target]
	if !ok || !tgt.alive || tgt.mmu == nil {
		ack.reply(false, "target vanished")
		return
	}
	// Two authorizations for the same grant can race when the requester
	// retried before the first AuthResp returned; the second mapping pass
	// would fail on already-installed PTEs. Treat it as the success it is.
	for _, r := range b.grants[ownerKey{m.App, m.VA}] {
		if r.target == pg.req.Target {
			ack.reply(true, "")
			return
		}
	}
	pages, err := b.mapFrames(tgt.mmu, m.App, m.VA, m.Frames, m.Perm, m.Huge)
	if err != nil {
		ack.reply(false, err.Error())
		return
	}
	key := ownerKey{m.App, m.VA}
	b.grants[key] = append(b.grants[key], grantRec{target: pg.req.Target, pages: pages, huge: m.Huge})
	// The grant is acknowledged only after the target's tables are
	// programmed.
	tgt.mmuEngine.Submit(sim.Duration(len(m.Frames))*b.cfg.MapPerPage, ack)
}

// grantAck answers a grant's requester: at once, or as the event that ends
// the target's table programming. It is dead once reply has read it, and
// goes back on the bus's list there.
type grantAck struct {
	b         *Bus
	requester *attachment
	pg        pendingGrant
}

func (a *grantAck) Fire() { a.reply(true, "") }

func (a *grantAck) reply(ok bool, reason string) {
	b, requester, req := a.b, a.requester, a.pg.req
	b.acks.Put(a)
	if requester == nil {
		return
	}
	if ok {
		b.stats.GrantsOK++
	} else {
		b.stats.GrantsDenied++
	}
	b.sendFromBus(requester, &msg.GrantResp{App: req.App, OK: ok, Reason: reason, VA: req.VA, Target: req.Target})
}

// watchdog is the bus as the event of its periodic liveness scan (a
// pointer conversion: re-arming it allocates nothing).
type watchdog Bus

func (w *watchdog) Fire() {
	b := (*Bus)(w)
	now := b.eng.Now()
	for _, a := range b.order {
		if a.alive && now.Sub(a.lastHB) > b.cfg.WatchdogTimeout {
			b.failDevice(a, "watchdog: missed heartbeats")
		}
	}
	b.eng.Schedule(b.cfg.WatchdogTimeout/2, w)
}

// failDevice marks a device dead, notifies everyone, and attempts a reset
// (§4 "Error Handling").
func (b *Bus) failDevice(a *attachment, reason string) {
	a.alive = false
	a.failed = true
	a.failedAt = b.eng.Now()
	b.stats.DevicesFailed++
	// Fail any grant still waiting on the dead party (requester, target,
	// or the authorizing controller): the requester must not hang. The
	// denials schedule delivery events, so drain in nonce order (nonces
	// are issued sequentially), not map order.
	nonces := make([]uint32, 0, len(b.pendingGrants))
	for nonce := range b.pendingGrants {
		nonces = append(nonces, nonce)
	}
	sort.Slice(nonces, func(i, j int) bool { return nonces[i] < nonces[j] })
	for _, nonce := range nonces {
		pg := b.pendingGrants[nonce]
		if pg.src != a.id && pg.req.Target != a.id && b.memctrl != a.id {
			continue
		}
		delete(b.pendingGrants, nonce)
		if req, ok := b.devices[pg.src]; ok && req.alive {
			b.stats.GrantsDenied++
			b.sendFromBus(req, &msg.GrantResp{
				App: pg.req.App, OK: false,
				Reason: "device failed during grant: " + a.name,
				VA:     pg.req.VA, Target: pg.req.Target,
			})
		}
	}
	b.tr.Record(b.eng.Now(), "bus", "broadcast", "device.failed", a.name+": "+reason)
	// The notices are not sendFromBus messages: they carry Seq 0 (untagged,
	// so never deduplicated, and busSeq does not move), leave no trace line
	// beside the device.failed record above, and skip the fault plane.
	for _, other := range b.order {
		if other.id == a.id || !other.alive {
			continue
		}
		b.deliver(b.newHop(msg.Envelope{Src: msg.BusID, Dst: other.id, Msg: &msg.DeviceFailed{Device: a.id}}), other)
	}
	b.stats.Resets++
	b.sendFromBus(a, &msg.Reset{Reason: reason})
}

// Replay injects a captured envelope verbatim — source address,
// sequence tag and incarnation stamp all preserved — through the bus's
// normal ingress path, modeling a malicious endpoint retransmitting a
// frame it sniffed earlier. The bus's defenses (incarnation fencing,
// dedup window, tenancy checks) see exactly what they would see from a
// real replay attack.
func (b *Bus) Replay(env msg.Envelope) { b.ingress(env, faultinject.Decision{}) }

// FailDevice force-fails a device by id: a fault hook for tests, which
// fail a device without killing its model (a device that dies on its own
// is Kill()ed and found by the watchdog).
func (b *Bus) FailDevice(id msg.DeviceID, reason string) error {
	a, ok := b.devices[id]
	if !ok {
		return fmt.Errorf("bus: unknown device %v", id)
	}
	if !a.alive {
		return fmt.Errorf("bus: device %v already dead", id)
	}
	b.failDevice(a, reason)
	return nil
}

// Alive reports whether a device is currently registered alive.
func (b *Bus) Alive(id msg.DeviceID) bool {
	a, ok := b.devices[id]
	return ok && a.alive
}

// OwnerOf reports which device owns the (app, va) region — used by the
// auditing tests.
func (b *Bus) OwnerOf(app msg.AppID, va uint64) (msg.DeviceID, bool) {
	info, ok := b.owners[ownerKey{app, va}]
	return info.dev, ok
}

// GranteesOf lists devices holding grants on the region.
func (b *Bus) GranteesOf(app msg.AppID, va uint64) []msg.DeviceID {
	recs := b.grants[ownerKey{app, va}]
	out := make([]msg.DeviceID, len(recs))
	for i, r := range recs {
		out[i] = r.target
	}
	return out
}

// summarize renders the trace detail for interesting message types.
func summarize(m msg.Message) string {
	switch t := m.(type) {
	case *msg.DiscoverReq:
		return t.Query
	case *msg.DiscoverResp:
		return t.Service
	case *msg.OpenReq:
		return t.Service
	case *msg.OpenResp:
		return fmt.Sprintf("%s shm=%d ok=%v", t.Service, t.SharedBytes, t.OK)
	case *msg.AllocReq:
		return fmt.Sprintf("app=%d va=%#x bytes=%d", t.App, t.VA, t.Bytes)
	case *msg.AllocResp:
		return fmt.Sprintf("app=%d va=%#x frames=%d ok=%v", t.App, t.VA, len(t.Frames), t.OK)
	case *msg.GrantReq:
		return fmt.Sprintf("app=%d va=%#x -> %v", t.App, t.VA, t.Target)
	case *msg.GrantResp:
		return fmt.Sprintf("app=%d va=%#x ok=%v %s", t.App, t.VA, t.OK, t.Reason)
	case *msg.ConnectReq:
		return fmt.Sprintf("%s ring=%#x", t.Service, t.RingVA)
	case *msg.ErrorNotify:
		return fmt.Sprintf("%s: %s", t.Resource, t.Detail)
	case *msg.DeviceFailed:
		return t.Device.String()
	case *msg.Reset:
		return t.Reason
	}
	return ""
}
