// Package smartnic implements the smart NIC of §3: the programmable
// device that hosts offloaded applications (the KVS), exposes them to the
// network, and consumes services from other devices (the smart SSD's
// file service) through the system bus and shared-memory virtqueues.
//
// The package also provides the Runtime — §4's "library that encapsulates
// the functionality of the system bus, and provide[s] functions for
// service discovery, resource allocation, etc." — which executes the
// paper's Figure-2 initialization sequence on behalf of an application.
package smartnic

import (
	"fmt"
	"slices"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/tenant"
	"nocpu/internal/trace"
)

// App is an application offloaded to the NIC. The NIC calls Boot once the
// device is alive; the app uses the Runtime for everything.
type App interface {
	// AppID is the application's identity == its PASID (§2.2).
	AppID() msg.AppID
	// Boot starts the app; it typically runs the Figure-2 sequence.
	Boot(rt *Runtime)
	// ServeNetwork handles one network request; reply sends the response
	// back to the client.
	ServeNetwork(payload []byte, reply func([]byte))
	// PeerFailed tells the app a device it may depend on died (§4).
	PeerFailed(dev msg.DeviceID)
}

// Shedder is an optional App extension for overload. When the NIC's rx
// queue is at its bound it asks the app for a cheap shed response and
// replies with that instead of enqueueing the request, so clients learn
// they were refused rather than timing out. Apps that do not implement
// Shedder get wire-drop semantics instead (the packet vanishes).
type Shedder interface {
	// ShedResponse returns the protocol-level "refused under load"
	// reply for one shed request.
	ShedResponse() []byte
}

// ResourceErrorer is an optional App extension for §4 error notices: a
// provider tells the app that a resource it holds failed and was reset
// (a queue whose transport failed, a file behind a kernel whose device
// died). An app without it ignores the notice.
type ResourceErrorer interface {
	ResourceError(e *msg.ErrorNotify)
}

// Replier answers one network request. The record that waits for an
// answer implements it, so a reply needs no closure.
type Replier interface {
	Reply(resp []byte)
}

// ReplyFunc adapts a plain reply func to a Replier. A func converts to
// an interface without an allocation.
type ReplyFunc func([]byte)

// Reply calls f.
func (f ReplyFunc) Reply(resp []byte) { f(resp) }

// RequestApp is an optional App extension that the NIC hands every
// request, with its Replier, instead of calling ServeNetwork. A request
// that entered through DeliverFrom is stamped: tn is the tenant the edge
// authenticated, authoritative over anything the payload claims.
//
// ServeRequest answers rep at most once and keeps no reference to it once
// that answer begins: the NIC puts the record behind rep back on its free
// list when the answer has crossed tx, and the next request takes it.
type RequestApp interface {
	ServeRequest(tn uint16, stamped bool, payload []byte, rep Replier)
}

// Config assembles a NIC.
type Config struct {
	Device device.Config
	// RxCost/TxCost model packet processing per network request/response.
	RxCost sim.Duration
	TxCost sim.Duration
	// RxQueueBound caps the rx pipeline's backlog (requests admitted but
	// not yet through rx processing). At the bound, Deliver sheds: the
	// request is answered with the app's Shedder response (or dropped if
	// the app has none) without consuming rx service time. 0 = unbounded,
	// the pre-flow-control behavior.
	RxQueueBound int
	// Tenancy partitions the rx pipeline per tenant: a tenant whose
	// registry Budget.RxBound is nonzero may hold at most that many rx
	// slots, so its flood sheds at the edge before it can crowd anyone
	// else out of RxQueueBound. nil = off, the legacy behavior.
	Tenancy *tenant.Registry
}

// DefaultRxCost and DefaultTxCost model a programmable pipeline.
const (
	DefaultRxCost = 600 * sim.Nanosecond
	DefaultTxCost = 300 * sim.Nanosecond
)

// NIC is the smart NIC device.
type NIC struct {
	dev *device.Device
	cfg Config

	apps map[msg.AppID]App
	rts  map[msg.AppID]*Runtime
	rx   *sim.Server
	tx   *sim.Server

	// pending holds every control-plane call awaiting its response, keyed
	// by the response's natural correlator; inflight maps each call's last
	// link-layer seq to it so bus NACKs trigger fast retransmission
	// (retry.go).
	pending         map[callKey]*call
	inflight        map[uint32]*call
	calls           sim.Free[call] // finished calls' records (call.finish)
	retryStats      RetryStats
	nextNonce       uint32
	faultHandlerSet bool

	// lastMemctrl remembers the controller the apps allocate through so
	// rejoin() can free the previous incarnation's surviving regions.
	lastMemctrl msg.DeviceID

	// NetRequests counts network requests served.
	NetRequests uint64
	// RxShed counts requests refused at the rx bound (replied via the
	// app's Shedder response or, absent one, dropped on the wire).
	// TenantRxShed counts the subset refused against a per-tenant rx
	// partition rather than the shared bound.
	RxShed       uint64
	TenantRxShed uint64

	// rxTenant counts rx slots held per tenant against each tenant's
	// registry Budget.RxBound.
	rxTenant map[uint16]int

	// rxG tracks rx backlog depth against RxQueueBound for the overload
	// harness's Q1 audit.
	rxG *metrics.Gauge

	// discard is the reply an app is handed for a one-way frame: one
	// shared func, so a frame nobody answers costs no closure.
	discard func([]byte)
	// deliveries recycles every delivery record only the NIC holds once
	// its last stage ends: a one-way frame's, a RequestApp's and
	// transmit's (delivery).
	deliveries sim.Free[delivery]
}

// New builds the NIC and attaches it.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*NIC, error) {
	if cfg.RxCost == 0 {
		cfg.RxCost = DefaultRxCost
	}
	if cfg.TxCost == 0 {
		cfg.TxCost = DefaultTxCost
	}
	cfg.Device.Role = msg.RoleNIC
	d, err := device.New(eng, b, fab, tr, cfg.Device)
	if err != nil {
		return nil, err
	}
	n := &NIC{
		dev:      d,
		cfg:      cfg,
		apps:     make(map[msg.AppID]App),
		rts:      make(map[msg.AppID]*Runtime),
		rx:       sim.NewServer(eng),
		tx:       sim.NewServer(eng),
		pending:  make(map[callKey]*call),
		inflight: make(map[uint32]*call),
		rxTenant: make(map[uint16]int),
		rxG:      metrics.NewGauge(cfg.RxQueueBound),
	}
	n.discard = func(resp []byte) { n.transmit(nil, resp) }
	for _, k := range responseKinds {
		d.Handle(k, n.onResponse)
	}
	d.Handle(msg.KindErrorNotify, n.onErrorNotify)
	d.Handle(msg.KindNack, n.onNack)
	d.OnAlive = n.onAlive
	d.OnReset = n.onReset
	d.OnPeerFailed = n.onPeerFailed
	return n, nil
}

// Device exposes the chassis.
func (n *NIC) Device() *device.Device { return n.dev }

// RetryStats reports reliability-layer counters.
func (n *NIC) RetryStats() RetryStats { return n.retryStats }

// RxGauge exposes rx backlog depth vs RxQueueBound (overload Q1 audit).
func (n *NIC) RxGauge() *metrics.Gauge { return n.rxG }

// Start powers the NIC on.
func (n *NIC) Start() { n.dev.Start() }

// AddApp loads an application image onto the NIC (before or after Start;
// apps added while alive boot immediately).
func (n *NIC) AddApp(a App) *Runtime {
	if _, dup := n.apps[a.AppID()]; dup {
		panic(fmt.Sprintf("smartnic %s: duplicate app %d", n.dev.Name(), a.AppID()))
	}
	rt := newRuntime(n, a.AppID())
	n.apps[a.AppID()] = a
	n.rts[a.AppID()] = rt
	if n.dev.State() == device.StateAlive {
		a.Boot(rt)
	}
	return rt
}

func (n *NIC) onAlive() {
	if n.dev.Incarnation() > 0 {
		// Coming back from a crash: reconcile with the bus before the apps
		// boot (recovery.go).
		n.rejoin()
		return
	}
	n.bootApps()
}

func (n *NIC) onPeerFailed(dev msg.DeviceID) {
	for _, id := range n.sortedAppIDs() {
		n.apps[id].PeerFailed(dev)
	}
}

// sortedAppIDs iterates apps in id order: Boot and PeerFailed schedule
// simulator events, so delivery order must not depend on map iteration.
func (n *NIC) sortedAppIDs() []msg.AppID {
	ids := make([]msg.AppID, 0, len(n.apps))
	for id := range n.apps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Deliver injects a network request addressed to an app (called by the
// netsim workload generators — this is the NIC's MAC/PHY edge). reply is
// invoked with the response after tx processing.
func (n *NIC) Deliver(app msg.AppID, payload []byte, reply func([]byte)) {
	n.deliver(0, false, app, payload, reply)
}

// DeliverFrom injects a network request whose origin the edge has
// authenticated as tenant tn (think: the port or VLAN it arrived on).
// The stamp is passed to RequestApp apps — overriding any claim inside
// the payload — and the request is charged against the tenant's rx
// partition before the shared RxQueueBound.
func (n *NIC) DeliverFrom(tn uint16, app msg.AppID, payload []byte, reply func([]byte)) {
	n.deliver(tn, true, app, payload, reply)
}

// DeliverOneWay injects a frame nobody waits on an answer to (a peer
// machine's fabric frame). It takes the same path as Deliver — rx
// bound, rx service, the app — and an app that answers anyway still
// pays tx time for a response that goes nowhere.
func (n *NIC) DeliverOneWay(app msg.AppID, payload []byte) {
	n.deliver(0, false, app, payload, nil)
}

// delivery is one network request's record on this NIC and the event of
// each of its stages: it is queued on rx, handed to the app, and — for
// the app's first response — queued on tx, so a request costs one record
// however many stages it crosses. Every record comes off the NIC's list,
// and three kinds go back on it:
//   - a one-way frame's goes no further than rx: its app is handed the
//     shared discard instead, so the record is free again when the app
//     stage begins;
//   - a RequestApp's is pooled: the app answers it at most once and keeps
//     it no longer (RequestApp), so it is free once its answer crosses tx;
//   - transmit's carries one response through tx and nothing else.
//
// A plain app is handed Reply as a func, which it may keep and call
// again after its first answer went out, so its record never goes back.
type delivery struct {
	n       *NIC
	app     App
	payload []byte
	reply   func([]byte) // the client's; nil when nobody waits for the answer
	resp    []byte
	tn      uint16
	stamped bool
	pooled  bool // goes back on the list when its tx stage fires
	stage   uint8
}

// delivery stages.
const (
	stageRx  uint8 = iota // queued on the rx pipeline
	stageApp              // with the app, which has not answered yet
	stageTx               // carrying a response through the tx pipeline
)

func (n *NIC) deliver(tn uint16, stamped bool, app msg.AppID, payload []byte, reply func([]byte)) {
	a, ok := n.apps[app]
	if !ok || n.dev.State() != device.StateAlive {
		// No such app or dead NIC: the packet vanishes, as on a real wire.
		return
	}
	// Per-tenant rx partition first: a tenant at its own bound sheds
	// regardless of shared headroom, and is attributed in the registry.
	if reg := n.cfg.Tenancy; reg != nil && tn != 0 {
		if b := reg.Budget(tenant.ID(tn)); b.RxBound > 0 && n.rxTenant[tn] >= int(b.RxBound) {
			reg.Record(n.dev.Engine().Now(), tenant.ID(tn), 0, tenant.DenyBudget,
				fmt.Sprintf("t%d over rx partition %d", tn, b.RxBound))
			n.TenantRxShed++
			n.shed(a, reply)
			return
		}
	}
	if bound := n.cfg.RxQueueBound; bound > 0 && n.rx.Pending() >= bound {
		// Rx pipeline is full: shed at the shared bound.
		n.shed(a, reply)
		return
	}
	n.rxTenant[tn]++
	d := n.deliveries.Get()
	*d = delivery{n: n, app: a, payload: payload, reply: reply, tn: tn, stamped: stamped}
	n.rx.Submit(n.cfg.RxCost, d)
	n.rxG.Set(n.rx.Pending())
}

// shed refuses a request at the edge. A Shedder app still answers
// (through tx, so the refusal costs what any response costs); others
// see a wire drop, as on a real NIC whose ring overflows. Either way
// the request never consumes rx service.
func (n *NIC) shed(a App, reply func([]byte)) {
	n.RxShed++
	if s, ok := a.(Shedder); ok {
		n.transmit(reply, s.ShedResponse())
	}
}

// transmit charges tx processing for a response that has no delivery
// of its own to ride on, then hands it to reply.
func (n *NIC) transmit(reply func([]byte), resp []byte) {
	d := n.deliveries.Get()
	*d = delivery{n: n, reply: reply, resp: resp, pooled: true, stage: stageTx}
	n.tx.Submit(n.cfg.TxCost, d)
}

// Fire runs the stage the delivery was queued for. A pooled record goes
// back on the list before its reply runs, since a reply can deliver the
// next request, which takes it.
func (d *delivery) Fire() {
	n := d.n
	if d.stage == stageTx {
		reply, resp := d.reply, d.resp
		if d.pooled {
			n.deliveries.Put(d)
		}
		if reply != nil {
			reply(resp)
		}
		return
	}
	n.rxTenant[d.tn]--
	n.NetRequests++
	if d.reply == nil {
		// A one-way frame: the app is handed discard, never the record,
		// so an answer pays a tx job of its own and the record is done
		// with here.
		app, payload := d.app, d.payload
		n.deliveries.Put(d)
		if ra, ok := app.(RequestApp); ok {
			ra.ServeRequest(0, false, payload, ReplyFunc(n.discard))
			return
		}
		app.ServeNetwork(payload, n.discard)
		return
	}
	d.stage = stageApp
	if ra, ok := d.app.(RequestApp); ok {
		d.pooled = true
		ra.ServeRequest(d.tn, d.stamped, d.payload, d)
		return
	}
	d.app.ServeNetwork(d.payload, d.Reply)
}

// Reply answers the request. The first response rides the delivery
// through tx; a later one from a plain app finds the record in flight
// (or spent) and pays for a transmission of its own. A RequestApp never
// answers twice, so its record may be on the list again by then.
func (d *delivery) Reply(resp []byte) {
	if d.stage != stageApp {
		d.n.transmit(d.reply, resp)
		return
	}
	d.stage, d.resp = stageTx, resp
	d.n.tx.Submit(d.n.cfg.TxCost, d)
}

func (n *NIC) onErrorNotify(env msg.Envelope) {
	m := env.Msg.(*msg.ErrorNotify)
	if a, ok := n.apps[m.App].(ResourceErrorer); ok {
		a.ResourceError(m)
	}
}
