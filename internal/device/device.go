// Package device is the self-managing-device framework of §2.1.
//
// A device in the CPU-less machine "must manage its own internal state
// ... expose the services it provides, and provide a separate context for
// each instance of a service". This package supplies the machinery common
// to every device — lifecycle (self-test → Hello → heartbeats → failure →
// reset), broadcast-discovery answering, service-session routing
// (Open/Connect/Close), and access to the data plane — so concrete
// devices (smart SSD, smart NIC, memory controller) only implement their
// service logic. The enrollment half of the lifecycle (Enrollment) is the
// centralized kernel's too, so both machines enroll one way.
package device

import (
	"fmt"

	"nocpu/internal/bus"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
)

// State is the device lifecycle state.
type State uint8

// Lifecycle states.
const (
	StateOff State = iota
	StateInit
	StateAlive
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateInit:
		return "init"
	case StateAlive:
		return "alive"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Config describes a device's identity and lifecycle timing.
type Config struct {
	ID   msg.DeviceID
	Name string
	Role msg.Role
	// SelfTest is the power-on self-test duration before Hello (§2.2).
	SelfTest sim.Duration
	// HeartbeatEvery is the watchdog keep-alive period; 0 disables.
	HeartbeatEvery sim.Duration
	// ResetDelay is how long the device needs to come back after a bus
	// Reset. 0 means the device cannot recover (stays failed).
	ResetDelay sim.Duration
	// IOMMU sets the device's translation-cache geometry.
	IOMMU iommu.Config
}

// Service is one resource a device exposes on the bus (§2.1: "exposing
// each one as a service"). Implementations own per-connection contexts
// and must isolate them from one another.
type Service interface {
	// Name is the concrete service name carried in OpenReq.
	Name() string
	// Match reports whether this service answers a discovery query.
	Match(query string) bool
	// Open creates a connection context (or refuses).
	Open(src msg.DeviceID, req *msg.OpenReq) *msg.OpenResp
	// Connect binds the requester's shared-memory queue layout to the
	// connection.
	Connect(src msg.DeviceID, req *msg.ConnectReq) *msg.ConnectResp
	// Close tears a connection down.
	Close(src msg.DeviceID, req *msg.CloseReq) *msg.CloseResp
}

// Device is the common chassis concrete devices embed.
type Device struct {
	cfg Config
	eng *sim.Engine
	tr  *trace.Tracer

	busPort *bus.Port
	fabric  *interconnect.Fabric
	fabPort *interconnect.Port
	mmu     *iommu.IOMMU

	state State
	enr   Enrollment
	// life is the end of the self-test or reset in progress: Kill stops it
	// with the enrollment.
	life     sim.Timer
	services map[string]Service
	svcOrder []string // deterministic discovery-answer order

	// handlers routes non-session messages (alloc responses, errors, ...)
	// registered by the concrete device.
	handlers map[msg.Kind]func(env msg.Envelope)

	// OnReset is called when the device comes back from a bus Reset; the
	// concrete device rebuilds its volatile state there.
	OnReset func()
	// OnPeerFailed is called on DeviceFailed broadcasts.
	OnPeerFailed func(id msg.DeviceID)
	// OnAlive is called when the device reaches StateAlive (initial boot
	// and after each recovery).
	OnAlive func()
}

// New attaches a fresh device chassis to the bus and fabric. The device
// owns its IOMMU, but only the bus can program it — the device keeps no
// reference that allows mapping (self-mapping is the §2.2 security
// anti-goal); it holds the IOMMU only to pass to its DMA port and for
// fault statistics.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*Device, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("device: empty name")
	}
	d := &Device{
		cfg:      cfg,
		eng:      eng,
		tr:       tr,
		fabric:   fab,
		mmu:      iommu.New(cfg.Name, fab.Memory(), cfg.IOMMU),
		services: make(map[string]Service),
		handlers: make(map[msg.Kind]func(msg.Envelope)),
	}
	d.fabPort = fab.NewPort(cfg.Name, d.mmu)
	port, err := b.Attach(cfg.ID, cfg.Name, cfg.Role, d.mmu, d.receive)
	if err != nil {
		return nil, err
	}
	d.busPort = port
	d.enr = NewEnrollment(eng, tr, port, cfg.Role, cfg.Name, cfg.HeartbeatEvery)
	return d, nil
}

// Accessors.
func (d *Device) ID() msg.DeviceID             { return d.cfg.ID }
func (d *Device) Name() string                 { return d.cfg.Name }
func (d *Device) State() State                 { return d.state }
func (d *Device) Incarnation() uint32          { return d.busPort.Incarnation() }
func (d *Device) Engine() *sim.Engine          { return d.eng }
func (d *Device) Fabric() *interconnect.Fabric { return d.fabric }
func (d *Device) DMA() *interconnect.Port      { return d.fabPort }
func (d *Device) IOMMU() *iommu.IOMMU          { return d.mmu }
func (d *Device) Tracer() *trace.Tracer        { return d.tr }

// AddService registers a service before Start.
func (d *Device) AddService(s Service) {
	if _, dup := d.services[s.Name()]; dup {
		panic(fmt.Sprintf("device %s: duplicate service %q", d.cfg.Name, s.Name()))
	}
	d.services[s.Name()] = s
	d.svcOrder = append(d.svcOrder, s.Name())
}

// Handle routes a message kind to fn. Session kinds (discover/open/
// connect/close requests) are managed by the chassis and cannot be
// overridden.
func (d *Device) Handle(k msg.Kind, fn func(env msg.Envelope)) {
	switch k {
	case msg.KindDiscoverReq, msg.KindOpenReq, msg.KindConnectReq, msg.KindCloseReq, msg.KindReset, msg.KindDeviceFailed:
		panic(fmt.Sprintf("device %s: kind %v is chassis-managed", d.cfg.Name, k))
	}
	d.handlers[k] = fn
}

// Send transmits a message on the system bus and returns the link-layer
// sequence number the port stamped on it (for retry correlation).
func (d *Device) Send(dst msg.DeviceID, m msg.Message) uint32 {
	return d.busPort.Send(dst, m)
}

// Start powers the device on: self-test, then Hello, then heartbeats.
func (d *Device) Start() {
	if d.state != StateOff {
		panic(fmt.Sprintf("device %s: Start in state %v", d.cfg.Name, d.state))
	}
	d.state = StateInit
	d.tr.Record(d.eng.Now(), d.cfg.Name, "", "self-test", "")
	d.life.Arm(d.eng, d.cfg.SelfTest, (*selfTestDone)(d))
}

// selfTestDone is the device as the event that ends its power-on self-test
// (a pointer conversion: arming it allocates nothing), as are its others.
type selfTestDone Device

func (e *selfTestDone) Fire() {
	d := (*Device)(e)
	d.state = StateAlive
	d.enr.Enroll(d.svcOrder)
	if d.OnAlive != nil {
		d.OnAlive()
	}
}

// Kill simulates a hard device failure: the device stops responding and
// stops heartbeating, and a self-test or reset in progress never ends. The
// bus watchdog will eventually notice (§4).
func (d *Device) Kill() {
	d.state = StateFailed
	d.life.Stop()
	d.enr.Stop()
	d.tr.Record(d.eng.Now(), d.cfg.Name, "", "killed", "")
}

// resetDone is the device coming back from a bus Reset.
type resetDone Device

func (e *resetDone) Fire() {
	d := (*Device)(e)
	// The revived device is a new incarnation: everything it sends from
	// here on is stamped so the bus can fence the old life's in-flight
	// messages. Pure port state — the restart itself adds no bus traffic.
	d.busPort.NewIncarnation()
	if d.OnReset != nil {
		d.OnReset()
	}
	d.mmu.FlushTLB()
	d.state = StateAlive
	d.Send(msg.BusID, &msg.ResetDone{})
	d.enr.Beat()
	if d.OnAlive != nil {
		d.OnAlive()
	}
}

// lookupService resolves a session's service: exact name first, then the
// first registered service whose Match accepts it (services like the
// SSD's file service answer a whole family of names, "file:<path>").
func (d *Device) lookupService(name string) Service {
	if s, ok := d.services[name]; ok {
		return s
	}
	for _, n := range d.svcOrder {
		if d.services[n].Match(name) {
			return d.services[n]
		}
	}
	return nil
}

// receive is the bus delivery entry point.
func (d *Device) receive(env msg.Envelope) {
	if d.state == StateFailed {
		// A dead device processes nothing except a Reset, and only if the
		// hardware can still recover.
		if _, isReset := env.Msg.(*msg.Reset); isReset && d.cfg.ResetDelay > 0 {
			d.tr.Record(d.eng.Now(), d.cfg.Name, "", "resetting", "")
			d.state = StateInit
			d.life.Arm(d.eng, d.cfg.ResetDelay, (*resetDone)(d))
		}
		return
	}
	if d.state != StateAlive {
		return
	}
	switch m := env.Msg.(type) {
	case *msg.DiscoverReq:
		for _, name := range d.svcOrder {
			if d.services[name].Match(m.Query) {
				// Answer with the query itself as the session name: a
				// family service ("file") serves many concrete names
				// ("file:kv.dat"), and lookupService resolves either.
				d.Send(env.Src, &msg.DiscoverResp{Query: m.Query, Nonce: m.Nonce, Service: m.Query})
				break
			}
		}
	case *msg.OpenReq:
		s := d.lookupService(m.Service)
		if s == nil {
			d.Send(env.Src, &msg.OpenResp{Service: m.Service, App: m.App, OK: false, Reason: "no such service"})
			return
		}
		d.Send(env.Src, s.Open(env.Src, m))
	case *msg.ConnectReq:
		s := d.lookupService(m.Service)
		if s == nil {
			d.Send(env.Src, &msg.ConnectResp{ConnID: m.ConnID, OK: false, Reason: "no such service"})
			return
		}
		d.Send(env.Src, s.Connect(env.Src, m))
	case *msg.CloseReq:
		s := d.lookupService(m.Service)
		if s == nil {
			d.Send(env.Src, &msg.CloseResp{ConnID: m.ConnID, OK: false})
			return
		}
		d.Send(env.Src, s.Close(env.Src, m))
	case *msg.DeviceFailed:
		if d.OnPeerFailed != nil {
			d.OnPeerFailed(m.Device)
		}
	case *msg.Reset:
		// Reset of an alive device: treat as failure plus recovery.
		d.Kill()
		d.receive(env)
	case *msg.HelloAck, *msg.CreditUpdate:
		d.enr.Receive(m)
	default:
		if h, ok := d.handlers[env.Msg.Kind()]; ok {
			h(env)
		}
	}
}
