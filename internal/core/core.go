// Package core assembles complete emulated machines — the CPU-less
// system of "The Last CPU" and its centralized-CPU baseline — from the
// substrate packages, and is the library's primary entry point.
//
// A Decentralized system contains: physical memory, the data-plane
// fabric, the system-management bus, a memory-controller device, one or
// more smart SSDs and smart NICs. A Centralized system swaps the memory
// controller for a CPU running a kernel (centralos) and demotes the bus
// to pure transport.
//
// Typical use:
//
//	sys, _ := core.New(core.Options{Flavor: core.Decentralized})
//	sys.Boot()
//	sys.CreateFile("kv.dat", nil)
//	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat"})
//	sys.WaitReady(store)
//	... drive load with netsim, inspect stats ...
package core

import (
	"cmp"
	"fmt"

	"nocpu/internal/accel"
	"nocpu/internal/bus"
	"nocpu/internal/centralos"
	"nocpu/internal/device"
	"nocpu/internal/faultinject"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/kvs"
	"nocpu/internal/memctrl"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/smartssd"
	"nocpu/internal/tenant"
	"nocpu/internal/trace"
)

// Flavor selects the machine architecture.
type Flavor uint8

// Machine flavors.
const (
	// Decentralized is the paper's CPU-less machine.
	Decentralized Flavor = iota
	// Centralized is the baseline with a CPU-resident kernel control
	// plane.
	Centralized
)

func (f Flavor) String() string {
	if f == Centralized {
		return "centralized"
	}
	return "decentralized"
}

// Well-known device addresses.
const (
	ControlID = msg.DeviceID(1) // memory controller or CPU
	FirstSSD  = msg.DeviceID(2)
)

// Options configures a System. Zero values give a sensible one-SSD,
// one-NIC machine.
type Options struct {
	Flavor Flavor
	Seed   uint64
	// MemoryBytes sizes physical memory (default 128 MiB).
	MemoryBytes uint64
	// Bus is the control-plane timing (DefaultConfig if zero).
	Bus bus.Config
	// Costs is the data-plane timing (DefaultCosts if zero).
	Costs interconnect.Costs
	// CPU configures the centralized kernel (Centralized only).
	CPU centralos.Config
	// SSD configures the (first) smart SSD.
	SSD smartssd.Config
	// NIC configures the (first) smart NIC.
	NIC smartnic.Config
	// Watchdog enables the bus watchdog, and every endpoint — each device
	// and the kernel — heartbeats at watchdog/4.
	Watchdog sim.Duration
	// NoTrace disables tracing entirely (benchmarks).
	NoTrace bool
	// ExtraSSDs and ExtraNICs add more devices at construction.
	ExtraSSDs int
	ExtraNICs int
	// WithAccel adds a compute accelerator device ("accel").
	WithAccel bool
	// FaultPlane, when non-nil, injects faults on the bus and the
	// interconnect (E14). Nil leaves the machine bit-identical to a build
	// without injection.
	FaultPlane *faultinject.Plane
	// Engine, when non-nil, is the event loop the machine runs on instead
	// of a private one. The rack-scale fabric (internal/fabric) uses this
	// to co-schedule N machines on one deterministic clock; nil (the
	// default) keeps the single-machine behavior bit-identical.
	Engine *sim.Engine
	// Tenancy, when non-nil, enables per-tenant isolation everywhere at
	// once: the bus scopes discovery and grants to domains, every
	// device's IOMMU refuses contexts/mappings for foreign apps (even
	// when a compromised kernel programs them), the NICs partition rx
	// per tenant, and KVS stores enforce key ownership and admission
	// budgets. Nil (the default) keeps the machine bit-identical to a
	// tenancy-free build.
	Tenancy *tenant.Registry
}

// System is an assembled machine.
type System struct {
	Opts   Options
	Eng    *sim.Engine
	Rand   *sim.Rand
	Tracer *trace.Tracer
	Mem    *physmem.Memory
	Fabric *interconnect.Fabric
	Bus    *bus.Bus

	Memctrl *memctrl.Controller // Decentralized only
	CPU     *centralos.CPU      // Centralized only
	SSDs    []*smartssd.SSD
	NICs    []*smartnic.NIC
	Accel   *accel.Accel // optional (Options.WithAccel)

	nextID msg.DeviceID
	hb     sim.Duration // every endpoint's heartbeat period: Watchdog/4
}

// SSD returns the first SSD.
func (s *System) SSD() *smartssd.SSD { return s.SSDs[0] }

// NIC returns the first NIC.
func (s *System) NIC() *smartnic.NIC { return s.NICs[0] }

// New builds (but does not boot) a machine.
func New(opts Options) (*System, error) {
	if opts.MemoryBytes == 0 {
		opts.MemoryBytes = 128 << 20
	}
	if opts.Bus.HopLatency == 0 {
		// Timing defaults; feature knobs (watchdog, flow control) survive.
		wd, cw, ib := opts.Bus.WatchdogTimeout, opts.Bus.CreditWindow, opts.Bus.IngressBound
		opts.Bus = bus.DefaultConfig
		opts.Bus.WatchdogTimeout = wd
		opts.Bus.CreditWindow = cw
		opts.Bus.IngressBound = ib
	}
	if opts.Watchdog > 0 {
		opts.Bus.WatchdogTimeout = opts.Watchdog
	}
	if opts.Costs.LinkLatency == 0 {
		opts.Costs = interconnect.DefaultCosts
	}
	eng := opts.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	s := &System{
		Opts: opts,
		Eng:  eng,
		Rand: sim.NewRand(opts.Seed ^ 0x6e6f637075), // "nocpu"
		hb:   opts.Watchdog / 4,
	}
	if !opts.NoTrace {
		s.Tracer = trace.New()
	}
	var err error
	s.Mem, err = physmem.New(opts.MemoryBytes)
	if err != nil {
		return nil, err
	}
	s.Fabric = interconnect.NewFabric(s.Eng, s.Mem, opts.Costs)
	s.Bus = bus.New(s.Eng, opts.Bus, s.Tracer)
	if opts.Tenancy != nil {
		// Before any device attaches, so per-tenant credit windows apply
		// from the first send.
		s.Bus.SetTenancy(opts.Tenancy)
	}
	if opts.FaultPlane != nil {
		s.Bus.SetFaultPlane(opts.FaultPlane)
		s.Fabric.SetFaultPlane(opts.FaultPlane)
	}
	s.nextID = ControlID

	switch opts.Flavor {
	case Decentralized:
		var mcCfg memctrl.Config
		s.chassis(&mcCfg.Device, "memctrl", 1*sim.Microsecond, 100*sim.Microsecond)
		s.Memctrl, err = memctrl.New(s.Eng, s.Bus, s.Fabric, s.Tracer, mcCfg)
		if err != nil {
			return nil, err
		}
		s.mount(s.Memctrl.Device())
	case Centralized:
		// The kernel's lifecycle timing is filled as a device's is; it has
		// no self-test.
		cpuCfg := opts.CPU
		cpuCfg.ID = s.claimID()
		cpuCfg.Name = cmp.Or(cpuCfg.Name, "cpu")
		cpuCfg.HeartbeatEvery = cmp.Or(cpuCfg.HeartbeatEvery, s.hb)
		cpuCfg.ResetDelay = cmp.Or(cpuCfg.ResetDelay, 150*sim.Microsecond)
		s.CPU, err = centralos.New(s.Eng, s.Bus, s.Fabric, s.Tracer, cpuCfg)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown flavor %d", opts.Flavor)
	}

	for i := 0; i <= opts.ExtraSSDs; i++ {
		name := "ssd"
		if i > 0 {
			name = fmt.Sprintf("ssd%d", i)
		}
		if _, err := s.AddSSD(name, opts.SSD); err != nil {
			return nil, err
		}
	}
	for i := 0; i <= opts.ExtraNICs; i++ {
		name := "nic"
		if i > 0 {
			name = fmt.Sprintf("nic%d", i)
		}
		if _, err := s.AddNIC(name, opts.NIC); err != nil {
			return nil, err
		}
	}
	if opts.WithAccel {
		var acfg accel.Config
		s.chassis(&acfg.Device, "accel", 5*sim.Microsecond, 100*sim.Microsecond)
		if s.Accel, err = accel.New(s.Eng, s.Bus, s.Fabric, s.Tracer, acfg); err != nil {
			return nil, err
		}
		s.mount(s.Accel.Device())
	}
	return s, nil
}

// chassis names a device, gives it the next ID and fills what it left
// zero of its lifecycle timing, the one way for every device on the
// machine: a heartbeat at Watchdog/4 (so a watchdog never fails a healthy
// device), and the given self-test and reset times.
func (s *System) chassis(cfg *device.Config, name string, selfTest, reset sim.Duration) {
	cfg.ID, cfg.Name = s.claimID(), name
	cfg.HeartbeatEvery = cmp.Or(cfg.HeartbeatEvery, s.hb)
	cfg.SelfTest = cmp.Or(cfg.SelfTest, selfTest)
	cfg.ResetDelay = cmp.Or(cfg.ResetDelay, reset)
}

// mount connects a device's translation unit to the machine: the kernel,
// if there is one, gets its MMIO handle, and with tenancy on the unit
// refuses contexts and mappings for apps outside the device's tenant,
// whoever asks — including the head node. This is the decentralized half
// of the E20 argument.
func (s *System) mount(d *device.Device) {
	if s.CPU != nil {
		s.CPU.AttachDeviceIOMMU(d.ID(), d.IOMMU())
	}
	if s.Opts.Tenancy != nil {
		d.IOMMU().SetDomainCheck(tenant.DomainCheck[iommu.PASID](s.Opts.Tenancy, s.Eng, d.ID()))
	}
}

// MustNew is New for static configuration.
func MustNew(opts Options) *System {
	s, err := New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *System) claimID() msg.DeviceID {
	id := s.nextID
	s.nextID++
	return id
}

// AddSSD attaches another smart SSD (before Boot).
func (s *System) AddSSD(name string, cfg smartssd.Config) (*smartssd.SSD, error) {
	s.chassis(&cfg.Device, name, 5*sim.Microsecond, 200*sim.Microsecond)
	ssd, err := smartssd.New(s.Eng, s.Bus, s.Fabric, s.Tracer, cfg)
	if err != nil {
		return nil, err
	}
	s.mount(ssd.Device())
	s.SSDs = append(s.SSDs, ssd)
	return ssd, nil
}

// AddNIC attaches another smart NIC (before Boot).
func (s *System) AddNIC(name string, cfg smartnic.Config) (*smartnic.NIC, error) {
	s.chassis(&cfg.Device, name, 5*sim.Microsecond, 100*sim.Microsecond)
	cfg.Tenancy = s.Opts.Tenancy
	nic, err := smartnic.New(s.Eng, s.Bus, s.Fabric, s.Tracer, cfg)
	if err != nil {
		return nil, err
	}
	s.mount(nic.Device())
	s.NICs = append(s.NICs, nic)
	return nic, nil
}

// Boot powers every device on and runs the simulation until all SSD
// volumes are mounted.
func (s *System) Boot() error {
	if s.Memctrl != nil {
		s.Memctrl.Start()
	}
	if s.CPU != nil {
		s.CPU.Start()
	}
	if s.Accel != nil {
		s.Accel.Start()
	}
	for _, d := range s.SSDs {
		d.Start()
	}
	for _, n := range s.NICs {
		n.Start()
	}
	deadline := s.Eng.Now().Add(sim.Second)
	for s.Eng.Now() < deadline {
		ready := true
		for _, d := range s.SSDs {
			if !d.Ready() {
				ready = false
			}
		}
		if ready {
			return nil
		}
		s.advance(100 * sim.Microsecond)
	}
	return fmt.Errorf("core: boot timed out; SSD volume never became ready")
}

// Kill fails every device the machine has, as a crash of the whole machine
// does: its NICs, its SSDs, the memory controller or the kernel, and the
// accelerator. The bus watchdog notices as it would any failure.
func (s *System) Kill() {
	for _, n := range s.NICs {
		n.Device().Kill()
	}
	for _, d := range s.SSDs {
		d.Kill()
	}
	if s.Memctrl != nil {
		s.Memctrl.Device().Kill()
	}
	if s.CPU != nil {
		s.CPU.Kill()
	}
	if s.Accel != nil {
		s.Accel.Device().Kill()
	}
}

// advance progresses virtual time even when recurring events (heartbeats)
// keep the queue non-empty.
func (s *System) advance(d sim.Duration) {
	s.Eng.RunFor(d)
}

// CreateFile synchronously creates and fills a file on the first SSD
// (setup for workloads, after Boot). On a machine with a CPU it also
// mounts the file in the kernel's registry, so a centralized open finds
// it.
func (s *System) CreateFile(name string, contents []byte) error {
	var ferr error
	done := false
	s.SSD().FS().Create(name, func(f *smartssd.File, err error) {
		if err != nil {
			ferr, done = err, true
			return
		}
		if len(contents) == 0 {
			done = true
			return
		}
		f.WriteAt(0, contents, func(err error) { ferr, done = err, true })
	})
	deadline := s.Eng.Now().Add(sim.Second)
	for !done && s.Eng.Now() < deadline {
		s.advance(100 * sim.Microsecond)
	}
	if !done {
		return fmt.Errorf("core: CreateFile(%q) did not complete", name)
	}
	if ferr == nil && s.CPU != nil {
		s.CPU.RegisterFile(name, s.SSD().Device().ID())
	}
	return ferr
}

// KVSOptions configures a KVS instance on a System.
type KVSOptions struct {
	App  msg.AppID
	File string
	// Mediated selects the kernel-mediated data path (Centralized only).
	Mediated bool
	// QueueEntries sizes the virtqueue (default 64).
	QueueEntries uint16
	// InflightBound caps the store's admitted-but-unreplied requests
	// (kvs.Config.InflightBound; 0 = unbounded).
	InflightBound int
	// CacheEntries enables the NIC-local value cache (E11; 0 = off).
	CacheEntries int
}

// NewKVS builds a KVS store wired for this system's flavor and loads it
// onto the NIC. Wait for readiness with WaitReady.
func (s *System) NewKVS(o KVSOptions) *kvs.Store {
	cfg := kvs.Config{
		App:           o.App,
		FileName:      o.File,
		QueueEntries:  o.QueueEntries,
		InflightBound: o.InflightBound,
		CacheEntries:  o.CacheEntries,
		Tenancy:       s.Opts.Tenancy,
		Control:       ControlID,
	}
	switch {
	case s.CPU != nil && o.Mediated:
		cfg.Mode = kvs.ModeCentralMediated
	case s.CPU != nil:
		cfg.Mode = kvs.ModeCentralDirect
	}
	store := kvs.New(cfg)
	s.NIC().AddApp(store)
	return store
}

// WaitReady advances the simulation until the store is serving.
func (s *System) WaitReady(store *kvs.Store) error {
	deadline := s.Eng.Now().Add(sim.Second)
	for !store.Ready() && s.Eng.Now() < deadline {
		s.advance(100 * sim.Microsecond)
	}
	if !store.Ready() {
		return fmt.Errorf("core: KVS app %d never became ready", store.AppID())
	}
	return nil
}
