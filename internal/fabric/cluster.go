package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"nocpu/internal/core"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/tenant"
)

// Flavor selects the fabric's control architecture.
type Flavor uint8

// Fabric flavors.
const (
	// FlavorDecentralized: every machine routes for itself and membership
	// is reactive detection plus gossip — the paper's position, scaled to
	// a rack.
	FlavorDecentralized Flavor = iota
	// FlavorHead: machine 1 carries a centralos kernel, relays every
	// cross-machine request, and is the membership authority (heartbeats
	// in, RingUpdates out) — the head-node baseline the scaling table
	// contrasts against. The head is a single point of failure by
	// construction.
	FlavorHead
)

func (f Flavor) String() string {
	if f == FlavorHead {
		return "head-node"
	}
	return "decentralized"
}

// DefaultMachineMemory sizes each machine's physical memory. Fabric
// memory is really allocated per machine (physmem), so rack-scale runs
// use a small arena instead of the single-machine 128 MiB default.
const DefaultMachineMemory = 8 << 20

// traceLimit bounds Config.Trace's log; lines past it are counted, not
// kept.
const traceLimit = 1 << 16

// Config assembles a Cluster.
type Config struct {
	N      int
	Flavor Flavor
	Seed   uint64

	// Spares boots this many extra machines (IDs N+1..N+Spares) that
	// start OUTSIDE the consistent-hash ring: full systems, stores and
	// routers, but owning no shard. The fleet reconciler promotes them
	// into the ring to replace dead members or to rotate members through
	// upgrades. 0 (the default) reproduces the fixed-membership fabric
	// exactly.
	Spares int

	// MachineMemory sizes each machine (default DefaultMachineMemory).
	MachineMemory uint64

	// CacheEntries enables each shard store's NIC-local value cache
	// (E11-style; 0 = off). Write-through puts — including replicated
	// applies — keep it coherent, so rack-scale get workloads can be
	// NIC/network-bound instead of flash-bound.
	CacheEntries int

	// Net is the datacenter network model (defaults inside).
	Net NetConfig

	// Leases enables epoch-lease fencing: a machine serves as primary
	// (and may act as the reconcile actor) only while holding a
	// virtual-clock lease countersigned by a majority of the ring
	// membership, refuses clients with StatusFenced otherwise, and
	// failure detection becomes directional (transport suspicion +
	// inbound silence) instead of trusting a one-way send failure.
	// Default off: the zero config keeps every earlier experiment
	// byte-identical. The lease (DefaultLeaseDuration, 2ms) is shorter
	// than the failure timeout (DefaultFailTimeout, 4ms), checked at
	// build time — that inequality is what makes a promoted primary's
	// takeover fence outlive the deposed one's lease.
	Leases bool

	// Trace records a deterministic event log of at most traceLimit
	// lines for the golden determinism test.
	Trace bool

	// Tenancy, when set, is the rack-wide tenant registry shared by
	// every machine (one registry, one engine — still deterministic).
	// Each machine's devices install per-tenant isolation-domain checks
	// and its stores enforce key ownership; nil keeps the legacy
	// untenanted fabric byte-identical.
	Tenancy *tenant.Registry
}

// Machine is one member of the rack: a complete emulated system plus
// its shard store and fabric router.
type Machine struct {
	ID     msg.DeviceID
	Sys    *core.System
	Store  *kvs.Store
	Router *Router

	alive bool
}

// Cluster is N machines on one engine joined by the modeled network.
type Cluster struct {
	Cfg      Config
	Eng      *sim.Engine
	Ring     *Ring
	Machines []*Machine

	net *Network

	trace     []string
	traceLost int
}

// New builds (but does not boot) a cluster on a fresh engine.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("fabric: cluster needs at least one machine, got %d", cfg.N)
	}
	if cfg.MachineMemory == 0 {
		cfg.MachineMemory = DefaultMachineMemory
	}

	c := &Cluster{Cfg: cfg, Eng: sim.NewEngine()}
	// Machines 1..N are the initial ring; N+1..N+Spares boot out of it.
	ids := make([]msg.DeviceID, cfg.N+cfg.Spares)
	for i := range ids {
		ids[i] = msg.DeviceID(i + 1)
	}
	c.Ring = NewRing(ids[:cfg.N], DefaultVnodes)
	c.net = newNetwork(c.Eng, cfg.Net)
	c.net.alive = c.aliveID
	c.net.deliver = c.deliverFrame
	c.net.unreachable = c.notifyUnreachable
	if cfg.Trace {
		c.net.trace = c.tracef
	}

	head := msg.DeviceID(0)
	if cfg.Flavor == FlavorHead {
		head = 1
	}
	for _, id := range ids {
		flavor := core.Decentralized
		if id == head {
			flavor = core.Centralized
		}
		sys, err := core.New(core.Options{
			Flavor:      flavor,
			Seed:        cfg.Seed ^ (uint64(id) << 8) ^ 0xFAB0,
			MemoryBytes: cfg.MachineMemory,
			NoTrace:     true,
			Engine:      c.Eng,
			Tenancy:     cfg.Tenancy,
		})
		if err != nil {
			return nil, fmt.Errorf("fabric: machine %d: %w", id, err)
		}
		m := &Machine{ID: id, Sys: sys}
		c.Machines = append(c.Machines, m)
	}
	return c, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Network exposes the fabric for stats.
func (c *Cluster) Network() *Network { return c.net }

// Boot brings every machine up in ID order on the shared clock: system
// boot, shard file, KVS store, router. Sequential boot is deliberate —
// it is deterministic and it staggers the machines' periodic timers.
func (c *Cluster) Boot() error {
	ids := c.MachineIDs()
	for _, m := range c.Machines {
		if err := m.Sys.Boot(); err != nil {
			return fmt.Errorf("fabric: machine %d boot: %w", m.ID, err)
		}
		if err := m.Sys.CreateFile("shard.dat", nil); err != nil {
			return fmt.Errorf("fabric: machine %d shard file: %w", m.ID, err)
		}
		m.Store = m.Sys.NewKVS(core.KVSOptions{
			App: StoreApp, File: "shard.dat", QueueEntries: 128,
			CacheEntries: c.Cfg.CacheEntries,
		})
		if err := m.Sys.WaitReady(m.Store); err != nil {
			return fmt.Errorf("fabric: machine %d store: %w", m.ID, err)
		}
		head := msg.DeviceID(0)
		if c.Cfg.Flavor == FlavorHead {
			head = 1
		}
		m.Router = newRouter(view{id: m.ID, head: head, ids: ids, net: c.net, eng: c.Eng, store: m.Store, ring: c.Ring}, c.Cfg.Leases)
		m.Sys.NIC().AddApp(m.Router)
		m.alive = true
		c.tracef("m%d up (%s)", m.ID, m.Sys.Opts.Flavor)
	}
	return nil
}

// MachineIDs lists every machine address in ID order, dead or alive.
func (c *Cluster) MachineIDs() []msg.DeviceID {
	out := make([]msg.DeviceID, len(c.Machines))
	for i, m := range c.Machines {
		out[i] = m.ID
	}
	return out
}

// LiveIDs lists the machines the cluster has not killed, in ID order.
func (c *Cluster) LiveIDs() []msg.DeviceID {
	var out []msg.DeviceID
	for _, m := range c.Machines {
		if m.alive {
			out = append(out, m.ID)
		}
	}
	return out
}

// ServingIDs lists the machines a load balancer would steer clients at:
// alive, in their own current ring, and not cordoned. With no spares
// and no reconciler this is exactly LiveIDs.
func (c *Cluster) ServingIDs() []msg.DeviceID {
	var out []msg.DeviceID
	for _, m := range c.Machines {
		if m.alive && m.Router.InRing() && !m.Router.Cordoned() {
			out = append(out, m.ID)
		}
	}
	return out
}

// Machine returns the member with the given address.
func (c *Cluster) Machine(id msg.DeviceID) *Machine {
	if int(id) < 1 || int(id) > len(c.Machines) {
		return nil
	}
	return c.Machines[id-1]
}

// Alive reports whether a machine is still up.
func (c *Cluster) Alive(id msg.DeviceID) bool { return c.aliveID(id) }

func (c *Cluster) aliveID(id msg.DeviceID) bool {
	m := c.Machine(id)
	return m != nil && m.alive
}

// Kill crash-stops a whole machine: its devices die mid-flight, its
// router freezes, and nothing of it ever comes back (machines are
// cattle; the fabric's recovery story is failover, not repair).
func (c *Cluster) Kill(id msg.DeviceID) {
	m := c.Machine(id)
	if m == nil || !m.alive {
		return
	}
	m.alive = false
	m.Router.v.halted = true // every timer and handler bails: crash-stop
	m.Sys.Kill()
	c.tracef("m%d killed", id)
}

// Ingress returns the client edge of one machine's NIC: a network
// target delivering to the fabric router.
func (c *Cluster) Ingress(id msg.DeviceID) func([]byte, func([]byte)) {
	m := c.Machine(id)
	return func(payload []byte, reply func([]byte)) {
		m.Sys.NIC().Deliver(RouterApp, payload, reply)
	}
}

// deliverFrame hands an arriving fabric frame to the destination's
// router through its NIC rx pipeline — peer traffic queues behind (and
// contends with) client traffic, which is what makes a head node a
// measurable bottleneck.
func (c *Cluster) deliverFrame(dst msg.DeviceID, frame []byte) {
	c.Machine(dst).Sys.NIC().DeliverOneWay(RouterApp, frame)
}

func (c *Cluster) notifyUnreachable(src, dst msg.DeviceID) {
	if m := c.Machine(src); m != nil && m.alive {
		m.Router.noteUnreachable(dst)
	}
}

// tracef appends one bounded, deterministic trace line ("<time> m3 ...").
func (c *Cluster) tracef(format string, args ...any) {
	if !c.Cfg.Trace {
		return
	}
	if len(c.trace) >= traceLimit {
		c.traceLost++
		return
	}
	c.trace = append(c.trace, fmt.Sprintf("%v ", c.Eng.Now())+fmt.Sprintf(format, args...))
}

// TraceLog returns the recorded trace (and how many lines overflowed).
func (c *Cluster) TraceLog() ([]string, int) {
	return append([]string(nil), c.trace...), c.traceLost
}

// TraceHash digests the trace; the golden determinism test pins it.
func (c *Cluster) TraceHash() string {
	h := sha256.New()
	for _, line := range c.trace {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// RouterStatsSum aggregates every machine's router counters.
func (c *Cluster) RouterStatsSum() RouterStats {
	var sum RouterStats
	for _, m := range c.Machines {
		s := m.Router.Stats()
		sum.Local += s.Local
		sum.Remote += s.Remote
		sum.HeadRelayed += s.HeadRelayed
		sum.WrongOwner += s.WrongOwner
		sum.Applies += s.Applies
		sum.RepFenced += s.RepFenced
		sum.Resyncs += s.Resyncs
		sum.SoloAcks += s.SoloAcks
		sum.Shed += s.Shed
		sum.ViewChanges += s.ViewChanges
		sum.Timeouts += s.Timeouts
		sum.Reroutes += s.Reroutes
		sum.RingStaged += s.RingStaged
		sum.RingCommits += s.RingCommits
		sum.RingAborts += s.RingAborts
		sum.Xfers += s.Xfers
		sum.Strays += s.Strays
		sum.Cordons += s.Cordons
		sum.Upgrades += s.Upgrades
		sum.LeaseRenews += s.LeaseRenews
		sum.LeaseGrants += s.LeaseGrants
		sum.LeaseRevokes += s.LeaseRevokes
		sum.LeaseFenced += s.LeaseFenced
		sum.LeaseLapses += s.LeaseLapses
		sum.Suspicions += s.Suspicions
		sum.SilenceDeaths += s.SilenceDeaths
	}
	return sum
}

// MaxEpoch returns the highest view epoch any live machine reached.
func (c *Cluster) MaxEpoch() uint32 {
	var max uint32
	for _, m := range c.Machines {
		if m.alive && m.Router.v.epoch > max {
			max = m.Router.v.epoch
		}
	}
	return max
}
