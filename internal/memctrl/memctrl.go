// Package memctrl implements the discrete memory-controller device.
//
// §2.4 of "The Last CPU" calls for "a discrete memory controller ...
// separate from the CPU package" (in the spirit of Intel's Memory
// Controller Hub or IBM's MXT). It is the resource controller for
// physical memory: it owns allocation policy, keeps per-application
// allocation tables, and authorizes every mapping and grant — while the
// system bus retains the mechanism (actually programming IOMMUs). The
// controller never touches an IOMMU itself, per §2.2: "the resource
// controller cannot be allowed to access the IOMMU of another device
// directly".
package memctrl

import (
	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
)

// Config tunes the controller.
type Config struct {
	Device device.Config
	// OpCost is the controller's table-update time per request.
	OpCost sim.Duration
	// QuotaPerApp caps bytes allocated to one application; 0 = unlimited.
	QuotaPerApp uint64
}

// DefaultOpCost models a small hardware table engine.
const DefaultOpCost = 300 * sim.Nanosecond

// Stats counts controller activity.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	AuthsOK     uint64
	AuthsDenied uint64
	Denials     uint64
	BytesLive   uint64
}

// Controller is the memory-controller device.
type Controller struct {
	dev     *device.Device
	cfg     Config
	proc    *sim.Server
	regions *Regions
	// reqs recycles the request records: only the processing queue holds
	// one, and it is dead once Fire has read it.
	reqs sim.Free[request]
}

// New builds and registers the controller on the bus. The device config's
// Role is forced to RoleMemoryController.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*Controller, error) {
	cfg.Device.Role = msg.RoleMemoryController
	if cfg.OpCost == 0 {
		cfg.OpCost = DefaultOpCost
	}
	d, err := device.New(eng, b, fab, tr, cfg.Device)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		dev:     d,
		cfg:     cfg,
		proc:    sim.NewServer(eng),
		regions: NewRegions(fab.Memory(), cfg.QuotaPerApp),
	}
	d.Handle(msg.KindAllocReq, c.accept)
	d.Handle(msg.KindFreeReq, c.accept)
	d.Handle(msg.KindAuthReq, c.accept)
	d.OnReset = c.onReset
	return c, nil
}

// onReset recovers from a controller crash. The allocation table and the
// free-replay log live in the controller's persistent table memory (§2.4's
// discrete controller keeps its state with the DRAM it manages, not with
// any host) — losing them would leak every live frame forever, since no
// other component knows the frame lists. What a crash does destroy is the
// volatile derived state: the per-app accounting is rebuilt here by
// walking the table. A request still in the processing queue died with
// the engine: it was stamped with the incarnation that accepted it, and
// request.Fire drops it (requesters retransmit; alloc and free replays
// are idempotent).
func (c *Controller) onReset() { c.regions.recount() }

// Device exposes the chassis (Start, state).
func (c *Controller) Device() *device.Device { return c.dev }

// Start powers the controller on.
func (c *Controller) Start() { c.dev.Start() }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.regions.stats }

// LiveAllocations returns the number of live regions (audits).
func (c *Controller) LiveAllocations() int { return c.regions.live() }

// request is one AllocReq, FreeReq or AuthReq waiting its turn at the
// table engine; it is the event the processing queue fires, and comes off
// the controller's free list, so accepting a request allocates nothing.
type request struct {
	c   *Controller
	env msg.Envelope
	// inc is the controller's incarnation when it accepted the request.
	inc uint32
}

// accept queues a request behind the table engine (registered for all
// three kinds).
func (c *Controller) accept(env msg.Envelope) {
	r := c.reqs.Get()
	r.c, r.env, r.inc = c, env, c.dev.Incarnation()
	c.proc.Submit(c.cfg.OpCost, r)
}

// Fire answers the request: an authorization to the bus that asked, the
// other two to the device that sent them. A request whose controller was
// killed since it was accepted is not answered, whether the controller is
// still dead or already revived.
func (r *request) Fire() {
	c, env, inc := r.c, r.env, r.inc
	c.reqs.Put(r)
	if c.dev.State() != device.StateAlive || c.dev.Incarnation() != inc {
		return
	}
	src := env.Src
	switch m := env.Msg.(type) {
	case *msg.AllocReq:
		resp, _ := c.regions.Alloc(src, m)
		c.dev.Send(src, resp)
	case *msg.FreeReq:
		c.dev.Send(src, c.regions.Free(src, m))
	case *msg.AuthReq:
		c.dev.Send(msg.BusID, c.regions.authorize(src, m))
	}
}
