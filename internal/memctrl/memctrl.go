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
	"fmt"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
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

// allocation is one live region. For huge allocations, frames holds the
// base frame of each contiguous 2 MiB run.
type allocation struct {
	owner  msg.DeviceID
	frames []physmem.Frame
	bytes  uint64
	huge   bool
}

// Controller is the memory-controller device.
type Controller struct {
	dev  *device.Device
	mem  *physmem.Memory
	cfg  Config
	proc *sim.Server

	// table maps app -> base VA -> allocation.
	table map[msg.AppID]map[uint64]*allocation
	// appBytes tracks per-app usage for the quota.
	appBytes map[msg.AppID]uint64
	// freed remembers released regions so a retried FreeReq whose first
	// response was lost gets OK instead of "no such region".
	freed map[freeKey]freedRegion

	stats Stats
}

type freeKey struct {
	app msg.AppID
	va  uint64
}

// freedRegion records the outcome of a completed free for idempotent
// replay; it is evicted when the VA is reallocated. reqBytes is the byte
// count the original request carried: a retransmission repeats it
// exactly, while a later, distinct double free (different or unspecified
// size) must still be denied.
type freedRegion struct {
	owner    msg.DeviceID
	reqBytes uint64
	bytes    uint64
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
		dev:      d,
		mem:      fab.Memory(),
		cfg:      cfg,
		proc:     sim.NewServer(eng),
		table:    make(map[msg.AppID]map[uint64]*allocation),
		appBytes: make(map[msg.AppID]uint64),
		freed:    make(map[freeKey]freedRegion),
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
// walking the table, and any request in the processing queue died with the
// engine (requesters retransmit; alloc and free replays are idempotent).
func (c *Controller) onReset() {
	c.appBytes = make(map[msg.AppID]uint64)
	var live uint64
	for app, regions := range c.table {
		for _, a := range regions {
			c.appBytes[app] += a.bytes
			live += a.bytes
		}
	}
	c.stats.BytesLive = live
}

// Device exposes the chassis (Start, state).
func (c *Controller) Device() *device.Device { return c.dev }

// Start powers the controller on.
func (c *Controller) Start() { c.dev.Start() }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// LiveAllocations returns the number of live regions (audits).
func (c *Controller) LiveAllocations() int {
	n := 0
	for _, m := range c.table {
		n += len(m)
	}
	return n
}

func pagesOf(bytes uint64) int {
	return int((bytes + physmem.PageSize - 1) / physmem.PageSize)
}

// request is one AllocReq, FreeReq or AuthReq waiting its turn at the
// table engine; it is the event the processing queue fires, so accepting a
// request allocates the record and nothing else.
type request struct {
	c   *Controller
	env msg.Envelope
}

// accept queues a request behind the table engine (registered for all
// three kinds).
func (c *Controller) accept(env msg.Envelope) {
	c.proc.SubmitEvent(c.cfg.OpCost, &request{c: c, env: env})
}

// Fire answers the request: an authorization to the bus that asked, the
// other two to the device that sent them.
func (r *request) Fire() {
	c, src := r.c, r.env.Src
	switch m := r.env.Msg.(type) {
	case *msg.AllocReq:
		c.dev.Send(src, c.doAlloc(src, m))
	case *msg.FreeReq:
		c.dev.Send(src, c.doFree(src, m))
	case *msg.AuthReq:
		c.dev.Send(msg.BusID, c.doAuth(src, m))
	}
}

// wireFrames renders frames as a response carries them.
func wireFrames(frames []physmem.Frame) []uint64 {
	out := make([]uint64, len(frames))
	for i, f := range frames {
		out[i] = uint64(f)
	}
	return out
}

// overlaps returns the lowest-based region of the app that [va, va+bytes)
// intersects: the lowest, so that which region a refusal names does not
// depend on map iteration order.
func overlaps(regions map[uint64]*allocation, va, bytes uint64) (lowest uint64, hit bool) {
	for base, a := range regions {
		if va < base+a.bytes && base < va+bytes && (!hit || base < lowest) {
			lowest, hit = base, true
		}
	}
	return lowest, hit
}

func (c *Controller) doAlloc(src msg.DeviceID, m *msg.AllocReq) *msg.AllocResp {
	deny := func(reason string) *msg.AllocResp {
		c.stats.Denials++
		return &msg.AllocResp{App: m.App, OK: false, Reason: reason, VA: m.VA}
	}
	if m.App == 0 {
		return deny("invalid app id")
	}
	if m.Bytes == 0 {
		return deny("zero-byte allocation")
	}
	if m.VA%physmem.PageSize != 0 {
		return deny("unaligned virtual address")
	}
	apps := c.table[m.App]
	if apps == nil {
		apps = make(map[uint64]*allocation)
		c.table[m.App] = apps
	}
	// A region is whole units of its page size: 4 KiB pages backed frame
	// by frame (physical contiguity is not required — the IOMMU hides it
	// — and page-wise allocation fragments less), or 2 MiB runs of
	// contiguous, naturally aligned frames.
	unit, per := iommu.PageGeometry(m.Huge)
	units := int((m.Bytes + unit - 1) / unit)
	bytes := uint64(units) * unit
	// Idempotent replay: a retried AllocReq for a region this requester
	// already holds (same extent, same flavor) re-sends the original
	// verdict — the first response was lost in flight, not the request's
	// effect. The frames must be the same ones, or the requester and its
	// IOMMU would disagree about the region's backing.
	if a, ok := apps[m.VA]; ok && a.owner == src && a.huge == m.Huge && a.bytes == bytes {
		return &msg.AllocResp{App: m.App, OK: true, VA: m.VA, Frames: wireFrames(a.frames), Perm: m.Perm, Huge: a.huge}
	}
	// Overlap check against this app's existing regions: first the extent
	// in 4 KiB pages, then — once a huge request's address is known to be
	// aligned — the extent rounded up to whole runs.
	if base, hit := overlaps(apps, m.VA, uint64(pagesOf(m.Bytes))*physmem.PageSize); hit {
		return deny(fmt.Sprintf("overlaps existing region at %#x", base))
	}
	if m.Huge {
		if m.VA%unit != 0 {
			return deny("huge allocation requires 2MiB-aligned virtual address")
		}
		if base, hit := overlaps(apps, m.VA, bytes); hit {
			return deny(fmt.Sprintf("overlaps existing region at %#x", base))
		}
	}
	if q := c.cfg.QuotaPerApp; q > 0 && c.appBytes[m.App]+bytes > q {
		return deny("quota exceeded")
	}
	frames := make([]physmem.Frame, 0, units)
	for i := 0; i < units; i++ {
		f, err := c.mem.AllocFrames(per)
		if err != nil {
			for _, ff := range frames {
				_ = c.mem.FreeFrames(ff, per)
			}
			if m.Huge {
				return deny("out of contiguous physical memory")
			}
			return deny("out of physical memory")
		}
		frames = append(frames, f)
	}
	apps[m.VA] = &allocation{owner: src, frames: frames, bytes: bytes, huge: m.Huge}
	delete(c.freed, freeKey{m.App, m.VA})
	c.appBytes[m.App] += bytes
	c.stats.Allocs++
	c.stats.BytesLive += bytes
	return &msg.AllocResp{App: m.App, OK: true, VA: m.VA, Frames: wireFrames(frames), Perm: m.Perm, Huge: m.Huge}
}

func (c *Controller) doFree(src msg.DeviceID, m *msg.FreeReq) *msg.FreeResp {
	deny := func(reason string) *msg.FreeResp {
		c.stats.Denials++
		return &msg.FreeResp{App: m.App, OK: false, Reason: reason, VA: m.VA}
	}
	a, ok := c.table[m.App][m.VA]
	if !ok {
		// Idempotent replay: the first FreeResp was lost and the requester
		// retransmitted; the region is already gone because the first
		// request took effect.
		if fr, done := c.freed[freeKey{m.App, m.VA}]; done && fr.owner == src && fr.reqBytes == m.Bytes {
			return &msg.FreeResp{App: m.App, OK: true, VA: m.VA, Bytes: fr.bytes}
		}
		return deny("no such region")
	}
	if a.owner != src {
		return deny("not the owner")
	}
	if m.Bytes != 0 && m.Bytes != a.bytes &&
		uint64(pagesOf(m.Bytes))*physmem.PageSize != a.bytes {
		return deny("size mismatch")
	}
	_, per := iommu.PageGeometry(a.huge)
	for _, f := range a.frames {
		if err := c.mem.FreeFrames(f, per); err != nil {
			return deny("frame table corruption: " + err.Error())
		}
	}
	delete(c.table[m.App], m.VA)
	c.appBytes[m.App] -= a.bytes
	c.freed[freeKey{m.App, m.VA}] = freedRegion{owner: src, reqBytes: m.Bytes, bytes: a.bytes}
	c.stats.Frees++
	c.stats.BytesLive -= a.bytes
	return &msg.FreeResp{App: m.App, OK: true, VA: m.VA, Bytes: a.bytes}
}

func (c *Controller) doAuth(src msg.DeviceID, m *msg.AuthReq) *msg.AuthResp {
	deny := func(reason string) *msg.AuthResp {
		c.stats.AuthsDenied++
		return &msg.AuthResp{App: m.App, OK: false, Reason: reason, VA: m.VA, Nonce: m.Nonce}
	}
	// Authorization queries come only from the bus.
	if src != msg.BusID {
		return deny("auth requests accepted only from the bus")
	}
	if m.Bytes == 0 || m.VA%physmem.PageSize != 0 {
		return deny("malformed range")
	}
	// Find the allocation containing [VA, VA+Bytes). An app's regions
	// never overlap, so at most one does, whatever the iteration order.
	var a *allocation
	var base uint64
	for b, r := range c.table[m.App] {
		if m.VA >= b && m.VA+m.Bytes <= b+r.bytes {
			base, a = b, r
			break
		}
	}
	if a == nil {
		return deny("range not allocated to app")
	}
	unit, _ := iommu.PageGeometry(a.huge)
	// Huge regions are granted in whole 2 MiB runs only.
	if a.huge && ((m.VA-base)%unit != 0 || m.Bytes%unit != 0) {
		return deny("huge regions grant in whole 2MiB runs")
	}
	first := int((m.VA - base) / unit)
	n := int((m.Bytes + unit - 1) / unit)
	c.stats.AuthsOK++
	return &msg.AuthResp{App: m.App, OK: true, VA: m.VA, Frames: wireFrames(a.frames[first : first+n]), Perm: m.Perm, Nonce: m.Nonce, Huge: a.huge}
}
