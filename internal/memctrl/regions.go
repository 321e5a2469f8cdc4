package memctrl

import (
	"fmt"

	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
)

// Regions is the region table and its rules: validation, overlap, quota,
// idempotent replay of a retried alloc or free, and grant authorization.
// It has no placement. The controller device runs one behind its table
// engine and the centralized baseline's kernel one behind its syscall
// trap, so the two machines differ only in who coordinates and what that
// costs. Only Free touches an IOMMU, and only the ones its caller names.
type Regions struct {
	mem   *physmem.Memory
	quota uint64 // bytes one app may hold; 0 = unlimited

	// table maps app -> base VA -> allocation.
	table map[msg.AppID]map[uint64]allocation
	// appBytes tracks per-app usage for the quota.
	appBytes map[msg.AppID]uint64
	// freed remembers released regions so a retried FreeReq whose first
	// response was lost gets OK instead of "no such region".
	freed map[freeKey]freedRegion

	stats Stats
}

// allocation is one live region. For huge allocations, frames holds the
// base frame of each contiguous 2 MiB run. frames is in wire form and is
// lent to every answer about the region (AllocResp, AuthResp): it is never
// written after Alloc builds it, nor reused after Free, and its holders
// only read it. A grant's sub-range is capped, so an append reallocates.
type allocation struct {
	owner  msg.DeviceID
	frames []uint64
	bytes  uint64
	huge   bool
}

type freeKey struct {
	app msg.AppID
	va  uint64
}

// freedRegion is a completed free kept for replay until its VA is reused.
// reqBytes is the size the request carried: a retransmission repeats it,
// while a distinct double free (another or no size) is still denied.
type freedRegion struct {
	owner    msg.DeviceID
	reqBytes uint64
	bytes    uint64
}

// NewRegions returns an empty table allocating from mem.
func NewRegions(mem *physmem.Memory, quota uint64) *Regions {
	return &Regions{
		mem:      mem,
		quota:    quota,
		table:    make(map[msg.AppID]map[uint64]allocation),
		appBytes: make(map[msg.AppID]uint64),
		freed:    make(map[freeKey]freedRegion),
	}
}

// Pages rounds a byte count up to whole 4 KiB pages.
func Pages(bytes uint64) int {
	return int((bytes + physmem.PageSize - 1) / physmem.PageSize)
}

// live returns the number of live regions.
func (r *Regions) live() int {
	n := 0
	for _, m := range r.table {
		n += len(m)
	}
	return n
}

// Frames returns how many frames (2 MiB runs if huge) back the app's
// region at va; 0 if there is none.
func (r *Regions) Frames(app msg.AppID, va uint64) int {
	if a, ok := r.table[app][va]; ok {
		return len(a.frames)
	}
	return 0
}

// recount rebuilds the per-app accounting and BytesLive from the table.
func (r *Regions) recount() {
	r.appBytes = make(map[msg.AppID]uint64)
	r.stats.BytesLive = 0
	for app, regions := range r.table {
		for _, a := range regions {
			r.appBytes[app] += a.bytes
			r.stats.BytesLive += a.bytes
		}
	}
}

// overlaps returns the lowest-based region of the app that [va, va+bytes)
// intersects: the lowest, so that which region a refusal names does not
// depend on map iteration order.
func overlaps(regions map[uint64]allocation, va, bytes uint64) (lowest uint64, hit bool) {
	for base, a := range regions {
		if va < base+a.bytes && base < va+bytes && (!hit || base < lowest) {
			lowest, hit = base, true
		}
	}
	return lowest, hit
}

// Alloc answers an AllocReq from src. fresh reports a region this call
// created, which a placement that maps regions must now map; a replay
// was mapped when it was fresh.
func (r *Regions) Alloc(src msg.DeviceID, m *msg.AllocReq) (resp *msg.AllocResp, fresh bool) {
	deny := func(reason string) (*msg.AllocResp, bool) {
		r.stats.Denials++
		return &msg.AllocResp{App: m.App, OK: false, Reason: reason, VA: m.VA}, false
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
	apps := r.table[m.App]
	if apps == nil {
		apps = make(map[uint64]allocation)
		r.table[m.App] = apps
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
		return &msg.AllocResp{App: m.App, OK: true, VA: m.VA, Frames: a.frames, Perm: m.Perm, Huge: a.huge}, false
	}
	// Overlap check against this app's existing regions: first the extent
	// in 4 KiB pages, then — once a huge request's address is known to be
	// aligned — the extent rounded up to whole runs.
	if base, hit := overlaps(apps, m.VA, uint64(Pages(m.Bytes))*physmem.PageSize); hit {
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
	if r.quota > 0 && r.appBytes[m.App]+bytes > r.quota {
		return deny("quota exceeded")
	}
	frames := make([]uint64, 0, units)
	for i := 0; i < units; i++ {
		f, err := r.mem.AllocFrames(per)
		if err != nil {
			for _, ff := range frames {
				_ = r.mem.FreeFrames(physmem.Frame(ff), per)
			}
			if m.Huge {
				return deny("out of contiguous physical memory")
			}
			return deny("out of physical memory")
		}
		frames = append(frames, uint64(f))
	}
	apps[m.VA] = allocation{owner: src, frames: frames, bytes: bytes, huge: m.Huge}
	delete(r.freed, freeKey{m.App, m.VA})
	r.appBytes[m.App] += bytes
	r.stats.Allocs++
	r.stats.BytesLive += bytes
	return &msg.AllocResp{App: m.App, OK: true, VA: m.VA, Frames: frames, Perm: m.Perm, Huge: m.Huge}, true
}

// Free answers a FreeReq from src. Once every check has passed, the
// region is unmapped from mapped, the units its caller installed it in,
// and only then are its frames given back.
func (r *Regions) Free(src msg.DeviceID, m *msg.FreeReq, mapped ...*iommu.IOMMU) *msg.FreeResp {
	deny := func(reason string) *msg.FreeResp {
		r.stats.Denials++
		return &msg.FreeResp{App: m.App, OK: false, Reason: reason, VA: m.VA}
	}
	a, ok := r.table[m.App][m.VA]
	if !ok {
		// Idempotent replay: the first FreeResp was lost and the requester
		// retransmitted; the region is already gone because the first
		// request took effect.
		if fr, done := r.freed[freeKey{m.App, m.VA}]; done && fr.owner == src && fr.reqBytes == m.Bytes {
			return &msg.FreeResp{App: m.App, OK: true, VA: m.VA, Bytes: fr.bytes}
		}
		return deny("no such region")
	}
	if a.owner != src {
		return deny("not the owner")
	}
	if m.Bytes != 0 && m.Bytes != a.bytes &&
		uint64(Pages(m.Bytes))*physmem.PageSize != a.bytes {
		return deny("size mismatch")
	}
	for _, u := range mapped {
		u.UnmapRange(iommu.PASID(m.App), iommu.VirtAddr(m.VA), len(a.frames), a.huge)
	}
	_, per := iommu.PageGeometry(a.huge)
	for _, f := range a.frames {
		if err := r.mem.FreeFrames(physmem.Frame(f), per); err != nil {
			return deny("frame table corruption: " + err.Error())
		}
	}
	delete(r.table[m.App], m.VA)
	r.appBytes[m.App] -= a.bytes
	r.freed[freeKey{m.App, m.VA}] = freedRegion{owner: src, reqBytes: m.Bytes, bytes: a.bytes}
	r.stats.Frees++
	r.stats.BytesLive -= a.bytes
	return &msg.FreeResp{App: m.App, OK: true, VA: m.VA, Bytes: a.bytes}
}

// authorize answers the bus's AuthReq for a grant: the frames behind a
// range of one of the app's regions, lent as the region's own slice capped
// to the range.
func (r *Regions) authorize(src msg.DeviceID, m *msg.AuthReq) *msg.AuthResp {
	deny := func(reason string) *msg.AuthResp {
		r.stats.AuthsDenied++
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
	var a allocation
	var base uint64
	found := false
	for b, reg := range r.table[m.App] {
		if m.VA >= b && m.VA+m.Bytes <= b+reg.bytes {
			base, a, found = b, reg, true
			break
		}
	}
	if !found {
		return deny("range not allocated to app")
	}
	unit, _ := iommu.PageGeometry(a.huge)
	// Huge regions are granted in whole 2 MiB runs only.
	if a.huge && ((m.VA-base)%unit != 0 || m.Bytes%unit != 0) {
		return deny("huge regions grant in whole 2MiB runs")
	}
	first := int((m.VA - base) / unit)
	n := int((m.Bytes + unit - 1) / unit)
	r.stats.AuthsOK++
	return &msg.AuthResp{App: m.App, OK: true, VA: m.VA, Frames: a.frames[first : first+n : first+n], Perm: m.Perm, Nonce: m.Nonce, Huge: a.huge}
}
