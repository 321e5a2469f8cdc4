package smartnic

import (
	"fmt"

	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
)

// Demand paging (§4 "Error Handling"): "Page faults are caused when the
// translation hardware (MMU or IOMMU) fails to find a mapping ... In a
// system with no CPU, the IOMMU would deliver any faults to its attached
// device. Each device would be responsible to handle its own faults."
//
// The NIC implements exactly that: an application reserves a lazy region
// (virtual address space only), and the first DMA touching each chunk
// faults; the NIC's fault handler resolves it by requesting the chunk
// from the memory controller (the ordinary §3 alloc flow — the bus
// programs the IOMMU) and retrying the DMA. Untouched chunks never
// consume physical memory.

// lazyRegion is a reserved-but-unbacked span of an app's address space.
type lazyRegion struct {
	base  uint64
	bytes uint64
	chunk uint64 // allocation granule in bytes (multiple of page size)
}

// ReserveLazy reserves bytes of address space backed on demand: no
// physical memory is allocated until a DMA touches each chunk.
// chunkPages sets the demand-allocation granule (0 = one page).
func (rt *Runtime) ReserveLazy(memctrl msg.DeviceID, bytes uint64, chunkPages int) uint64 {
	if chunkPages <= 0 {
		chunkPages = 1
	}
	va := rt.reserveVA(bytes)
	rt.lazy = append(rt.lazy, lazyRegion{
		base:  va,
		bytes: bytes,
		chunk: uint64(chunkPages) * physmem.PageSize,
	})
	rt.lazyMemctrl = memctrl
	rt.nic.ensureFaultHandler()
	return va
}

// resolveFault handles a not-present fault for this app. Exactly one of
// retry/fail is eventually called.
func (rt *Runtime) resolveFault(f *iommu.Fault, retry func(), fail func(error)) {
	addr := uint64(f.Addr)
	var reg *lazyRegion
	for i := range rt.lazy {
		r := &rt.lazy[i]
		if addr >= r.base && addr < r.base+r.bytes {
			reg = r
			break
		}
	}
	if reg == nil {
		fail(f)
		return
	}
	// Chunk-align within the region and clamp to its end.
	off := (addr - reg.base) / reg.chunk * reg.chunk
	va := reg.base + off
	n := reg.chunk
	if off+n > reg.bytes {
		n = reg.bytes - off
	}
	outcome := func(err error) {
		if err != nil {
			fail(fmt.Errorf("smartnic: demand alloc at %#x: %w", va, err))
			return
		}
		retry()
	}
	// Coalesce concurrent faults on the same chunk: one alloc, everyone
	// retries when it lands.
	if waiters, inflight := rt.pendingFaults[va]; inflight {
		rt.pendingFaults[va] = append(waiters, outcome)
		return
	}
	rt.pendingFaults[va] = []func(error){outcome}
	rt.alloc(rt.lazyMemctrl, va, n, false, func(_ uint64, err error) {
		waiters := rt.pendingFaults[va]
		delete(rt.pendingFaults, va)
		if err == nil {
			rt.lazyAllocs++
		}
		for _, w := range waiters {
			w(err)
		}
	})
}

// ensureFaultHandler installs the NIC's demand-paging fault handler once.
func (n *NIC) ensureFaultHandler() {
	if n.faultHandlerSet {
		return
	}
	n.faultHandlerSet = true
	n.dev.DMA().SetFaultHandler(func(f *iommu.Fault, retry func(), fail func(error)) {
		if rt, ok := n.rts[msg.AppID(f.PASID)]; ok {
			rt.resolveFault(f, retry, fail)
			return
		}
		fail(f)
	})
}
