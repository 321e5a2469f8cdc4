package iommu

import "nocpu/internal/physmem"

// PageGeometry is what one mapping of a page size covers: its bytes of
// virtual address space and the contiguous base frames behind them.
// Everything that steps through a region a mapping at a time — the range
// routines below, the bus's page counts, the memory controller's
// allocation units — takes its stride from here.
func PageGeometry(huge bool) (bytes uint64, frames int) {
	lf := leafFor(huge)
	return lf.size, int(lf.size / physmem.PageSize)
}

// MapRange installs one mapping per frame at consecutive addresses from
// va — 4 KiB pages, or 2 MiB runs when huge — creating the PASID's
// context on first use; perm 0 means read+write. Frames arrive as the
// caller holds them: wire-form uint64s from a memctrl region (the bus and
// the baseline kernel), or physmem.Frames. It installs all of them or none: on a refusal it takes
// out the mappings this call put in — never one that was there before,
// which is what "already mapped" reports — and returns the refusal. A
// context it created stays; an empty one translates nothing.
func MapRange[F ~uint64](u *IOMMU, p PASID, va VirtAddr, frames []F, perm Perm, huge bool) error {
	if !u.HasContext(p) {
		if err := u.CreateContext(p); err != nil {
			return err
		}
	}
	if perm == 0 {
		perm = PermRW
	}
	lf := leafFor(huge)
	for i, f := range frames {
		if err := u.install(p, va+VirtAddr(uint64(i)*lf.size), physmem.Frame(f), perm, lf); err != nil {
			u.UnmapRange(p, va, i, huge)
			return err
		}
	}
	return nil
}

// UnmapRange removes n consecutive mappings of one page size from va on
// and reports how many were there to remove (each is one PTE cleared, the
// unit the bus charges IOMMU programming time in). A table the range
// leaves empty is given back: of the pages that share a table of leaves
// (span bytes of address space), the last in the range asks for the check.
func (u *IOMMU) UnmapRange(p PASID, va VirtAddr, n int, huge bool) int {
	lf := leafFor(huge)
	span := lf.size << bitsPerLvl
	cleared := 0
	for i := 0; i < n; i++ {
		end := uint64(va) + uint64(i+1)*lf.size
		if u.remove(p, VirtAddr(end-lf.size), lf, i == n-1 || end%span == 0) == nil {
			cleared++
		}
	}
	return cleared
}
