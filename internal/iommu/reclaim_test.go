package iommu

import (
	"testing"

	"nocpu/internal/physmem"
)

// linked counts the tables the IOMMU's contexts are built of. The spares
// are frames it owns besides: a test that conserves frames counts both.
func linked(u *IOMMU) int {
	n := 0
	for _, c := range u.ctx {
		n += len(c.tables)
	}
	return n
}

// Unmapping the last page of a table gives back exactly the tables the
// install took, whatever the page size: the context is down to its root,
// which is empty again, and up to levels-1 of the tables wait as spares
// while the rest return to the allocator.
func TestUnmapGivesTablesBack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		huge   bool
		tables int
	}{{"4k", false, 3}, {"huge", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			u, mem := hugeRig(t)
			step, _ := PageGeometry(tc.huge)
			run := allocHugeRun(t, mem)
			before := mem.FreeFramesCount()
			for _, p := range []PASID{1, 2} {
				mustCreate(t, u, p)
				if err := MapRange(u, p, VirtAddr(step), []physmem.Frame{run}, PermRW, tc.huge); err != nil {
					t.Fatal(err)
				}
			}
			if got := int(before - mem.FreeFramesCount()); got != 2*(1+tc.tables) {
				t.Fatalf("two contexts with one mapping took %d frames, want %d", got, 2*(1+tc.tables))
			}
			for _, p := range []PASID{1, 2} {
				if n := u.UnmapRange(p, VirtAddr(step), 1, tc.huge); n != 1 {
					t.Fatalf("pasid %d: unmapped %d pages", p, n)
				}
				if got := len(u.ctx[p].tables); got != 1 {
					t.Errorf("pasid %d keeps %d tables after its last unmap, want the root alone", p, got)
				}
				if !mem.FrameIsZero(physmem.FrameOf(u.ctx[p].root)) {
					t.Errorf("pasid %d: the root still points at a table that was given back", p)
				}
			}
			spare := min(2*tc.tables, levels-1)
			if len(u.spare) != spare {
				t.Errorf("%d spare tables, want %d", len(u.spare), spare)
			}
			if got := int(before - mem.FreeFramesCount()); got != 2+spare {
				t.Errorf("%d frames still held, want two roots and %d spares", got, spare)
			}
			for _, f := range u.spare {
				if !mem.FrameIsZero(f) {
					t.Errorf("spare table %d is not all zero", f)
				}
			}
		})
	}
}

// A table with an entry left stays, and what it maps still translates;
// UnmapRange looks at each table its range touched once, at the last page
// it has there, whether or not that page was mapped.
func TestUnmapKeepsTablesInUse(t *testing.T) {
	u, mem := hugeRig(t)
	mustCreate(t, u, 1)
	data := mustAlloc(t, mem, 32)
	frames := make([]physmem.Frame, 16)
	for i := range frames {
		frames[i] = data + physmem.Frame(i)
	}
	// Sixteen pages across the boundary of two leaf tables, and a neighbour
	// further into the second.
	va := VirtAddr(HugePageSize - 8*physmem.PageSize)
	neighbour := VirtAddr(HugePageSize + 20*physmem.PageSize)
	if err := MapRange(u, 1, va, frames, PermRW, false); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(1, neighbour, data+20, PermRW); err != nil {
		t.Fatal(err)
	}
	tables := len(u.ctx[1].tables) // root, two interior, two leaves
	if tables != 5 {
		t.Fatalf("fixture holds %d tables, want 5", tables)
	}
	if err := u.Unmap(1, va); err != nil {
		t.Fatal(err)
	}
	if len(u.ctx[1].tables) != tables {
		t.Fatal("a leaf with seven entries left was given back")
	}
	// The first page is gone already: the range still clears the other
	// fifteen, frees the first leaf and keeps the neighbour's.
	if n := u.UnmapRange(1, va, 16, false); n != 15 {
		t.Fatalf("UnmapRange cleared %d pages, want 15", n)
	}
	if got := len(u.ctx[1].tables); got != tables-1 {
		t.Errorf("%d tables after the range went, want %d (one leaf freed, one kept)", got, tables-1)
	}
	if pa, _, err := u.Translate(1, neighbour+8, AccessRead); err != nil || pa != (data+20).Addr()+8 {
		t.Errorf("neighbour in the kept leaf: pa %#x, err %v", pa, err)
	}
	// A range whose last page in a table was never mapped frees it too.
	if err := MapRange(u, 1, va, frames[:4], PermRW, false); err != nil {
		t.Fatal(err)
	}
	if n := u.UnmapRange(1, va, 8, false); n != 4 || len(u.ctx[1].tables) != tables-1 {
		t.Errorf("cleared %d pages and kept %d tables, want 4 and %d", n, len(u.ctx[1].tables), tables-1)
	}
}

// A refused MapRange gives back the tables it added on the way, and a walk
// that runs out of frames half way does too: the contexts hold the tables
// they held before, and every other frame is free or a spare.
func TestRefusedMapLeavesNoTables(t *testing.T) {
	u, mem := hugeRig(t)
	mustCreate(t, u, 1)
	data := mustAlloc(t, mem, 4)
	taken := VirtAddr(HugePageSize)
	if err := u.Map(1, taken, data, PermRW); err != nil {
		t.Fatal(err)
	}
	free, held := mem.FreeFramesCount(), linked(u)
	// Two pages in a leaf of their own, then the one that is taken.
	frames := []physmem.Frame{data + 1, data + 2, data + 3}
	if err := MapRange(u, 1, taken-2*physmem.PageSize, frames, PermRW, false); err == nil {
		t.Fatal("MapRange over a mapped page accepted")
	}
	if linked(u) != held || mem.FreeFramesCount()+uint64(len(u.spare)) != free {
		t.Errorf("after the refusal: %d tables linked, %d spare, %d frames free; before: %d, 0, %d",
			linked(u), len(u.spare), mem.FreeFramesCount(), held, free)
	}
	if f, _, ok := u.Lookup(1, taken); !ok || f != data {
		t.Error("the mapping that was there before is gone")
	}

	// Out of frames at the leaf: the two interior tables go back.
	small := physmem.MustNew(4 * physmem.PageSize)
	v := New("small", small, DefaultConfig)
	mustCreate(t, v, 1)
	page := mustAlloc(t, small, 1)
	if err := v.Map(1, 0x4000_0000, page, PermRW); err == nil {
		t.Fatal("a three-table install fitted in two frames")
	}
	if linked(v) != 1 || len(v.spare) != 2 || small.FreeFramesCount() != 0 || !small.FrameIsZero(physmem.FrameOf(v.ctx[1].root)) {
		t.Errorf("after the failed install: %d tables linked, %d spare, %d free; want the empty root, 2, 0", linked(v), len(v.spare), small.FreeFramesCount())
	}
	if err := small.FreeFrames(page, 1); err != nil {
		t.Fatal(err)
	}
	if err := v.Map(1, 0x4000_0000, 0, PermRW); err != nil {
		t.Errorf("install with two spares and one free frame: %v", err)
	}
}

// When the last context of an IOMMU goes, so do its spares: the allocator
// is where it was before the first context was created.
func TestDestroyReturnsSpares(t *testing.T) {
	u, mem := hugeRig(t)
	data := mustAlloc(t, mem, 1)
	free := mem.FreeFramesCount()
	for _, p := range []PASID{1, 2} {
		mustCreate(t, u, p)
		if err := u.Map(p, 0x4000_0000, data, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Unmap(1, 0x4000_0000); err != nil {
		t.Fatal(err)
	}
	if len(u.spare) != levels-1 {
		t.Fatalf("%d spares, want %d", len(u.spare), levels-1)
	}
	if err := u.DestroyContext(1); err != nil {
		t.Fatal(err)
	}
	if len(u.spare) != levels-1 {
		t.Error("spares freed while a context is still live")
	}
	if err := u.DestroyContext(2); err != nil {
		t.Fatal(err)
	}
	if len(u.spare) != 0 || mem.FreeFramesCount() != free {
		t.Errorf("%d spares and %d free frames after the last context went, want 0 and %d", len(u.spare), mem.FreeFramesCount(), free)
	}
}
