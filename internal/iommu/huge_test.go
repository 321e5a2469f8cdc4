package iommu

import (
	"errors"
	"testing"

	"nocpu/internal/physmem"
)

// hugeRig allocates a memory large enough for huge-page runs.
func hugeRig(t *testing.T) (*IOMMU, *physmem.Memory) {
	t.Helper()
	mem := physmem.MustNew(4 * HugePageSize) // 8 MiB
	return New("huge", mem, DefaultConfig), mem
}

func allocHugeRun(t *testing.T, mem *physmem.Memory) physmem.Frame {
	t.Helper()
	f, err := mem.AllocFrames(HugeFrames)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(f)%uint64(HugeFrames) != 0 {
		t.Fatalf("buddy returned unaligned huge run: frame %d", f)
	}
	return f
}

func TestHugeMapTranslate(t *testing.T) {
	u, mem := hugeRig(t)
	if err := u.CreateContext(1); err != nil {
		t.Fatal(err)
	}
	run := allocHugeRun(t, mem)
	va := VirtAddr(HugePageSize) // 2 MiB, aligned
	if err := u.install(1, va, run, PermRW, &leaf2M); err != nil {
		t.Fatal(err)
	}
	// Translation anywhere in the 2 MiB window works, with a 3-read walk
	// (one level shorter than 4K).
	off := uint64(1234567) % HugePageSize
	pa, reads, err := u.Translate(1, va+VirtAddr(off), AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if pa != physmem.Addr(uint64(run.Addr())+off) {
		t.Fatalf("pa = %#x", pa)
	}
	if reads != 3 {
		t.Fatalf("huge cold walk did %d reads, want 3", reads)
	}
	// Second access to a DIFFERENT 4K page within the huge page: TLB hit.
	_, reads, err = u.Translate(1, va+VirtAddr(5*physmem.PageSize), AccessWrite)
	if err != nil {
		t.Fatal(err)
	}
	if reads != 0 {
		t.Fatalf("huge TLB missed within its window (%d reads)", reads)
	}
	// Lookup agrees.
	fr, perm, ok := u.Lookup(1, va+VirtAddr(HugePageSize/2))
	if !ok || fr != run || perm != PermRW {
		t.Fatalf("Lookup = %v %v %v", fr, perm, ok)
	}
}

func TestHugeMapValidation(t *testing.T) {
	u, mem := hugeRig(t)
	_ = u.CreateContext(1)
	run := allocHugeRun(t, mem)
	if err := u.install(1, VirtAddr(4096), run, PermRW, &leaf2M); err == nil {
		t.Error("unaligned huge va accepted")
	}
	if err := u.install(1, 0, run+1, PermRW, &leaf2M); err == nil {
		t.Error("unaligned huge frame accepted")
	}
	if err := u.install(2, 0, run, PermRW, &leaf2M); err == nil {
		t.Error("unknown pasid accepted")
	}
	if err := u.install(1, 0, run, 0, &leaf2M); err == nil {
		t.Error("empty perms accepted")
	}
	if err := u.install(1, 0, run, AccessRead, &leaf2M); err != nil {
		t.Fatal(err)
	}
	if err := u.install(1, 0, run, AccessRead, &leaf2M); err == nil {
		t.Error("double huge map accepted")
	}
}

func TestHugeAnd4KConflicts(t *testing.T) {
	u, mem := hugeRig(t)
	_ = u.CreateContext(1)
	run := allocHugeRun(t, mem)
	f4k, _ := mem.AllocFrames(1)

	// 4K mapping inside a range, then huge map over it: refused (a table
	// occupies the level-2 slot).
	if err := u.Map(1, VirtAddr(HugePageSize+4096), f4k, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := u.install(1, VirtAddr(HugePageSize), run, PermRW, &leaf2M); err == nil {
		t.Error("huge map over 4K table accepted")
	}
	// Huge mapping, then 4K map inside it: refused.
	if err := u.install(1, 0, run, PermRW, &leaf2M); err != nil {
		t.Fatal(err)
	}
	if err := u.Map(1, VirtAddr(8*physmem.PageSize), f4k, PermRW); err == nil {
		t.Error("4K map under huge mapping accepted")
	}
}

func TestHugeUnmap(t *testing.T) {
	u, mem := hugeRig(t)
	_ = u.CreateContext(1)
	run := allocHugeRun(t, mem)
	if err := u.install(1, 0, run, PermRW, &leaf2M); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Translate(1, 100, AccessRead); err != nil {
		t.Fatal(err)
	}
	if err := u.remove(1, 0, &leaf2M, true); err != nil {
		t.Fatal(err)
	}
	var fault *Fault
	if _, _, err := u.Translate(1, 100, AccessRead); !errors.As(err, &fault) {
		t.Fatalf("stale huge TLB after unmap: %v", err)
	}
	if err := u.remove(1, 0, &leaf2M, true); err == nil {
		t.Error("double huge unmap accepted")
	}
	// Unmapping a 4K page as huge is refused.
	f4k, _ := mem.AllocFrames(1)
	_ = u.Map(1, VirtAddr(HugePageSize), f4k, PermRW)
	if err := u.remove(1, VirtAddr(HugePageSize), &leaf2M, true); err == nil {
		t.Error("huge unmap of 4K table accepted")
	}
}

func TestHugePermissionFaults(t *testing.T) {
	u, mem := hugeRig(t)
	_ = u.CreateContext(1)
	run := allocHugeRun(t, mem)
	if err := u.install(1, 0, run, AccessRead, &leaf2M); err != nil {
		t.Fatal(err)
	}
	var fault *Fault
	if _, _, err := u.Translate(1, 50, AccessWrite); !errors.As(err, &fault) || fault.Reason != FaultPermission {
		t.Fatalf("write to RO huge page: %v", err)
	}
	// Also on the cached path.
	if _, _, err := u.Translate(1, 60, AccessRead); err != nil {
		t.Fatal(err)
	}
	if _, _, err := u.Translate(1, 70, AccessWrite); !errors.As(err, &fault) || fault.Reason != FaultPermission {
		t.Fatalf("cached write to RO huge page: %v", err)
	}
}

func TestHugeReachVsSmallTLB(t *testing.T) {
	// A tiny TLB thrashes on 4K mappings of a large region but holds a
	// single huge entry comfortably.
	mem := physmem.MustNew(8 * HugePageSize)
	small := Config{TLBSets: 4, TLBWays: 1}

	u4k := New("u4k", mem, small)
	_ = u4k.CreateContext(1)
	for i := 0; i < HugeFrames; i++ {
		f, err := mem.AllocFrames(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := u4k.Map(1, VirtAddr(i*physmem.PageSize), f, PermRW); err != nil {
			t.Fatal(err)
		}
	}
	uh := New("uh", mem, small)
	_ = uh.CreateContext(1)
	run := allocHugeRun(t, mem)
	if err := uh.install(1, 0, run, PermRW, &leaf2M); err != nil {
		t.Fatal(err)
	}

	// Sweep 128 scattered pages twice.
	sweep := func(u *IOMMU) uint64 {
		before := u.Stats().WalkReads
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 128; i++ {
				va := VirtAddr((i * 7 % HugeFrames) * physmem.PageSize)
				if _, _, err := u.Translate(1, va, AccessRead); err != nil {
					t.Fatal(err)
				}
			}
		}
		return u.Stats().WalkReads - before
	}
	w4k := sweep(u4k)
	wh := sweep(uh)
	if wh >= w4k/10 {
		t.Fatalf("huge reach ineffective: huge walks %d vs 4K walks %d", wh, w4k)
	}
}

// A 4 KiB unmap of an address a huge mapping covers must not follow the
// huge leaf: its frame holds the application's data, and a word there that
// happens to look like a valid PTE used to be zeroed with a nil error.
func TestUnmapUnderHugeMappingRefused(t *testing.T) {
	u, mem := hugeRig(t)
	if err := u.CreateContext(1); err != nil {
		t.Fatal(err)
	}
	run := allocHugeRun(t, mem)
	if err := u.install(1, 0, run, PermRW, &leaf2M); err != nil {
		t.Fatal(err)
	}
	// Page 8 of the window indexes slot 8 of the "table" a blind walk would
	// read out of the data frame: byte offset 64.
	word := physmem.Addr(uint64(run.Addr()) + 64)
	const planted = 0xdeadbeef0001 // bit 0 set: reads as a valid PTE
	if err := mem.WriteU64(word, planted); err != nil {
		t.Fatal(err)
	}
	if err := u.Unmap(1, VirtAddr(8*physmem.PageSize)); err == nil {
		t.Error("4 KiB unmap under a huge mapping reported success")
	}
	if got, err := mem.ReadU64(word); err != nil || got != planted {
		t.Errorf("application data word = %#x (err %v), want %#x intact", got, err, uint64(planted))
	}
	if pa, _, err := u.Translate(1, VirtAddr(8*physmem.PageSize), AccessRead); err != nil ||
		pa != physmem.Addr(uint64(run.Addr())+8*physmem.PageSize) {
		t.Errorf("huge mapping no longer translates: pa %#x err %v", pa, err)
	}
	if _, _, ok := u.Lookup(1, 0); !ok {
		t.Error("huge mapping gone after the refused unmap")
	}
}

// Both page sizes go through one install walk and one remove walk: a map
// followed by its unmap leaves nothing to look up, allocates exactly the
// interior tables its depth needs (the root is the context's), and the
// unmap of the other size is refused without disturbing the mapping.
func TestMapUnmapBothSizes(t *testing.T) {
	mapAt := func(u *IOMMU, huge bool, va VirtAddr, f physmem.Frame) error {
		if huge {
			return u.install(1, va, f, PermRW, &leaf2M)
		}
		return u.Map(1, va, f, PermRW)
	}
	unmapAt := func(u *IOMMU, huge bool, va VirtAddr) error {
		if huge {
			return u.remove(1, va.HugePage(), &leaf2M, true)
		}
		return u.Unmap(1, va)
	}
	for _, tc := range []struct {
		name      string
		huge      bool
		va        VirtAddr
		tables    int
		walkReads int
	}{
		{"4k", false, VirtAddr(HugePageSize + 3*physmem.PageSize), 3, 4},
		{"huge", true, VirtAddr(HugePageSize), 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u, mem := hugeRig(t)
			if err := u.CreateContext(1); err != nil {
				t.Fatal(err)
			}
			run := allocHugeRun(t, mem)
			before := mem.FreeFramesCount()
			if err := mapAt(u, tc.huge, tc.va, run); err != nil {
				t.Fatal(err)
			}
			if got := int(before - mem.FreeFramesCount()); got != tc.tables {
				t.Errorf("install allocated %d table frames, want %d", got, tc.tables)
			}
			if _, reads, err := u.Translate(1, tc.va, AccessRead); err != nil || reads != tc.walkReads {
				t.Errorf("cold walk: %d reads, err %v; want %d", reads, err, tc.walkReads)
			}
			if err := unmapAt(u, !tc.huge, tc.va); err == nil {
				t.Error("unmap of the other page size accepted")
			}
			if f, _, ok := u.Lookup(1, tc.va); !ok || f != run {
				t.Fatalf("mapping disturbed by the refused unmap (ok=%v frame=%d)", ok, f)
			}
			if err := unmapAt(u, tc.huge, tc.va); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := u.Lookup(1, tc.va); ok {
				t.Error("Lookup still finds the mapping after unmap")
			}
			if _, _, err := u.Translate(1, tc.va, AccessRead); err == nil {
				t.Error("stale TLB entry after unmap")
			}
			// The tables the unmap emptied wait as spares; a second install
			// takes them, not new frames.
			mid := mem.FreeFramesCount()
			if err := mapAt(u, tc.huge, tc.va, run); err != nil || mem.FreeFramesCount() != mid {
				t.Errorf("re-install: err %v, %d more table frames", err, mid-mem.FreeFramesCount())
			}
		})
	}
}

// MapRange installs all of a run or none of it, whatever the page size,
// and its rollback takes out only what the call itself put in.
func TestMapRangeAllOrNothing(t *testing.T) {
	for _, huge := range []bool{false, true} {
		step, per := PageGeometry(huge)
		u, mem := hugeRig(t)
		var frames []uint64
		for i := 0; i < 3; i++ {
			f, err := mem.AllocFrames(per)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, uint64(f))
		}
		base := VirtAddr(4 * HugePageSize)
		at := func(i int) VirtAddr { return base + VirtAddr(uint64(i)*step) }

		// The context is created on first use, perm 0 means read+write.
		if err := MapRange(u, 1, base, frames[:2], 0, huge); err != nil {
			t.Fatalf("huge=%v: %v", huge, err)
		}
		for i := 0; i < 2; i++ {
			if f, perm, ok := u.Lookup(1, at(i)); !ok || uint64(f) != frames[i] || perm != PermRW {
				t.Fatalf("huge=%v: mapping %d = frame %d perm %v ok %v", huge, i, f, perm, ok)
			}
		}
		// A second run that collides with the first at its third mapping
		// is refused, leaves its own two mappings out, and leaves the
		// earlier owner's in.
		other := base - VirtAddr(2*step)
		if err := MapRange(u, 1, other, []uint64{frames[2], frames[2], frames[2]}, PermRW, huge); err == nil {
			t.Fatalf("huge=%v: colliding run accepted", huge)
		}
		for i := 0; i < 2; i++ {
			if _, _, ok := u.Lookup(1, other+VirtAddr(uint64(i)*step)); ok {
				t.Errorf("huge=%v: refused run left mapping %d behind", huge, i)
			}
		}
		if f, _, ok := u.Lookup(1, base); !ok || uint64(f) != frames[0] {
			t.Errorf("huge=%v: rollback unmapped the earlier owner's mapping", huge)
		}
		if n := u.UnmapRange(1, base, 3, huge); n != 2 {
			t.Errorf("huge=%v: UnmapRange cleared %d mappings, want the 2 present", huge, n)
		}
	}
}
