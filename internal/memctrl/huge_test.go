package memctrl

import (
	"fmt"
	"testing"

	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
)

// End-to-end huge-page flows: alloc (controller runs + bus huge PTEs),
// grant, free — using the real bus interception path.

func TestHugeAllocProgramsHugePTEs(t *testing.T) {
	w := newWorld(t, 0, 4096) // 16 MiB
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	const va = uint64(2 * iommu.HugePageSize)
	nic.dev.Send(1, &msg.AllocReq{App: 5, VA: va, Bytes: 2 * iommu.HugePageSize, Perm: uint8(iommu.PermRW), Huge: true})
	w.eng.Run()
	a := nic.lastAlloc()
	if a == nil || !a.OK || !a.Huge || len(a.Frames) != 2 {
		t.Fatalf("huge alloc = %+v", a)
	}
	// A single translation covers any page within a run; only 3 walk
	// reads (short walk).
	pa, reads, err := nic.dev.IOMMU().Translate(5, iommu.VirtAddr(va+123456), iommu.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if reads != 3 {
		t.Fatalf("huge walk reads = %d", reads)
	}
	wantBase := physmem.Frame(a.Frames[0]).Addr()
	if pa != physmem.Addr(uint64(wantBase)+123456) {
		t.Fatalf("pa = %#x", pa)
	}
	// Controller accounted 4 MiB.
	if live := w.ctrl.Stats().BytesLive; live != 2*iommu.HugePageSize {
		t.Fatalf("live = %d", live)
	}
	// Bus accounted in 4K units.
	if got := w.bus.Stats().PagesMapped; got != uint64(2*iommu.HugeFrames) {
		t.Fatalf("pages mapped = %d", got)
	}
}

func TestHugeAllocValidation(t *testing.T) {
	w := newWorld(t, 0, 4096)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	// Unaligned VA refused.
	nic.dev.Send(1, &msg.AllocReq{App: 5, VA: 0x1000, Bytes: iommu.HugePageSize, Huge: true})
	w.eng.Run()
	if a := nic.lastAlloc(); a.OK {
		t.Fatal("unaligned huge alloc accepted")
	}
}

func TestHugeGrantAndFree(t *testing.T) {
	w := newWorld(t, 0, 8192) // 32 MiB
	nic := w.newRequester(t, 2, "nic")
	ssd := w.newRequester(t, 3, "ssd")
	w.eng.Run()
	const va = uint64(4 * iommu.HugePageSize)
	nic.dev.Send(1, &msg.AllocReq{App: 5, VA: va, Bytes: iommu.HugePageSize, Perm: uint8(iommu.PermRW), Huge: true})
	w.eng.Run()
	if !nic.lastAlloc().OK {
		t.Fatalf("alloc: %+v", nic.lastAlloc())
	}
	nic.dev.Send(msg.BusID, &msg.GrantReq{App: 5, VA: va, Bytes: iommu.HugePageSize, Target: 3, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	if len(nic.grants) != 1 || !nic.grants[0].OK {
		t.Fatalf("huge grant = %+v", nic.grants)
	}
	// Target sees the same frames via a huge mapping.
	fNic, _, ok1 := nic.dev.IOMMU().Lookup(5, iommu.VirtAddr(va+777))
	fSsd, _, ok2 := ssd.dev.IOMMU().Lookup(5, iommu.VirtAddr(va+777))
	if !ok1 || !ok2 || fNic != fSsd {
		t.Fatalf("grantee huge mapping wrong (ok=%v/%v)", ok1, ok2)
	}
	// Free removes it from both.
	nic.dev.Send(1, &msg.FreeReq{App: 5, VA: va})
	w.eng.Run()
	if _, _, ok := nic.dev.IOMMU().Lookup(5, iommu.VirtAddr(va)); ok {
		t.Fatal("owner huge mapping survives free")
	}
	if _, _, ok := ssd.dev.IOMMU().Lookup(5, iommu.VirtAddr(va)); ok {
		t.Fatal("grantee huge mapping survives free")
	}
	if w.ctrl.Stats().BytesLive != 0 {
		t.Fatalf("bytes live = %d", w.ctrl.Stats().BytesLive)
	}
	// Physical frames really returned: a fresh huge alloc succeeds.
	nic.dev.Send(1, &msg.AllocReq{App: 5, VA: va, Bytes: iommu.HugePageSize, Huge: true})
	w.eng.Run()
	if !nic.lastAlloc().OK {
		t.Fatalf("realloc after free: %+v", nic.lastAlloc())
	}
}

func TestHugeSubRangeGrantAlignment(t *testing.T) {
	w := newWorld(t, 0, 8192)
	nic := w.newRequester(t, 2, "nic")
	w.newRequester(t, 3, "ssd")
	w.eng.Run()
	const va = uint64(8 * iommu.HugePageSize)
	nic.dev.Send(1, &msg.AllocReq{App: 5, VA: va, Bytes: 2 * iommu.HugePageSize, Perm: uint8(iommu.PermRW), Huge: true})
	w.eng.Run()
	// Unaligned sub-range grant of a huge region is denied by the
	// controller.
	nic.dev.Send(msg.BusID, &msg.GrantReq{App: 5, VA: va + 4096, Bytes: 4096, Target: 3})
	w.eng.Run()
	if g := nic.grants[len(nic.grants)-1]; g.OK {
		t.Fatal("unaligned huge sub-grant accepted")
	}
	// An aligned whole-run sub-grant works.
	nic.dev.Send(msg.BusID, &msg.GrantReq{App: 5, VA: va + iommu.HugePageSize, Bytes: iommu.HugePageSize, Target: 3, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	if g := nic.grants[len(nic.grants)-1]; !g.OK {
		t.Fatalf("aligned huge sub-grant denied: %s", g.Reason)
	}
}

// A request with two things wrong is refused for the first in a fixed
// order — overlap of the extent in 4 KiB pages, 2 MiB alignment, overlap
// of the extent rounded up to whole runs, quota — and a request retried
// with the same rounded extent is the replay of the one that succeeded.
func TestHugeAllocRefusalOrder(t *testing.T) {
	const H = iommu.HugePageSize
	w := newWorld(t, 3*H, 8192) // quota: three runs
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	alloc := func(m msg.AllocReq) *msg.AllocResp {
		t.Helper()
		m.App, m.Perm = 5, uint8(iommu.PermRW)
		nic.dev.Send(1, &m)
		w.eng.Run()
		return nic.lastAlloc()
	}
	if a := alloc(msg.AllocReq{VA: 4 * H, Bytes: 4096}); !a.OK {
		t.Fatalf("4 KiB region: %+v", a)
	}
	first := alloc(msg.AllocReq{VA: 8 * H, Bytes: H + 1, Huge: true}) // rounds up to two runs
	if !first.OK || len(first.Frames) != 2 {
		t.Fatalf("huge region: %+v", first)
	}
	for _, tc := range []struct {
		name string
		req  msg.AllocReq
		want string
	}{
		{"page overlap before alignment", msg.AllocReq{VA: 4*H - 4096, Bytes: 2 * 4096, Huge: true}, "overlaps existing region at " + hex(4*H)},
		{"alignment before quota", msg.AllocReq{VA: 16*H + 4096, Bytes: 8 * H, Huge: true}, "huge allocation requires 2MiB-aligned virtual address"},
		{"rounded overlap before quota", msg.AllocReq{VA: 3 * H, Bytes: H + 1, Huge: true}, "overlaps existing region at " + hex(4*H)},
		{"quota last", msg.AllocReq{VA: 16 * H, Bytes: H + 1, Huge: true}, "quota exceeded"},
	} {
		if a := alloc(tc.req); a.OK || a.Reason != tc.want {
			t.Errorf("%s: %+v, want refusal %q", tc.name, a, tc.want)
		}
	}
	// Same rounded extent, different byte count: the replay, same frames.
	again := alloc(msg.AllocReq{VA: 8 * H, Bytes: 2 * H, Huge: true})
	if !again.OK || len(again.Frames) != 2 || again.Frames[0] != first.Frames[0] || again.Frames[1] != first.Frames[1] {
		t.Errorf("replay = %+v, want the frames of %+v", again, first)
	}
	if got := w.ctrl.Stats().Allocs; got != 2 {
		t.Errorf("Allocs = %d, want 2 (refusals and the replay allocate nothing)", got)
	}
}

func hex(v uint64) string { return fmt.Sprintf("%#x", v) }
