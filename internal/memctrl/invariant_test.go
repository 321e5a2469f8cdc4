package memctrl

import (
	"testing"

	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

// The system's central security invariant (§2.2): every mapping present
// in any device IOMMU is backed by a live allocation in the memory
// controller's tables, for the right app, and was installed by the bus
// either for the owner or under an explicit authorized grant. This test
// drives random sequences of alloc/grant/free from two devices and
// audits the invariant after every quiescent point, and at the end after
// freeing everything.

type region struct {
	app    msg.AppID
	va     uint64
	bytes  uint64
	pages  int
	owner  int // index into devs
	grants map[int]bool
	freed  bool
}

func TestSecurityInvariantUnderRandomOps(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, seed := range seeds {
		runInvariantSequence(t, seed, 60)
	}
}

func runInvariantSequence(t *testing.T, seed uint64, steps int) {
	t.Helper()
	w := newWorld(t, 0, 4096)
	devs := []*requester{
		w.newRequester(t, 2, "devA"),
		w.newRequester(t, 3, "devB"),
	}
	w.eng.Run()

	rng := sim.NewRand(seed)
	var regions []*region
	nextVA := map[msg.AppID]uint64{1: 0x1000_0000, 2: 0x2000_0000}

	live := func() []*region {
		var out []*region
		for _, r := range regions {
			if !r.freed {
				out = append(out, r)
			}
		}
		return out
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(3) {
		case 0: // alloc
			app := msg.AppID(rng.Intn(2) + 1)
			owner := rng.Intn(2)
			pages := rng.Intn(4) + 1
			va := nextVA[app]
			nextVA[app] += uint64(pages+1) * physmem.PageSize
			r := &region{app: app, va: va, bytes: uint64(pages) * physmem.PageSize,
				pages: pages, owner: owner, grants: map[int]bool{}}
			devs[owner].dev.Send(1, &msg.AllocReq{App: app, VA: va, Bytes: r.bytes, Perm: uint8(iommu.PermRW)})
			w.eng.Run()
			last := devs[owner].lastAlloc()
			if last == nil || !last.OK {
				t.Fatalf("seed %d step %d: alloc failed: %+v", seed, step, last)
			}
			regions = append(regions, r)
		case 1: // grant
			lv := live()
			if len(lv) == 0 {
				continue
			}
			r := lv[rng.Intn(len(lv))]
			target := 1 - r.owner
			if r.grants[target] {
				continue
			}
			devs[r.owner].dev.Send(msg.BusID, &msg.GrantReq{
				App: r.app, VA: r.va, Bytes: r.bytes, Target: devs[target].dev.ID(), Perm: uint8(iommu.PermRW)})
			w.eng.Run()
			g := devs[r.owner].grants[len(devs[r.owner].grants)-1]
			if !g.OK {
				t.Fatalf("seed %d step %d: grant denied: %s", seed, step, g.Reason)
			}
			r.grants[target] = true
		case 2: // free
			lv := live()
			if len(lv) == 0 {
				continue
			}
			r := lv[rng.Intn(len(lv))]
			devs[r.owner].dev.Send(1, &msg.FreeReq{App: r.app, VA: r.va, Bytes: r.bytes})
			w.eng.Run()
			r.freed = true
			r.grants = map[int]bool{}
		}
		auditMappings(t, seed, step, devs, regions)
	}

	// Tear everything down; no mapping may survive.
	for _, r := range live() {
		devs[r.owner].dev.Send(1, &msg.FreeReq{App: r.app, VA: r.va, Bytes: r.bytes})
		w.eng.Run()
		r.freed = true
	}
	auditMappings(t, seed, steps, devs, regions)
	if got := w.ctrl.LiveAllocations(); got != 0 {
		t.Fatalf("seed %d: %d allocations leaked in controller", seed, got)
	}
}

// auditMappings checks every page of every region against the model.
func auditMappings(t *testing.T, seed uint64, step int, devs []*requester, regions []*region) {
	t.Helper()
	for _, r := range regions {
		for p := 0; p < r.pages; p++ {
			va := iommu.VirtAddr(r.va + uint64(p)*physmem.PageSize)
			for di, d := range devs {
				_, _, mapped := d.dev.IOMMU().Lookup(iommu.PASID(r.app), va)
				wantMapped := !r.freed && (di == r.owner || r.grants[di])
				if mapped != wantMapped {
					t.Fatalf("seed %d step %d: region app=%d va=%#x page %d on dev%d: mapped=%v want %v (freed=%v owner=%d grants=%v)",
						seed, step, r.app, r.va, p, di, mapped, wantMapped, r.freed, r.owner, r.grants)
				}
			}
		}
	}
}
