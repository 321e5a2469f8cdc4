package memctrl

import (
	"strings"
	"testing"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
)

type world struct {
	eng  *sim.Engine
	mem  *physmem.Memory
	fab  *interconnect.Fabric
	bus  *bus.Bus
	tr   *trace.Tracer
	ctrl *Controller
}

func newWorld(t *testing.T, quota uint64, memPages uint64) *world {
	t.Helper()
	return newWorldWith(t, Config{QuotaPerApp: quota}, memPages)
}

// newWorldWith boots a controller with cfg; its device is always id 1,
// "memctrl".
func newWorldWith(t *testing.T, cfg Config, memPages uint64) *world {
	t.Helper()
	w := &world{eng: sim.NewEngine(), tr: trace.New()}
	w.mem = physmem.MustNew(memPages * physmem.PageSize)
	w.fab = interconnect.NewFabric(w.eng, w.mem, interconnect.DefaultCosts)
	w.bus = bus.New(w.eng, bus.DefaultConfig, w.tr)
	cfg.Device.ID, cfg.Device.Name = 1, "memctrl"
	ctrl, err := New(w.eng, w.bus, w.fab, w.tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.ctrl = ctrl
	ctrl.Start()
	return w
}

type requester struct {
	dev    *device.Device
	allocs []*msg.AllocResp
	frees  []*msg.FreeResp
	grants []*msg.GrantResp
}

func (w *world) newRequester(t *testing.T, id msg.DeviceID, name string) *requester {
	t.Helper()
	d, err := device.New(w.eng, w.bus, w.fab, w.tr, device.Config{ID: id, Name: name, Role: msg.RoleNIC})
	if err != nil {
		t.Fatal(err)
	}
	r := &requester{dev: d}
	d.Handle(msg.KindAllocResp, func(e msg.Envelope) { r.allocs = append(r.allocs, e.Msg.(*msg.AllocResp)) })
	d.Handle(msg.KindFreeResp, func(e msg.Envelope) { r.frees = append(r.frees, e.Msg.(*msg.FreeResp)) })
	d.Handle(msg.KindGrantResp, func(e msg.Envelope) { r.grants = append(r.grants, e.Msg.(*msg.GrantResp)) })
	d.Start()
	return r
}

func (r *requester) lastAlloc() *msg.AllocResp {
	if len(r.allocs) == 0 {
		return nil
	}
	return r.allocs[len(r.allocs)-1]
}

func TestAllocHappyPath(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 5, VA: 0x100000, Bytes: 3 * physmem.PageSize, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	a := nic.lastAlloc()
	if a == nil || !a.OK || len(a.Frames) != 3 {
		t.Fatalf("alloc = %+v", a)
	}
	// Bus must have programmed the NIC's IOMMU during forwarding.
	for i := range a.Frames {
		if _, _, ok := nic.dev.IOMMU().Lookup(5, iommu.VirtAddr(0x100000+i*physmem.PageSize)); !ok {
			t.Fatalf("page %d unmapped in requester IOMMU", i)
		}
	}
	st := w.ctrl.Stats()
	if st.Allocs != 1 || st.BytesLive != 3*physmem.PageSize {
		t.Errorf("stats = %+v", st)
	}
}

func TestAllocValidation(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	cases := []struct {
		name string
		req  *msg.AllocReq
	}{
		{"zero app", &msg.AllocReq{App: 0, VA: 0x1000, Bytes: 4096}},
		{"zero bytes", &msg.AllocReq{App: 1, VA: 0x1000, Bytes: 0}},
		{"unaligned", &msg.AllocReq{App: 1, VA: 0x1001, Bytes: 4096}},
	}
	for _, c := range cases {
		nic.dev.Send(1, c.req)
		w.eng.Run()
		if a := nic.lastAlloc(); a == nil || a.OK {
			t.Errorf("%s: accepted (%+v)", c.name, a)
		}
	}
}

func TestAllocOverlapRejected(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 4 * physmem.PageSize})
	w.eng.Run()
	// Overlapping the middle of the first region.
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x12000, Bytes: physmem.PageSize})
	w.eng.Run()
	if a := nic.lastAlloc(); a.OK {
		t.Error("overlapping alloc accepted")
	}
	// Same VA, different app: fine (separate address spaces).
	nic.dev.Send(1, &msg.AllocReq{App: 2, VA: 0x10000, Bytes: physmem.PageSize})
	w.eng.Run()
	if a := nic.lastAlloc(); !a.OK {
		t.Errorf("cross-app same-VA alloc rejected: %s", a.Reason)
	}
}

func TestQuotaEnforced(t *testing.T) {
	w := newWorld(t, 4*physmem.PageSize, 1024)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 3 * physmem.PageSize})
	w.eng.Run()
	if !nic.lastAlloc().OK {
		t.Fatal("first alloc rejected")
	}
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x90000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	if a := nic.lastAlloc(); a.OK || !strings.Contains(a.Reason, "quota") {
		t.Errorf("quota not enforced: %+v", a)
	}
	// Another app has its own quota.
	nic.dev.Send(1, &msg.AllocReq{App: 2, VA: 0x90000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	if !nic.lastAlloc().OK {
		t.Error("second app blocked by first app's quota")
	}
}

func TestAllocExhaustionRollsBack(t *testing.T) {
	// Memory with ~16 usable frames (some consumed by page tables).
	w := newWorld(t, 0, 16)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	before := w.mem.FreeFramesCount()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 64 * physmem.PageSize})
	w.eng.Run()
	if a := nic.lastAlloc(); a.OK {
		t.Fatal("impossible alloc accepted")
	}
	// Nothing leaked (page-table frames for contexts may differ, so
	// compare against the pre-request count).
	if got := w.mem.FreeFramesCount(); got != before {
		t.Errorf("frames leaked: %d -> %d", before, got)
	}
}

func TestFreeFlow(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	live := w.ctrl.Stats().BytesLive
	nic.dev.Send(1, &msg.FreeReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	if len(nic.frees) != 1 || !nic.frees[0].OK {
		t.Fatalf("free = %+v", nic.frees)
	}
	if w.ctrl.Stats().BytesLive != live-2*physmem.PageSize {
		t.Error("BytesLive not reduced")
	}
	// Bus unmapped the requester.
	if _, _, ok := nic.dev.IOMMU().Lookup(1, 0x10000); ok {
		t.Error("mapping survives free")
	}
	// Double free denied.
	nic.dev.Send(1, &msg.FreeReq{App: 1, VA: 0x10000})
	w.eng.Run()
	if nic.frees[len(nic.frees)-1].OK {
		t.Error("double free accepted")
	}
}

// TestFreeRetransmissionReplayed: a FreeReq identical to one already
// completed (same owner, VA and byte count — what the NIC retry layer
// resends when the FreeResp was lost) is answered OK by replay without a
// second free, while TestFreeFlow's distinct double free stays denied.
func TestFreeRetransmissionReplayed(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	nic.dev.Send(1, &msg.FreeReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	nic.dev.Send(1, &msg.FreeReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	if len(nic.frees) != 2 || !nic.frees[0].OK || !nic.frees[1].OK {
		t.Fatalf("frees = %+v, want two OK responses", nic.frees)
	}
	if got := w.ctrl.Stats().Frees; got != 1 {
		t.Errorf("controller performed %d frees, want 1 (replay must not double-free)", got)
	}
	// Reallocating the VA evicts the replay record: a stale retransmission
	// arriving after that must not be confused with freeing the new region.
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	if !nic.lastAlloc().OK {
		t.Fatal("realloc failed")
	}
	nic.dev.Send(1, &msg.FreeReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize})
	w.eng.Run()
	if got := w.ctrl.Stats().Frees; got != 2 {
		t.Errorf("frees = %d, want 2 (free of reallocated region must be real, not replayed)", got)
	}
}

// TestEveryFreeLeavesATombstone pins what the free replay costs: each
// completed free leaves its region's replay record in freed, and only an
// alloc at the same VA deletes it. The NIC runtime never reuses a VA (its
// reserveVA only moves forward), so under alloc/free churn the map grows
// by one entry per free for the life of the table. This test holds the
// count; bounding it needs the replay generation that VA reuse needs too.
func TestEveryFreeLeavesATombstone(t *testing.T) {
	r := NewRegions(physmem.MustNew(64*physmem.PageSize), 0)
	const cycles = 100
	va := uint64(0x10000)
	for i := range cycles {
		if resp, _ := r.Alloc(2, &msg.AllocReq{App: 1, VA: va, Bytes: physmem.PageSize}); !resp.OK {
			t.Fatalf("alloc %d: %s", i, resp.Reason)
		}
		if resp := r.Free(2, &msg.FreeReq{App: 1, VA: va, Bytes: physmem.PageSize}); !resp.OK {
			t.Fatalf("free %d: %s", i, resp.Reason)
		}
		va += 2 * physmem.PageSize // the next region, past a guard page
	}
	if len(r.freed) != cycles || r.live() != 0 {
		t.Fatalf("%d alloc/free cycles left %d tombstones and %d live regions, want %d and 0", cycles, len(r.freed), r.live(), cycles)
	}
	if resp, _ := r.Alloc(2, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: physmem.PageSize}); !resp.OK {
		t.Fatalf("realloc: %s", resp.Reason)
	}
	if len(r.freed) != cycles-1 {
		t.Fatalf("reusing a VA left %d tombstones, want %d", len(r.freed), cycles-1)
	}
}

func TestFreeByNonOwnerDenied(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	other := w.newRequester(t, 3, "other")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: physmem.PageSize})
	w.eng.Run()
	other.dev.Send(1, &msg.FreeReq{App: 1, VA: 0x10000})
	w.eng.Run()
	if len(other.frees) != 1 || other.frees[0].OK {
		t.Errorf("non-owner free = %+v", other.frees)
	}
}

func TestGrantFlowWithRealController(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	ssd := w.newRequester(t, 3, "ssd")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	nic.dev.Send(msg.BusID, &msg.GrantReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize, Target: 3, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	if len(nic.grants) != 1 || !nic.grants[0].OK {
		t.Fatalf("grant = %+v", nic.grants)
	}
	// SSD sees the same frames at the same VAs.
	for i := 0; i < 2; i++ {
		va := iommu.VirtAddr(0x10000 + i*physmem.PageSize)
		fNic, _, ok1 := nic.dev.IOMMU().Lookup(1, va)
		fSsd, _, ok2 := ssd.dev.IOMMU().Lookup(1, va)
		if !ok1 || !ok2 || fNic != fSsd {
			t.Fatalf("page %d not shared correctly", i)
		}
	}
	if w.ctrl.Stats().AuthsOK != 1 {
		t.Error("auth not counted")
	}
}

func TestGrantSubRange(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	ssd := w.newRequester(t, 3, "ssd")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 4 * physmem.PageSize, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	// Grant only the middle two pages.
	nic.dev.Send(msg.BusID, &msg.GrantReq{App: 1, VA: 0x11000, Bytes: 2 * physmem.PageSize, Target: 3, Perm: uint8(iommu.PermRW)})
	w.eng.Run()
	if len(nic.grants) != 1 || !nic.grants[0].OK {
		t.Fatalf("sub-range grant = %+v (bus owner record is per-base)", nic.grants)
	}
	if _, _, ok := ssd.dev.IOMMU().Lookup(1, 0x11000); !ok {
		t.Error("granted page missing")
	}
	if _, _, ok := ssd.dev.IOMMU().Lookup(1, 0x10000); ok {
		t.Error("ungranted page mapped")
	}
}

func TestAuthForUnallocatedRangeDenied(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	w.newRequester(t, 3, "ssd")
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: physmem.PageSize})
	w.eng.Run()
	// Range extends beyond the allocation: the bus's own range check
	// rejects it before the controller is even consulted.
	nic.dev.Send(msg.BusID, &msg.GrantReq{App: 1, VA: 0x10000, Bytes: 2 * physmem.PageSize, Target: 3})
	w.eng.Run()
	if len(nic.grants) != 1 || nic.grants[0].OK {
		t.Errorf("out-of-range grant = %+v", nic.grants)
	}
	if w.ctrl.Stats().AuthsOK != 0 {
		t.Error("controller authorized an out-of-range grant")
	}
}

func TestDirectAuthReqFromDeviceDenied(t *testing.T) {
	w := newWorld(t, 0, 1024)
	nic := w.newRequester(t, 2, "nic")
	got := make(chan *msg.AuthResp, 1)
	_ = got
	var resp *msg.AuthResp
	nic.dev.Handle(msg.KindAuthResp, func(e msg.Envelope) { resp = e.Msg.(*msg.AuthResp) })
	w.eng.Run()
	nic.dev.Send(1, &msg.AllocReq{App: 1, VA: 0x10000, Bytes: physmem.PageSize})
	w.eng.Run()
	// A device tries to get an authorization directly (bypassing the bus).
	nic.dev.Send(1, &msg.AuthReq{App: 1, VA: 0x10000, Bytes: physmem.PageSize, Target: 2, Nonce: 9})
	w.eng.Run()
	// The controller addresses its verdicts to the bus, so the device
	// must not receive one — and the bus drops unsolicited AuthResps.
	if resp != nil {
		t.Errorf("device received AuthResp: %+v", resp)
	}
}

func TestControllerOpCostSerializes(t *testing.T) {
	w := newWorld(t, 0, 4096)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	// Two allocs back to back; completion spacing must reflect OpCost
	// serialization at the controller.
	for i := 0; i < 50; i++ {
		nic.dev.Send(1, &msg.AllocReq{App: 1, VA: uint64(0x100000 + i*0x10000), Bytes: physmem.PageSize})
	}
	w.eng.Run()
	if len(nic.allocs) != 50 {
		t.Fatalf("got %d responses", len(nic.allocs))
	}
	for _, a := range nic.allocs {
		if !a.OK {
			t.Fatalf("alloc failed: %s", a.Reason)
		}
	}
	if w.ctrl.LiveAllocations() != 50 {
		t.Errorf("live allocations = %d", w.ctrl.LiveAllocations())
	}
}

// The request records come off a free list of sim.FreeBound: a backlog
// several times that long, queued behind the table engine at once, is
// answered request by request, each once and with its own VA.
func TestQueuedRequestsKeepTheirOwnEnvelopes(t *testing.T) {
	w := newWorldWith(t, Config{OpCost: sim.Microsecond}, 4096)
	nic := w.newRequester(t, 2, "nic")
	w.eng.Run()
	const n = 3 * sim.FreeBound
	va := func(i int) uint64 { return uint64(0x100000 + i*0x10000) }
	for i := 0; i < n; i++ {
		nic.dev.Send(1, &msg.AllocReq{App: 1, VA: va(i), Bytes: physmem.PageSize, Perm: uint8(iommu.PermRW)})
	}
	w.eng.Run()
	if len(nic.allocs) != n {
		t.Fatalf("%d responses to %d requests", len(nic.allocs), n)
	}
	for i, a := range nic.allocs {
		if !a.OK || a.VA != va(i) || len(a.Frames) != 1 {
			t.Errorf("response %d = %+v, want an OK single-frame answer for va %#x", i, a, va(i))
		}
	}
}

// A request the controller accepted dies with it: killed while the
// request waits behind OpCost, the controller answers nothing, whether it
// stays dead or is revived (a new incarnation) before the request's turn.
// The requester retransmits; nothing is allocated or mapped behind its
// back.
func TestKilledControllerAnswersNothingItQueued(t *testing.T) {
	for _, tc := range []struct {
		name   string
		revive bool
	}{{"stays dead", false}, {"revived", true}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorldWith(t, Config{OpCost: 50 * sim.Microsecond,
				Device: device.Config{ResetDelay: 10 * sim.Microsecond}}, 1024)
			nic := w.newRequester(t, 2, "nic")
			w.eng.Run()
			nic.dev.Send(1, &msg.AllocReq{App: 5, VA: 0x100000, Bytes: 3 * physmem.PageSize, Perm: uint8(iommu.PermRW)})
			w.eng.RunFor(20 * sim.Microsecond)
			if got := w.ctrl.proc.Pending(); got != 1 {
				t.Fatalf("%d requests queued at the kill, want 1", got)
			}
			inc := w.ctrl.Device().Incarnation()
			w.ctrl.Device().Kill()
			if tc.revive {
				if err := w.bus.FailDevice(1, "test"); err != nil {
					t.Fatal(err)
				}
			}
			w.eng.RunFor(200 * sim.Microsecond)
			if revived := w.ctrl.Device().Incarnation() != inc; revived != tc.revive {
				t.Fatalf("controller revived = %v, want %v", revived, tc.revive)
			}
			if len(nic.allocs) != 0 {
				t.Errorf("requester got %+v from a controller killed before answering", nic.allocs[0])
			}
			if n := w.ctrl.LiveAllocations(); n != 0 {
				t.Errorf("%d live allocations", n)
			}
			if _, _, ok := nic.dev.IOMMU().Lookup(5, 0x100000); ok {
				t.Error("requester's IOMMU maps the region")
			}
		})
	}
}
