package smartnic

import (
	"bytes"
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
)

// demandApp reserves a lazy region at boot and exposes its runtime.
type demandApp struct {
	id    msg.AppID
	bytes uint64
	chunk int
	rt    *Runtime
	va    uint64
}

func (a *demandApp) AppID() msg.AppID { return a.id }
func (a *demandApp) Boot(rt *Runtime) {
	a.rt = rt
	a.va = rt.ReserveLazy(mcID, a.bytes, a.chunk)
}
func (a *demandApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *demandApp) PeerFailed(msg.DeviceID)                   {}

func TestDemandPagingFirstTouch(t *testing.T) {
	m := newMachine(t)
	app := &demandApp{id: 1, bytes: 16 * physmem.PageSize, chunk: 1}
	m.nic.AddApp(app)
	m.eng.Run()
	if app.va == 0 {
		t.Fatal("no lazy region")
	}
	// No physical memory consumed yet.
	if live := m.mc.Stats().BytesLive; live != 0 {
		t.Fatalf("lazy reserve allocated %d bytes", live)
	}

	// First DMA write faults, demand-allocates, retries, succeeds.
	port := m.nic.Device().DMA()
	payload := []byte("demand paged!")
	var werr error
	done := false
	port.Write(1, iommu.VirtAddr(app.va+5000), payload, func(err error) { werr, done = err, true })
	m.eng.Run()
	if !done || werr != nil {
		t.Fatalf("first-touch write: done=%v err=%v", done, werr)
	}
	if app.rt.lazyAllocs != 1 {
		t.Fatalf("chunks allocated = %d", app.rt.lazyAllocs)
	}
	// Exactly one page is live.
	if live := m.mc.Stats().BytesLive; live != physmem.PageSize {
		t.Fatalf("live bytes = %d, want one page", live)
	}
	// Read back through the same address space.
	var got []byte
	port.Read(1, iommu.VirtAddr(app.va+5000), len(payload), func(b []byte, err error) { got = b })
	m.eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q", got)
	}
	// Second touch of the same page: no new allocation.
	port.Write(1, iommu.VirtAddr(app.va+5100), []byte{1}, func(error) {})
	m.eng.Run()
	if app.rt.lazyAllocs != 1 {
		t.Fatal("re-touch allocated again")
	}
}

func TestDemandPagingChunkGranularity(t *testing.T) {
	m := newMachine(t)
	app := &demandApp{id: 1, bytes: 64 * physmem.PageSize, chunk: 4}
	m.nic.AddApp(app)
	m.eng.Run()
	port := m.nic.Device().DMA()
	// Touch one byte: a 4-page chunk materializes.
	port.Write(1, iommu.VirtAddr(app.va), []byte{1}, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	m.eng.Run()
	if live := m.mc.Stats().BytesLive; live != 4*physmem.PageSize {
		t.Fatalf("live = %d, want 4 pages", live)
	}
	// A write inside the same chunk (page 3) needs no fault; page 4 does.
	port.Write(1, iommu.VirtAddr(app.va+3*physmem.PageSize), []byte{2}, func(error) {})
	m.eng.Run()
	if app.rt.lazyAllocs != 1 {
		t.Fatal("same-chunk touch refaulted")
	}
	port.Write(1, iommu.VirtAddr(app.va+4*physmem.PageSize), []byte{3}, func(error) {})
	m.eng.Run()
	if app.rt.lazyAllocs != 2 {
		t.Fatalf("chunks = %d, want 2", app.rt.lazyAllocs)
	}
}

func TestDemandPagingCrossChunkDMA(t *testing.T) {
	// One DMA spanning two unbacked chunks: the port faults, the handler
	// allocates the first chunk, the retry faults on the second, and so
	// on until the whole range is backed.
	m := newMachine(t)
	app := &demandApp{id: 1, bytes: 16 * physmem.PageSize, chunk: 1}
	m.nic.AddApp(app)
	m.eng.Run()
	port := m.nic.Device().DMA()
	payload := make([]byte, 3*physmem.PageSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	var werr error
	done := false
	port.Write(1, iommu.VirtAddr(app.va+100), payload, func(err error) { werr, done = err, true })
	m.eng.Run()
	if !done || werr != nil {
		t.Fatalf("cross-chunk write: done=%v err=%v", done, werr)
	}
	if app.rt.lazyAllocs != 4 { // pages 0..3 touched (offset 100 + 3 pages)
		t.Fatalf("chunks = %d, want 4", app.rt.lazyAllocs)
	}
	var got []byte
	port.Read(1, iommu.VirtAddr(app.va+100), len(payload), func(b []byte, err error) { got = b })
	m.eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-chunk data corrupt")
	}
}

func TestDemandPagingConcurrentFaultsCoalesce(t *testing.T) {
	m := newMachine(t)
	app := &demandApp{id: 1, bytes: 8 * physmem.PageSize, chunk: 1}
	m.nic.AddApp(app)
	m.eng.Run()
	port := m.nic.Device().DMA()
	done := 0
	for i := 0; i < 6; i++ {
		off := uint64(100 * (i + 1))
		port.Write(1, iommu.VirtAddr(app.va+off), []byte{byte(i)}, func(err error) {
			if err != nil {
				t.Errorf("concurrent write: %v", err)
			}
			done++
		})
	}
	m.eng.Run()
	if done != 6 {
		t.Fatalf("done = %d", done)
	}
	// All six writes hit the same page: exactly one demand allocation.
	if app.rt.lazyAllocs != 1 {
		t.Fatalf("chunks = %d, want 1 (coalesced)", app.rt.lazyAllocs)
	}
}

// TestDemandPagingSurvivesMessageLoss drops the first AllocReq, then
// (separately) the first AllocResp, of a demand allocation: the fault is
// resolved through the same retried call as an eager alloc, so the DMA
// completes, late by one timeout, and the chunk is counted once.
func TestDemandPagingSurvivesMessageLoss(t *testing.T) {
	for _, kind := range []msg.Kind{msg.KindAllocReq, msg.KindAllocResp} {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMachine(t)
			plane := faultinject.New(1)
			m.bus.SetFaultPlane(plane)
			app := &demandApp{id: 1, bytes: 8 * physmem.PageSize, chunk: 1}
			m.nic.AddApp(app)
			m.eng.Run()
			plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Kind: kind, Op: faultinject.Drop, Count: 1})

			var werr error
			done := false
			m.nic.Device().DMA().Write(1, iommu.VirtAddr(app.va+100), []byte("late but whole"), func(err error) { werr, done = err, true })
			m.eng.Run()
			if !done || werr != nil {
				t.Fatalf("first-touch write under loss: done=%v err=%v", done, werr)
			}
			if st := m.nic.RetryStats(); st.Retries != 1 || st.Exhausted != 0 {
				t.Errorf("retry stats = %+v, want exactly one retransmission", st)
			}
			if n := app.rt.lazyAllocs; n != 1 {
				t.Errorf("chunks allocated = %d, want 1", n)
			}
			if live := m.mc.Stats().BytesLive; live != physmem.PageSize {
				t.Errorf("live bytes = %d, want one page (a replayed request must not allocate twice)", live)
			}
			if len(m.nic.pending) != 0 || len(app.rt.pendingFaults) != 0 {
				t.Errorf("left behind: %d calls, %d fault waiters", len(m.nic.pending), len(app.rt.pendingFaults))
			}
		})
	}
}

func TestFaultOutsideLazyRegionStillFails(t *testing.T) {
	m := newMachine(t)
	app := &demandApp{id: 1, bytes: 4 * physmem.PageSize, chunk: 1}
	m.nic.AddApp(app)
	m.eng.Run()
	port := m.nic.Device().DMA()
	var werr error
	// Far outside the lazy region (and any mapping).
	port.Write(1, iommu.VirtAddr(0x7000_0000), []byte{1}, func(err error) { werr = err })
	m.eng.Run()
	if werr == nil {
		t.Fatal("out-of-region fault was silently resolved")
	}
	var fault *iommu.Fault
	if !errorsAs(werr, &fault) {
		t.Fatalf("err = %v", werr)
	}
}

// errorsAs avoids importing errors for one call in this file.
func errorsAs(err error, target **iommu.Fault) bool {
	for err != nil {
		if f, ok := err.(*iommu.Fault); ok {
			*target = f
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestPermissionFaultNotDemandPaged(t *testing.T) {
	// A permission fault (not not-present) must never reach the demand
	// handler: revoke-style errors stay errors.
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("x"))
	app := &demandApp{id: 1, bytes: 4 * physmem.PageSize, chunk: 1}
	m.nic.AddApp(app)
	m.eng.Run()
	// Map a read-only page by hand via the bus-equivalent direct map.
	mem := m.fab.Memory()
	f, _ := mem.AllocFrames(1)
	mmu := m.nic.Device().IOMMU()
	if !mmu.HasContext(1) {
		if err := mmu.CreateContext(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := mmu.Map(1, 0x6000_0000, f, iommu.AccessRead); err != nil {
		t.Fatal(err)
	}
	var werr error
	m.nic.Device().DMA().Write(1, 0x6000_0000, []byte{1}, func(err error) { werr = err })
	m.eng.Run()
	var fault *iommu.Fault
	if !errorsAs(werr, &fault) || fault.Reason != iommu.FaultPermission {
		t.Fatalf("err = %v", werr)
	}
}
