package interconnect

import (
	"bytes"
	"errors"
	"testing"

	"nocpu/internal/iommu"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	mem  *physmem.Memory
	fab  *Fabric
	port *Port
	mmu  *iommu.IOMMU
}

func newRig(t testing.TB, costs Costs) *rig {
	t.Helper()
	eng := sim.NewEngine()
	mem := physmem.MustNew(512 * physmem.PageSize)
	fab := NewFabric(eng, mem, costs)
	mmu := iommu.New("dev", mem, iommu.DefaultConfig)
	port := fab.NewPort("dev", mmu)
	return &rig{eng: eng, mem: mem, fab: fab, port: port, mmu: mmu}
}

func (r *rig) mapPage(t testing.TB, pasid iommu.PASID, va iommu.VirtAddr, perm iommu.Perm) physmem.Frame {
	t.Helper()
	if !r.mmu.HasContext(pasid) {
		if err := r.mmu.CreateContext(pasid); err != nil {
			t.Fatal(err)
		}
	}
	f, err := r.mem.AllocFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mmu.Map(pasid, va, f, perm); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDMAWriteReadRoundTrip(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	payload := []byte("hello, accelerator world")
	var readBack []byte
	r.port.Write(1, 0x1000+16, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		r.port.Read(1, 0x1000+16, len(payload), func(b []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			readBack = b
		})
	})
	r.eng.Run()
	if !bytes.Equal(readBack, payload) {
		t.Errorf("round trip = %q, want %q", readBack, payload)
	}
	st := r.fab.Stats()
	if st.DMAs != 2 || st.BytesMoved != uint64(2*len(payload)) {
		t.Errorf("stats = %+v", st)
	}
}

func TestDMACrossesPageBoundary(t *testing.T) {
	r := newRig(t, DefaultCosts)
	// Two virtually contiguous pages backed by (likely) discontiguous frames.
	f1 := r.mapPage(t, 1, 0x1000, iommu.PermRW)
	f2 := r.mapPage(t, 1, 0x2000, iommu.PermRW)
	if f1+1 == f2 {
		t.Log("frames happen to be contiguous; test still valid")
	}
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	r.port.Write(1, 0x1000+2000, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		r.port.Read(1, 0x1000+2000, len(payload), func(b []byte, err error) {
			got = b
		})
	})
	r.eng.Run()
	if !bytes.Equal(got, payload) {
		t.Error("cross-page DMA corrupted data")
	}
	// Verify the split actually landed in both frames.
	a, bEnd := make([]byte, 10), make([]byte, 10)
	_ = r.mem.ReadInto(f1.Addr()+2000, a)
	_ = r.mem.ReadInto(f2.Addr(), bEnd)
	if !bytes.Equal(a, payload[:10]) || !bytes.Equal(bEnd, payload[2096:2106]) {
		t.Error("payload not split across frames as expected")
	}
}

func TestDMAFaultDelivery(t *testing.T) {
	r := newRig(t, DefaultCosts)
	if err := r.mmu.CreateContext(1); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	r.port.Read(1, 0x9000, 10, func(b []byte, err error) { gotErr = err })
	r.eng.Run()
	var fault *iommu.Fault
	if !errors.As(gotErr, &fault) || fault.Reason != iommu.FaultNotPresent {
		t.Errorf("err = %v", gotErr)
	}
	if r.fab.Stats().Faults != 1 {
		t.Error("fault not counted")
	}
}

func TestDMAPermissionEnforced(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.mapPage(t, 1, 0x1000, iommu.AccessRead)
	var gotErr error
	r.port.Write(1, 0x1000, []byte{1}, func(err error) { gotErr = err })
	r.eng.Run()
	var fault *iommu.Fault
	if !errors.As(gotErr, &fault) || fault.Reason != iommu.FaultPermission {
		t.Errorf("read-only page accepted write: %v", gotErr)
	}
}

func TestDMATimingModel(t *testing.T) {
	costs := Costs{
		LinkLatency: 100,
		BytesPerNs:  1, // 1 byte per ns
		TLBLookup:   0,
		WalkRead:    10,
	}
	r := newRig(t, costs)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	var doneAt sim.Time
	// Cold translation: 4 walk reads. 64 bytes at 1 B/ns. 100ns latency.
	r.port.Write(1, 0x1000, make([]byte, 64), func(error) { doneAt = r.eng.Now() })
	r.eng.Run()
	want := sim.Time(100 + 64 + 4*10)
	if doneAt != want {
		t.Errorf("cold DMA completed at %v, want %v", doneAt, want)
	}
	// Warm translation: no walk reads.
	start := r.eng.Now()
	r.port.Write(1, 0x1000, make([]byte, 64), func(error) { doneAt = r.eng.Now() })
	r.eng.Run()
	if got := doneAt.Sub(start); got != 164 {
		t.Errorf("warm DMA took %v, want 164ns", got)
	}
}

func TestDMASerializationPerPort(t *testing.T) {
	costs := Costs{LinkLatency: 100, BytesPerNs: 1}
	r := newRig(t, costs)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	// Warm the TLB so both transfers cost the same.
	r.port.Write(1, 0x1000, []byte{0}, func(error) {})
	r.eng.Run()
	start := r.eng.Now()
	var t1, t2 sim.Time
	r.port.Write(1, 0x1000, make([]byte, 100), func(error) { t1 = r.eng.Now() })
	r.port.Write(1, 0x1000, make([]byte, 100), func(error) { t2 = r.eng.Now() })
	r.eng.Run()
	if t1.Sub(start) != 200 {
		t.Errorf("first DMA at +%v, want +200", t1.Sub(start))
	}
	if t2.Sub(start) != 400 {
		t.Errorf("second DMA at +%v, want +400 (serialized)", t2.Sub(start))
	}
}

func TestDoorbellDelivery(t *testing.T) {
	r := newRig(t, DefaultCosts)
	var got uint64
	var at sim.Time
	r.fab.RegisterDoorbell(0x100, func(v uint64) { got = v; at = r.eng.Now() })
	r.fab.Ring(0x100, 42)
	r.eng.Run()
	if got != 42 {
		t.Errorf("doorbell value = %d", got)
	}
	if at != sim.Time(DefaultCosts.DoorbellLatency) {
		t.Errorf("delivered at %v, want %v", at, DefaultCosts.DoorbellLatency)
	}
}

func TestDoorbellUnregisteredDropped(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.fab.Ring(0x999, 1) // must not panic
	r.eng.Run()
	if r.fab.Stats().Doorbells != 1 {
		t.Error("ring not counted")
	}
}

func TestDoorbellDoubleRegisterPanics(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.fab.RegisterDoorbell(0x1, func(uint64) {})
	defer func() {
		if recover() == nil {
			t.Error("double register did not panic")
		}
	}()
	r.fab.RegisterDoorbell(0x1, func(uint64) {})
}

func TestDoorbellUnregister(t *testing.T) {
	r := newRig(t, DefaultCosts)
	fired := false
	r.fab.RegisterDoorbell(0x1, func(uint64) { fired = true })
	r.fab.UnregisterDoorbell(0x1)
	r.fab.Ring(0x1, 5)
	r.eng.Run()
	if fired {
		t.Error("unregistered doorbell fired")
	}
}

// A transfer over four pages has more extents than a Port keeps inline;
// every page must land in its own frame and read back in order, and the
// caller's buffer stays the caller's.
func TestDMASpansManyPages(t *testing.T) {
	r := newRig(t, DefaultCosts)
	var frames [4]physmem.Frame
	for i := range frames {
		frames[i] = r.mapPage(t, 1, iommu.VirtAddr(0x1000*(i+1)), iommu.PermRW)
	}
	const start, n = 0x1000 + 3000, 3*physmem.PageSize - 1000 // 1096 + 4096 + 4096 + 2000
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*13 + i>>8)
	}
	want := append([]byte(nil), payload...)
	var got []byte
	r.port.Write(1, start, payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		r.port.Read(1, start, n, func(b []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = b
		})
	})
	clear(payload)
	r.eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatal("four-extent DMA corrupted data")
	}
	for i, off := range []int{0, 1096, 1096 + 4096, 1096 + 2*4096} {
		at := frames[i].Addr()
		if i == 0 {
			at += 3000
		}
		b := make([]byte, 16)
		_ = r.mem.ReadInto(at, b)
		if !bytes.Equal(b, want[off:off+16]) {
			t.Errorf("extent %d did not land at the start of its frame", i)
		}
	}
	if st := r.fab.Stats(); st.DMAs != 2 || st.BytesMoved != 2*n {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteBufferReuseSafe(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	buf := []byte{1, 2, 3, 4}
	r.port.Write(1, 0x1000, buf, func(error) {})
	// Caller scribbles on the buffer before the DMA completes.
	buf[0] = 99
	var got []byte
	r.eng.Run()
	r.port.Read(1, 0x1000, 4, func(b []byte, err error) { got = b })
	r.eng.Run()
	if got[0] != 1 {
		t.Error("DMA write observed caller's post-submission scribble")
	}
}

func TestPasidIsolationOnPort(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	if err := r.mmu.CreateContext(2); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	r.port.Read(2, 0x1000, 4, func(b []byte, err error) { gotErr = err })
	r.eng.Run()
	if gotErr == nil {
		t.Error("PASID 2 read PASID 1's mapping")
	}
}

// portPair is the virtio pattern: one 64-byte DMA write and one read of it
// back, each run to completion.
func portPair(tb testing.TB) func() {
	r := newRig(tb, DefaultCosts)
	r.mapPage(tb, 1, 0x1000, iommu.PermRW)
	buf := make([]byte, 64)
	wrote := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	read := func(b []byte, err error) {
		if err != nil || len(b) != len(buf) {
			tb.Fatalf("read %d bytes: %v", len(b), err)
		}
	}
	return func() {
		r.port.Write(1, 0x1000+128, buf, wrote)
		r.eng.Run()
		r.port.Read(1, 0x1000+128, len(buf), read)
		r.eng.Run()
	}
}

// TestPortAllocs pins what a DMA costs the host: the write's captured
// payload and its completion, the read's buffer and its completion. The
// extents, the shed path and physmem add nothing.
func TestPortAllocs(t *testing.T) {
	pair := portPair(t)
	n := testing.AllocsPerRun(1000, pair)
	t.Logf("DMA write+read: %v allocations", n)
	if n > 6 {
		t.Errorf("DMA write+read allocates %v times, want <= 6", n)
	}
}

func BenchmarkPortWriteRead64B(b *testing.B) {
	pair := portPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair()
	}
}
