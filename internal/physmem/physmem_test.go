package physmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := New(PageSize + 1); err == nil {
		t.Error("non-multiple size accepted")
	}
	m, err := New(16 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 16*PageSize || m.Frames() != 16 {
		t.Errorf("size=%d frames=%d", m.Size(), m.Frames())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := MustNew(4 * PageSize)
	src := []byte("the last cpu")
	if err := m.Write(100, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	if err := m.ReadInto(100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Errorf("got %q want %q", got, src)
	}
}

func TestOutOfBoundsRejected(t *testing.T) {
	m := MustNew(PageSize)
	if err := m.Write(PageSize-4, []byte("12345")); err == nil {
		t.Error("write across end accepted")
	}
	if err := m.ReadInto(PageSize, make([]byte, 1)); err == nil {
		t.Error("read at end accepted")
	}
	if _, err := m.ReadU64(PageSize - 7); err == nil {
		t.Error("u64 read across end accepted")
	}
	if err := m.ReadInto(2, make([]byte, PageSize)); err == nil {
		t.Error("ReadInto across end accepted")
	}
}

func TestScalarAccessors(t *testing.T) {
	m := MustNew(PageSize)
	if err := m.WriteU64(8, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU64(8)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("u64 = %#x, err=%v", v, err)
	}
	// Little-endian layout check.
	b := make([]byte, 2)
	_ = m.ReadInto(8, b)
	if b[0] != 0x0d {
		t.Errorf("not little-endian: first byte %#x", b[0])
	}
}

func TestAllocZeroesMemory(t *testing.T) {
	m := MustNew(8 * PageSize)
	f, err := m.AllocFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Write(f.Addr(), []byte{1, 2, 3})
	if err := m.FreeFrames(f, 1); err != nil {
		t.Fatal(err)
	}
	f2, err := m.AllocFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	got := []byte{9, 9, 9}
	_ = m.ReadInto(f2.Addr(), got)
	if !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Errorf("reallocated frame not scrubbed: %v", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := MustNew(4 * PageSize)
	if _, err := m.AllocFrames(5); err == nil {
		t.Error("over-allocation accepted")
	}
	var frames []Frame
	for i := 0; i < 4; i++ {
		f, err := m.AllocFrames(1)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := m.AllocFrames(1); err == nil {
		t.Error("allocation from empty pool accepted")
	}
	for _, f := range frames {
		if err := m.FreeFrames(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeFramesCount() != 4 {
		t.Errorf("free count = %d, want 4", m.FreeFramesCount())
	}
}

func TestAllocNonPowerOfTwoExact(t *testing.T) {
	// A 7-frame allocation in an 8-frame memory must leave 1 frame usable
	// (exact accounting, not power-of-two rounding).
	m := MustNew(8 * PageSize)
	f, err := m.AllocFrames(7)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreeFramesCount() != 1 {
		t.Fatalf("free frames = %d, want 1", m.FreeFramesCount())
	}
	if _, err := m.AllocFrames(1); err != nil {
		t.Errorf("could not allocate the remaining frame: %v", err)
	}
	if err := m.FreeFrames(f, 7); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	m := MustNew(4 * PageSize)
	f, _ := m.AllocFrames(2)
	if err := m.FreeFrames(f, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrames(f, 2); err == nil {
		t.Error("double free accepted")
	}
	f2, _ := m.AllocFrames(2)
	if err := m.FreeFrames(f2, 1); err == nil {
		t.Error("partial free accepted")
	}
}

func TestCoalescingRestoresLargeBlocks(t *testing.T) {
	m := MustNew(16 * PageSize)
	var frames []Frame
	for i := 0; i < 16; i++ {
		f, err := m.AllocFrames(1)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		if err := m.FreeFrames(f, 1); err != nil {
			t.Fatal(err)
		}
	}
	// After coalescing, a 16-frame allocation must succeed again.
	if _, err := m.AllocFrames(16); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

func TestAllocDistinctNonOverlapping(t *testing.T) {
	m := MustNew(64 * PageSize)
	type span struct{ start, n uint64 }
	var spans []span
	for i := 0; i < 10; i++ {
		n := i%3 + 1
		f, err := m.AllocFrames(n)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, span{uint64(f), uint64(n)})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.start < b.start+b.n && b.start < a.start+a.n {
				t.Fatalf("allocations overlap: %+v %+v", a, b)
			}
		}
	}
}

// Property: any interleaving of allocs and frees never loses frames; after
// freeing everything the full memory is allocatable again.
func TestAllocFreeConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		m := MustNew(32 * PageSize)
		type alloc struct {
			f Frame
			n int
		}
		var live []alloc
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := int(op%4) + 1
				fr, err := m.AllocFrames(n)
				if err != nil {
					continue // exhausted is fine
				}
				live = append(live, alloc{fr, n})
			} else {
				i := int(op) % len(live)
				a := live[i]
				if err := m.FreeFrames(a.f, a.n); err != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			var liveSum uint64
			for _, a := range live {
				liveSum += uint64(a.n)
			}
			if m.FreeFramesCount()+liveSum != 32 {
				return false
			}
		}
		for _, a := range live {
			if err := m.FreeFrames(a.f, a.n); err != nil {
				return false
			}
		}
		_, err := m.AllocFrames(32)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAllocatedBytesAccounting(t *testing.T) {
	m := MustNew(8 * PageSize)
	f, _ := m.AllocFrames(3)
	if m.AllocatedBytes() != 3*PageSize {
		t.Errorf("AllocatedBytes = %d", m.AllocatedBytes())
	}
	_ = m.FreeFrames(f, 3)
	if m.AllocatedBytes() != 0 {
		t.Errorf("AllocatedBytes after free = %d", m.AllocatedBytes())
	}
}

func TestFrameAddrConversion(t *testing.T) {
	if Frame(3).Addr() != 3*PageSize {
		t.Error("Frame.Addr wrong")
	}
	if FrameOf(Addr(3*PageSize+17)) != 3 {
		t.Error("FrameOf wrong")
	}
}

var benchSink *Memory

// BenchmarkNew4MiB is what building one small machine's memory costs: one
// pointer per frame and the buddy's free lists; no frame exists yet.
func BenchmarkNew4MiB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = MustNew(4 << 20)
	}
}

// BenchmarkWriteRead4K is the memory side of one page-sized DMA each way.
func BenchmarkWriteRead4K(b *testing.B) {
	m := MustNew(64 * PageSize)
	buf := make([]byte, PageSize)
	b.ReportAllocs()
	b.SetBytes(2 * PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(8*PageSize, buf); err != nil {
			b.Fatal(err)
		}
		if err := m.ReadInto(8*PageSize, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadWriteU64 is the access the IOMMU's page walk and the
// virtqueue's ring indices make: one aligned word inside a resident frame.
func BenchmarkReadWriteU64(b *testing.B) {
	m := MustNew(64 * PageSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := Addr(8*PageSize + i%512*8)
		if err := m.WriteU64(addr, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if v, err := m.ReadU64(addr); err != nil || v != uint64(i) {
			b.Fatal(v, err)
		}
	}
}

// BenchmarkAllocFreeFrames16 is the allocator's side of one 64 KiB region:
// the buddy, and the scrub of whichever of the sixteen frames were written
// (here one, as a page table or a ring would be).
func BenchmarkAllocFreeFrames16(b *testing.B) {
	m := MustNew(4 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := m.AllocFrames(16)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.WriteU64(f.Addr(), 1); err != nil {
			b.Fatal(err)
		}
		if err := m.FreeFrames(f, 16); err != nil {
			b.Fatal(err)
		}
	}
}
