package iommu

import (
	"testing"

	"nocpu/internal/physmem"
)

// BenchmarkTranslate is the unit price under every DMA (the port calls
// Translate once per page a transfer touches): a TLB hit, a miss that
// walks and refills a full TLB, and the bare four-level walk with the TLB
// off.
func BenchmarkTranslate(b *testing.B) {
	// Eight times the default TLB's 256 entries: 32 pages per set on
	// average, so no set is left holding a page until it comes up again.
	const pages = 2048
	const base = VirtAddr(0x4000_0000)
	for _, c := range []struct {
		name  string
		cfg   Config
		span  int // pages touched round-robin
		walks int // page-table reads per translation
	}{
		{"hit", DefaultConfig, 1, 0},
		{"miss", DefaultConfig, pages, 4},
		{"walk", Disabled, 1, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			mem := physmem.MustNew(4096 * physmem.PageSize)
			u := New("bench", mem, c.cfg)
			if err := u.CreateContext(1); err != nil {
				b.Fatal(err)
			}
			f, err := mem.AllocFrames(pages)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < pages; i++ {
				if err := u.Map(1, base+VirtAddr(i*physmem.PageSize), f+physmem.Frame(i), PermRW); err != nil {
					b.Fatal(err)
				}
			}
			// Warm the one page "hit" uses; "miss" meets it last.
			if _, _, err := u.Translate(1, base+VirtAddr((c.span-1)*physmem.PageSize), AccessRead); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				va := base + VirtAddr((i%c.span)*physmem.PageSize) + 40
				_, reads, err := u.Translate(1, va, AccessRead)
				if err != nil || reads != c.walks {
					b.Fatalf("translate %#x: %d walk reads (want %d), %v", uint64(va), reads, c.walks, err)
				}
			}
		})
	}
}

// BenchmarkMapUnmapRange16 is the IOMMU's side of one 64 KiB region coming
// and going, as the bus does it for an alloc and its free: sixteen pages
// mapped and unmapped at a device-virtual address that only ever advances,
// so every iteration builds the tables under its range and gives them back
// (the reclaim and the spare list are in the number).
func BenchmarkMapUnmapRange16(b *testing.B) {
	mem := physmem.MustNew(1024 * physmem.PageSize)
	u := New("bench", mem, DefaultConfig)
	region, err := mem.AllocFrames(16)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]physmem.Frame, 16)
	for i := range frames {
		frames[i] = region + physmem.Frame(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := VirtAddr(0x4000_0000 + uint64(i)*16*physmem.PageSize)
		if err := MapRange(u, 1, va, frames, PermRW, false); err != nil {
			b.Fatal(err)
		}
		if n := u.UnmapRange(1, va, 16, false); n != 16 {
			b.Fatalf("unmapped %d of 16 pages", n)
		}
	}
}
