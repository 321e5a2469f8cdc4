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
