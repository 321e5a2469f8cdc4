package exp

import (
	"fmt"

	"nocpu/internal/core"
	"nocpu/internal/iommu"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// hugeApp allocates one large shared region, 4K- or huge-mapped.
type hugeApp struct {
	id    msg.AppID
	huge  bool
	bytes uint64
	va    uint64
	ready bool
	err   error
}

func (a *hugeApp) AppID() msg.AppID { return a.id }
func (a *hugeApp) Boot(rt *smartnic.Runtime) {
	done := func(va uint64, err error) {
		a.va, a.err, a.ready = va, err, true
	}
	if a.huge {
		rt.AllocSharedHuge(core.ControlID, a.bytes, done)
		return
	}
	rt.AllocShared(core.ControlID, a.bytes, done)
}
func (a *hugeApp) ServeNetwork(p []byte, reply func([]byte)) { reply(p) }
func (a *hugeApp) PeerFailed(msg.DeviceID)                   {}

// E13HugePages ablates the IOMMU mapping granule: a 64 MiB region mapped
// with 4 KiB vs 2 MiB pages — table-programming cost at setup and
// TLB reach under a scattered DMA sweep.
func E13HugePages() *Result {
	res := &Result{ID: "E13", Title: "IOMMU huge pages: setup cost and TLB reach"}
	const regionBytes = 64 << 20
	tb := metrics.NewTable("64 MiB shared region, then 4096 scattered 64B DMA reads (default 256-entry TLB)",
		"granule", "alloc+map latency", "PTEs", "TLB hit rate", "walk reads/DMA", "sweep avg latency")
	for _, huge := range []bool{false, true} {
		sys := boot(core.Options{
			Flavor: core.Decentralized, Seed: 131, NoTrace: true,
			MemoryBytes: 256 << 20,
		})
		app := &hugeApp{id: 1, huge: huge, bytes: regionBytes}
		start := sys.Eng.Now()
		sys.NIC().AddApp(app)
		for !app.ready {
			if !sys.Eng.Step() {
				break
			}
		}
		if app.err != nil {
			panic(app.err)
		}
		setup := sys.Eng.Now().Sub(start)
		ptes := regionBytes / physmem.PageSize
		if huge {
			ptes = regionBytes / int(iommu.HugePageSize)
		}

		// Scattered DMA sweep.
		port := sys.NIC().Device().DMA()
		rng := sys.Rand.Fork()
		mmu := sys.NIC().Device().IOMMU()
		base := mmu.Stats()
		sweepStart := sys.Eng.Now()
		const n = 4096
		for i := 0; i < n; i++ {
			off := uint64(rng.Intn(regionBytes-64)) &^ 63
			done := false
			port.Read(1, iommu.VirtAddr(app.va+off), 64, func(_ []byte, err error) {
				if err != nil {
					panic(err)
				}
				done = true
			})
			for !done && sys.Eng.Step() {
			}
		}
		sweep := sys.Eng.Now().Sub(sweepStart)
		st := mmu.Stats()
		lookups := float64(st.TLBHits - base.TLBHits + st.TLBMisses - base.TLBMisses)
		hitRate := 100 * float64(st.TLBHits-base.TLBHits) / lookups
		walks := float64(st.WalkReads-base.WalkReads) / n

		label := "4 KiB"
		if huge {
			label = "2 MiB (huge)"
		}
		tb.AddRow(label, setup, ptes,
			fmt.Sprintf("%.1f%%", hitRate),
			fmt.Sprintf("%.2f", walks),
			sweep/sim.Duration(n))
	}
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"huge pages cut bus table-programming 512x at setup and fit the whole region in 32 TLB entries; 4K mappings thrash the 256-entry TLB",
		"the memory controller hands out contiguous naturally-aligned runs (buddy allocator), the bus installs level-2 leaves")
	return res
}
