package core

import (
	"runtime"
	"testing"

	"nocpu/internal/iommu"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/smartnic"
)

// regionApp is a NIC app that only wants its runtime.
type regionApp struct{ rt *smartnic.Runtime }

func (a *regionApp) AppID() msg.AppID                  { return 1 }
func (a *regionApp) Boot(rt *smartnic.Runtime)         { a.rt = rt }
func (a *regionApp) ServeNetwork([]byte, func([]byte)) {}
func (a *regionApp) PeerFailed(msg.DeviceID)           {}

// An app that allocates and frees a 64 KiB region walks its device-virtual
// address space forward for good (reserveVA never reuses an address), so
// every 2 MiB of it needs a new leaf table in the NIC's IOMMU. The tables
// an unmap empties come back: 40 000 cycles fit in a 4 MiB machine, and the
// frame count ends where the first cycle left it. (The benchmark's
// memctrl.probe.alloc_free_64k is this loop; it ran out of frames near
// cycle 30 208 while empty tables stayed until DestroyContext.) Both
// placements of the region table run it: the controller behind the bus,
// and the kernel behind its mmap and munmap syscalls.
func TestAllocFreeCyclesGiveTablesBack(t *testing.T) {
	for _, flavor := range []Flavor{Decentralized, Centralized} {
		t.Run(flavor.String(), func(t *testing.T) {
			s := bootSystem(t, Options{Flavor: flavor, Seed: 11, MemoryBytes: 4 << 20, NoTrace: true})
			app := &regionApp{}
			s.NIC().AddApp(app)
			cycle := func(i int) {
				done := false
				app.rt.AllocShared(ControlID, 64<<10, func(va uint64, err error) {
					if err != nil {
						t.Fatalf("cycle %d: alloc: %v", i, err)
					}
					app.rt.Free(ControlID, va, 64<<10, func(err error) {
						if err != nil {
							t.Fatalf("cycle %d: free: %v", i, err)
						}
						done = true
					})
				})
				for !done && s.Eng.Step() {
				}
				if !done {
					t.Fatalf("cycle %d never completed", i)
				}
			}
			cycle(0) // the NIC's IOMMU now holds its spare tables
			free := s.Mem.FreeFramesCount()
			for i := 1; i <= 40000; i++ {
				cycle(i)
			}
			if got := s.Mem.FreeFramesCount(); got != free {
				t.Errorf("%d frames free after 40 000 cycles, %d after the first", got, free)
			}
		})
	}
}

// A huge mmap on the centralized machine is backed by 2 MiB runs and
// mapped with 2 MiB PTEs, as the controller and the bus do it on the
// decentralized one (memctrl's TestHugeAllocProgramsHugePTEs).
func TestCentralizedHugeMmapProgramsHugePTEs(t *testing.T) {
	s := bootSystem(t, Options{Flavor: Centralized, NoTrace: true})
	app := &regionApp{}
	s.NIC().AddApp(app)
	s.Eng.Run()
	mapped := s.CPU.Stats().PagesMapped
	var va uint64
	var allocErr error
	done := false
	app.rt.AllocSharedHuge(ControlID, 2*iommu.HugePageSize, func(v uint64, err error) { va, allocErr, done = v, err, true })
	s.Eng.Run()
	if !done || allocErr != nil {
		t.Fatalf("huge mmap: done=%v err=%v", done, allocErr)
	}
	mmu := s.NIC().Device().IOMMU()
	// A single translation covers any page within a run; only 3 walk
	// reads (short walk).
	pa, reads, err := mmu.Translate(iommu.PASID(app.AppID()), iommu.VirtAddr(va+123456), iommu.AccessRead)
	if err != nil {
		t.Fatal(err)
	}
	if reads != 3 {
		t.Fatalf("huge walk reads = %d, want 3", reads)
	}
	for run := uint64(0); run < 2; run++ {
		f, _, ok := mmu.Lookup(iommu.PASID(app.AppID()), iommu.VirtAddr(va+run*iommu.HugePageSize))
		if !ok || uint64(f)%uint64(iommu.HugeFrames) != 0 {
			t.Fatalf("run %d: frame %d mapped=%v, want a 2 MiB-aligned run", run, f, ok)
		}
		if run == 0 && pa != physmem.Addr(uint64(f.Addr())+123456) {
			t.Fatalf("pa = %#x, want run base %#x + 123456", pa, f.Addr())
		}
	}
	// The kernel accounts in 4K units, as the bus does.
	if got := s.CPU.Stats().PagesMapped - mapped; got != uint64(2*iommu.HugeFrames) {
		t.Fatalf("pages mapped = %d, want %d", got, 2*iommu.HugeFrames)
	}
}

// A machine costs the host what it touched, not the DRAM it declared. On
// the default 128 MiB machine New+Boot+CreateFile leaves 0 frames resident
// (a root table is written by its first Map, and the file goes to the SSD
// by the management path); a KVS store with its file connection open, one
// put and one get leave 11 (two IOMMUs' tables, the queue's rings and
// cells). Both measured, with a margin of two; all of it is 0.75 MB of host
// allocation where the declared memory alone was 128 MiB.
func TestMachineCostsWhatItTouches(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := bootSystem(t, Options{Flavor: Decentralized})
	if err := s.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.ResidentFrames(); got > 0+2 {
		t.Errorf("%d frames resident after New+Boot+CreateFile, want at most 2", got)
	}
	store := s.NewKVS(KVSOptions{App: 1, File: "kv.dat"})
	if err := s.WaitReady(store); err != nil {
		t.Fatal(err)
	}
	kvsOp(t, s, store, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte("v")})
	kvsOp(t, s, store, kvs.Request{Op: kvs.OpGet, Key: "k"})
	runtime.ReadMemStats(&after)
	if got := s.Mem.ResidentFrames(); got > 11+2 {
		t.Errorf("%d frames resident after a put and a get, want at most 13", got)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("machine, store and two ops allocated %d bytes, want under 2 MiB", got)
	}
}

var benchSink *System

// BenchmarkNewBoot is what one machine of a rack costs the host to build
// and boot, at the default 128 MiB of declared memory.
func BenchmarkNewBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := MustNew(Options{Flavor: Decentralized, Seed: 11, NoTrace: true})
		if err := s.Boot(); err != nil {
			b.Fatal(err)
		}
		benchSink = s
	}
}
