package smartssd

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"nocpu/internal/sim"
)

func testGeo() FlashGeometry {
	return FlashGeometry{Channels: 2, DiesPerChan: 1, BlocksPerDie: 8, PagesPerBlock: 8, PageSize: 4096}
}

// The page ops with a callback, for tests: each issues a record of its own
// whose completion calls cb.

type pageCB func(op *pageOp, err error)

func (cb pageCB) pageDone(op *pageOp, err error) { cb(op, err) }

func flashRead(f *flash, p PPA, cb func([]byte, error)) {
	f.readOp(&pageOp{ppa: p, done: pageCB(func(op *pageOp, err error) { cb(op.page, err) })})
}

func flashProgram(f *flash, p PPA, data []byte, cb func(error)) {
	f.programOp(&pageOp{ppa: p, page: data, done: pageCB(func(_ *pageOp, err error) { cb(err) })})
}

func flashErase(f *flash, block int, cb func(error)) {
	f.eraseOp(&pageOp{ppa: PPA(block * f.geo.PagesPerBlock), done: pageCB(func(_ *pageOp, err error) { cb(err) })})
}

func ftlRead(t *ftl, lpn int, cb func([]byte, error)) {
	t.readOp(&pageOp{lpn: lpn, done: pageCB(func(op *pageOp, err error) { cb(op.page, err) })})
}

func ftlWrite(t *ftl, lpn int, data []byte, cb func(error)) {
	t.writeOp(&pageOp{lpn: lpn, page: data, done: pageCB(func(_ *pageOp, err error) { cb(err) })})
}

// padPage is a page read back as its readers see it: its bytes, then
// zeros up to PageSize.
func padPage(geo FlashGeometry, page []byte) []byte {
	return append(bytes.Clone(page), make([]byte, geo.PageSize-len(page))...)
}

func TestFlashReadProgramErase(t *testing.T) {
	eng := sim.NewEngine()
	f := newFlash(eng, testGeo(), DefaultTiming)
	data := []byte("flash payload")
	var got []byte
	flashProgram(f, 3, data, func(err error) {
		if err != nil {
			t.Error(err)
		}
		flashRead(f, 3, func(b []byte, err error) { got = b })
	})
	eng.Run()
	if !bytes.Equal(padPage(f.geo, got), padPage(f.geo, data)) {
		t.Fatalf("read back %q", got)
	}
	// Program-on-programmed must fail.
	var perr error
	flashProgram(f, 3, data, func(err error) { perr = err })
	eng.Run()
	if perr == nil {
		t.Error("double program accepted")
	}
	// Erase block 0 (pages 0-7) clears page 3.
	flashErase(f, 0, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	flashRead(f, 3, func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(padPage(f.geo, got), make([]byte, f.geo.PageSize)) {
		t.Error("erase did not clear page")
	}
	if f.erases[0] != 1 {
		t.Error("wear not counted")
	}
}

func TestFlashTiming(t *testing.T) {
	eng := sim.NewEngine()
	f := newFlash(eng, testGeo(), DefaultTiming)
	var doneAt sim.Time
	flashRead(f, 0, func([]byte, error) { doneAt = eng.Now() })
	eng.Run()
	if doneAt != sim.Time(DefaultTiming.Read) {
		t.Errorf("read completed at %v, want %v", doneAt, DefaultTiming.Read)
	}
	// Two reads on the same channel serialize; different channels overlap.
	// Geometry: block = ppa/8; channel = block%2. PPA 0 and 8 are on
	// different channels; 0 and 16 share channel 0.
	eng2 := sim.NewEngine()
	f2 := newFlash(eng2, testGeo(), DefaultTiming)
	var t1, t2, t3 sim.Time
	flashRead(f2, 0, func([]byte, error) { t1 = eng2.Now() })
	flashRead(f2, 16, func([]byte, error) { t2 = eng2.Now() })
	flashRead(f2, 8, func([]byte, error) { t3 = eng2.Now() })
	eng2.Run()
	if t1 != sim.Time(DefaultTiming.Read) || t3 != t1 {
		t.Errorf("parallel channels: t1=%v t3=%v", t1, t3)
	}
	if t2 != sim.Time(2*DefaultTiming.Read) {
		t.Errorf("same channel serialized: t2=%v", t2)
	}
}

func TestFlashBoundsAndBroken(t *testing.T) {
	eng := sim.NewEngine()
	f := newFlash(eng, testGeo(), DefaultTiming)
	var errs int
	flashRead(f, PPA(f.geo.TotalPages()), func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	})
	flashProgram(f, PPA(f.geo.TotalPages()), nil, func(err error) {
		if err != nil {
			errs++
		}
	})
	flashErase(f, -1, func(err error) {
		if err != nil {
			errs++
		}
	})
	f.broken = true
	flashRead(f, 0, func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	})
	eng.Run()
	if errs != 4 {
		t.Errorf("errs = %d, want 4", errs)
	}
}

func TestFTLReadUnwrittenIsZeros(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	var got []byte
	ftlRead(ftl, 5, func(b []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = b
	})
	eng.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten page not zeroed")
		}
	}
}

func TestFTLWriteReadOverwrite(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	var got []byte
	ftlWrite(ftl, 7, v1, func(err error) {
		if err != nil {
			t.Error(err)
		}
		ftlWrite(ftl, 7, v2, func(err error) {
			if err != nil {
				t.Error(err)
			}
			ftlRead(ftl, 7, func(b []byte, err error) { got = b })
		})
	})
	eng.Run()
	if !bytes.Equal(got, v2) {
		t.Fatal("overwrite not visible")
	}
	if ftl.Stats().HostWrites != 2 {
		t.Errorf("host writes = %d", ftl.Stats().HostWrites)
	}
}

func TestFTLBounds(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	var errs int
	ftlRead(ftl, ftl.Capacity(), func(_ []byte, err error) {
		if err != nil {
			errs++
		}
	})
	ftlWrite(ftl, -1, nil, func(err error) {
		if err != nil {
			errs++
		}
	})
	eng.Run()
	if errs != 2 {
		t.Errorf("errs = %d", errs)
	}
}

func TestFTLGarbageCollection(t *testing.T) {
	// Small array: 2ch x 1die x 8blk x 8pg = 128 pages, 25% OP -> 96
	// logical. Rewriting one hot page many times forces GC.
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	payload := bytes.Repeat([]byte{7}, 4096)
	writes := 0
	var write func()
	write = func() {
		if writes >= 400 {
			return
		}
		writes++
		ftlWrite(ftl, writes%8, payload, func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", writes, err)
				return
			}
			write()
		})
	}
	write()
	eng.Run()
	st := ftl.Stats()
	if st.GCRuns == 0 {
		t.Error("GC never ran despite 400 writes into 128 pages")
	}
	if st.Erases == 0 {
		t.Error("no erases recorded")
	}
	// The hot pages must still read back correctly after GC churn.
	var got []byte
	ftlRead(ftl, 1, func(b []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Error("data corrupted by GC")
	}
	if wa := st.WriteAmplification(); wa < 1.0 {
		t.Errorf("write amplification %f < 1", wa)
	}
}

func TestFTLGCPreservesColdData(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	cold := bytes.Repeat([]byte{0xCD}, 4096)
	hot := bytes.Repeat([]byte{0x11}, 4096)
	// Write cold data once, then hammer another page to force relocations.
	ftlWrite(ftl, 50, cold, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		var loop func(i int)
		loop = func(i int) {
			if i >= 300 {
				return
			}
			ftlWrite(ftl, 3, hot, func(err error) {
				if err != nil {
					t.Errorf("hot write: %v", err)
					return
				}
				loop(i + 1)
			})
		}
		loop(0)
	})
	eng.Run()
	var got []byte
	ftlRead(ftl, 50, func(b []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, cold) {
		t.Error("cold data lost during GC")
	}
}

func TestFTLWearAccounting(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	if w := ftl.Wear(); w.Total != 0 || w.MinErases != 0 {
		t.Fatalf("fresh wear = %+v", w)
	}
	payload := bytes.Repeat([]byte{3}, 4096)
	var loop func(i int)
	loop = func(i int) {
		if i >= 500 {
			return
		}
		ftlWrite(ftl, i%16, payload, func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			loop(i + 1)
		})
	}
	loop(0)
	eng.Run()
	w := ftl.Wear()
	if w.Total == 0 {
		t.Fatal("no erases after 500 writes into 128 pages")
	}
	if w.MaxErases < w.MinErases {
		t.Fatalf("inconsistent wear: %+v", w)
	}
	if w.Total != ftl.Stats().Erases {
		t.Fatalf("wear total %d != stats erases %d", w.Total, ftl.Stats().Erases)
	}
}

func TestFTLTrim(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	ftlWrite(ftl, 2, bytes.Repeat([]byte{9}, 4096), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ftl.Trim(2)
		ftlRead(ftl, 2, func(b []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			if !bytes.Equal(padPage(ftl.geo, b), make([]byte, ftl.geo.PageSize)) {
				t.Error("trimmed page still has data")
			}
		})
	})
	eng.Run()
}

// heldPages counts the physical pages whose data the flash still holds,
// and those merely marked programmed (a dropped page is the empty page).
func heldPages(f *flash) (held, programmed int) {
	for _, row := range f.pages {
		for _, p := range row {
			if p == nil {
				continue
			}
			programmed++
			if len(p) != 0 {
				held++
			}
		}
	}
	return held, programmed
}

// Overwriting a logical page leaves one stale physical page per write
// behind until GC erases its block; the flash keeps the data of mapped
// pages only, yet a stale page still counts as programmed.
func TestFlashDropsStalePages(t *testing.T) {
	eng := sim.NewEngine()
	f := newFlash(eng, testGeo(), DefaultTiming)
	ftl := newFTL(eng, f, 0.25)
	const rewrites = 20 // 24 programs in all: well short of the GC threshold
	write := func(lpn int, fill byte) {
		ftlWrite(ftl, lpn, bytes.Repeat([]byte{fill}, 4096), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
		eng.Run()
	}
	write(1, 0xA1)
	write(2, 0xA2)
	write(5, 0xFF)
	stale := ftl.l2p[5] // the first copy, overwritten next
	for i := 0; i < rewrites; i++ {
		write(5, byte(i))
	}
	write(2, 0xB2)
	if ftl.Stats().GCRuns != 0 {
		t.Fatal("GC ran: the test no longer isolates the drop")
	}
	if held, programmed := heldPages(f); held != 3 || programmed != rewrites+4 {
		t.Errorf("flash holds data for %d of %d programmed pages, want 3 (the mapped ones) of %d", held, programmed, rewrites+4)
	}
	ftl.Trim(1)
	if held, _ := heldPages(f); held != 2 {
		t.Errorf("flash holds %d pages after a trim, want 2", held)
	}
	var got []byte
	ftlRead(ftl, 5, func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(padPage(f.geo, got), bytes.Repeat([]byte{rewrites - 1}, 4096)) {
		t.Error("latest copy of the rewritten page lost")
	}

	// A dropped page is still programmed until its block is erased.
	var perr error
	flashProgram(f, stale, []byte("again"), func(err error) { perr = err })
	eng.Run()
	if perr == nil || !strings.Contains(perr.Error(), "non-erased ppa") {
		t.Errorf("program of a dropped page: %v, want the non-erased refusal", perr)
	}
	flashErase(f, f.geo.blockOf(stale), func(err error) { perr = err })
	eng.Run()
	flashProgram(f, stale, []byte("again"), func(err error) { perr = err })
	eng.Run()
	if perr != nil {
		t.Errorf("program after erase: %v", perr)
	}
}

// The array costs the host what was programmed into it: no page state at
// construction (the default geometry used to be 32 768 slice headers an
// SSD, which every collection scanned), one row with a block's first
// page, gone again with the erase. A page of a block without a row reads
// as zeros, dropping it is a no-op, and a dropped page of a block with one
// stays programmed until the erase.
func TestFlashRowsFollowPrograms(t *testing.T) {
	eng := sim.NewEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := newFlash(eng, DefaultGeometry, DefaultTiming)
	runtime.ReadMemStats(&after)
	// Measured 17 976 bytes (22 072 while the zero page was a 4 KiB page).
	if got := after.TotalAlloc - before.TotalAlloc; got > 60<<10 {
		t.Errorf("newFlash allocated %d bytes, want a header per block and no more", got)
	}
	rows := func() (n int) {
		for _, row := range f.pages {
			if row != nil {
				n++
			}
		}
		return n
	}
	const ppa = PPA(5*64 + 9) // block 5, page 9
	run := func(what string, op func(cb func(error))) {
		t.Helper()
		op(func(err error) {
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		})
		eng.Run()
	}
	readsZeros := func(when string) {
		t.Helper()
		flashRead(f, ppa, func(b []byte, err error) {
			if empty := b != nil && len(b) == 0; err != nil || !empty || !bytes.Equal(padPage(f.geo, b), make([]byte, f.geo.PageSize)) {
				t.Errorf("%s the page reads %v (shared empty page: %v)", when, err, empty)
			}
		})
		eng.Run()
	}
	f.drop(ppa)
	readsZeros("before any program")
	if rows() != 0 {
		t.Fatalf("%d rows before any program", rows())
	}
	page := bytes.Repeat([]byte{7}, 4096)
	run("program", func(cb func(error)) { flashProgram(f, ppa, page, cb) })
	run("program of a second page", func(cb func(error)) { flashProgram(f, ppa+1, page, cb) })
	if held, programmed := heldPages(f); rows() != 1 || held != 2 || programmed != 2 {
		t.Fatalf("two pages of one block: %d rows, %d held, %d programmed", rows(), held, programmed)
	}
	f.drop(ppa)
	readsZeros("after the drop")
	var perr error
	flashProgram(f, ppa, page, func(err error) { perr = err })
	eng.Run()
	if perr == nil {
		t.Error("a dropped page was programmed again before its erase")
	}
	run("erase", func(cb func(error)) { flashErase(f, 5, cb) })
	readsZeros("after the erase")
	if rows() != 0 {
		t.Errorf("%d rows after the erase", rows())
	}
	run("program after erase", func(cb func(error)) { flashProgram(f, ppa, page, cb) })
}

// A host read already on its way to a physical page returns that page's
// data even if an overwrite completes, and drops the page, first.
func TestFTLReadInFlightAcrossOverwrite(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	v1, v2 := bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)
	ftlWrite(ftl, 4, v1, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	overwritten := false
	ftlWrite(ftl, 4, v2, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		overwritten = true
	})
	eng.RunFor(DefaultTiming.Program - DefaultTiming.Read/2)
	var got []byte
	ftlRead(ftl, 4, func(b []byte, err error) {
		if !overwritten {
			t.Error("the read completed before the overwrite: nothing tested")
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, v1) {
		t.Error("read in flight across an overwrite did not return the page it was issued to")
	}
	ftlRead(ftl, 4, func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(got, v2) {
		t.Error("overwrite not visible to a later read")
	}
}

// GC that runs out of free pages part-way through a victim must leave the
// victim alone: its remaining valid pages are still what l2p points at.
func TestFTLGCAbandonedRelocationKeepsData(t *testing.T) {
	eng := sim.NewEngine()
	ftl := newFTL(eng, newFlash(eng, testGeo(), DefaultTiming), 0.25)
	// Sixteen cold pages fill one block on each channel exactly.
	for lpn := 0; lpn < 16; lpn++ {
		ftlWrite(ftl, lpn, bytes.Repeat([]byte{byte(0xC0 + lpn)}, 4096), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	eng.Run()
	// No free block and no open one: relocation's first allocPage fails.
	ftl.freeBlocks = nil
	if _, err := ftl.allocPage(); err == nil {
		t.Fatal("setup: allocPage still succeeds")
	}
	ftl.maybeGC()
	eng.Run()
	if ftl.Stats().GCRuns != 1 || ftl.gcRunning {
		t.Fatalf("GC runs = %d, still running = %v; want one finished run", ftl.Stats().GCRuns, ftl.gcRunning)
	}
	if ftl.Stats().Erases != 0 || len(ftl.freeBlocks) != 0 {
		t.Error("abandoned GC erased its victim")
	}
	for lpn := 0; lpn < 16; lpn++ {
		var got []byte
		ftlRead(ftl, lpn, func(b []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			got = b
		})
		eng.Run()
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(0xC0 + lpn)}, 4096)) {
			t.Fatalf("cold page %d lost after an abandoned GC", lpn)
		}
	}
}

func BenchmarkFlashProgramRead(b *testing.B) {
	eng := sim.NewEngine()
	f := newFlash(eng, DefaultGeometry, DefaultTiming)
	page := make([]byte, f.geo.PageSize)
	op := pageOp{done: failOnError{b}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ppa := PPA(i % f.geo.TotalPages())
		if ppa == 0 && i > 0 {
			// Every page is programmed: start over.
			for blk := 0; blk < f.geo.TotalBlocks(); blk++ {
				op.ppa = PPA(blk * f.geo.PagesPerBlock)
				f.eraseOp(&op)
				eng.Run()
			}
		}
		op.ppa, op.page = ppa, page
		f.programOp(&op)
		eng.Run()
		op.ppa = ppa
		f.readOp(&op)
		eng.Run()
	}
}

// failOnError is a page op's completion that fails the benchmark on error.
type failOnError struct{ b *testing.B }

func (c failOnError) pageDone(_ *pageOp, err error) {
	if err != nil {
		c.b.Fatal(err)
	}
}
