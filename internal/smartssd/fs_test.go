package smartssd

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"testing"

	"nocpu/internal/sim"
)

// fsWorld builds a formatted filesystem on a fresh FTL over a small array.
func fsWorld(t testing.TB) (*sim.Engine, *FS) {
	t.Helper()
	return fsWorldOn(t, FlashGeometry{Channels: 2, DiesPerChan: 1, BlocksPerDie: 32, PagesPerBlock: 16, PageSize: 4096})
}

func fsWorldOn(t testing.TB, geo FlashGeometry) (*sim.Engine, *FS) {
	t.Helper()
	eng := sim.NewEngine()
	f := newFTL(eng, newFlash(eng, geo, DefaultTiming), 0.125)
	fs := newFS(f, FSConfig{MaxFiles: 32})
	var ferr error
	fs.Format(func(err error) { ferr = err })
	eng.Run()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return eng, fs
}

func mustCreate(t testing.TB, eng *sim.Engine, fs *FS, name string) *File {
	t.Helper()
	var f *File
	var cerr error
	fs.Create(name, func(nf *File, err error) { f, cerr = nf, err })
	eng.Run()
	if cerr != nil {
		t.Fatal(cerr)
	}
	return f
}

// names lists the volume's files in directory order.
func names(fs *FS) []string {
	var out []string
	for _, in := range fs.inodes {
		if in.used {
			out = append(out, in.name)
		}
	}
	return out
}

func TestCreateLookupList(t *testing.T) {
	eng, fs := fsWorld(t)
	mustCreate(t, eng, fs, "kv.dat")
	mustCreate(t, eng, fs, "kv.log")
	if _, ok := fs.Lookup("kv.dat"); !ok {
		t.Error("lookup failed")
	}
	if _, ok := fs.Lookup("nope"); ok {
		t.Error("phantom file")
	}
	l := names(fs)
	if len(l) != 2 || l[0] != "kv.dat" || l[1] != "kv.log" {
		t.Errorf("list = %v", l)
	}
	// Duplicate create rejected.
	var derr error
	fs.Create("kv.dat", func(_ *File, err error) { derr = err })
	eng.Run()
	if derr == nil {
		t.Error("duplicate create accepted")
	}
	// Bad names rejected.
	fs.Create("", func(_ *File, err error) { derr = err })
	eng.Run()
	if derr == nil {
		t.Error("empty name accepted")
	}
}

func TestWriteReadSmall(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	payload := []byte("hello filesystem")
	f.WriteAt(0, payload, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if f.Size() != uint64(len(payload)) {
		t.Fatalf("size = %d", f.Size())
	}
	var got []byte
	f.ReadAt(0, len(payload), func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestWriteReadLargeCrossPage(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "big")
	payload := make([]byte, 3*4096+777)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	f.WriteAt(0, payload, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	var got []byte
	f.ReadAt(0, len(payload), func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-page round trip corrupt")
	}
}

func TestSparseWriteAtOffset(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "sparse")
	f.WriteAt(10000, []byte("tail"), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if f.Size() != 10004 {
		t.Fatalf("size = %d", f.Size())
	}
	var got []byte
	f.ReadAt(9998, 6, func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(got, []byte{0, 0, 't', 'a', 'i', 'l'}) {
		t.Errorf("got %v", got)
	}
}

func TestPartialPageRMW(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "rmw")
	f.WriteAt(0, bytes.Repeat([]byte{0xAA}, 4096), func(error) {})
	eng.Run()
	f.WriteAt(100, []byte{1, 2, 3}, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	var got []byte
	f.ReadAt(98, 7, func(b []byte, err error) { got = b })
	eng.Run()
	want := []byte{0xAA, 0xAA, 1, 2, 3, 0xAA, 0xAA}
	if !bytes.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

// Every unmapped page reads as the one shared page of zeros; a partial
// write into such a page must build its own page, not write through it.
func TestUnmappedPagesStayZeroAfterRMW(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "sparse")
	// One byte in page 3 leaves pages 0-2 allocated but never written.
	f.WriteAt(3*4096, []byte{7}, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	readPage := func(idx int) []byte {
		var got []byte
		f.ReadAt(uint64(idx)*4096, 4096, func(b []byte, err error) {
			if err != nil {
				t.Error(err)
			}
			got = b
		})
		eng.Run()
		return got
	}
	zeros := make([]byte, 4096)
	if !bytes.Equal(readPage(0), zeros) {
		t.Fatal("unwritten page 0 not zero")
	}
	f.WriteAt(100, []byte{1, 2, 3}, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if got := readPage(0); !bytes.Equal(got[100:103], []byte{1, 2, 3}) {
		t.Errorf("partial write lost: %v", got[98:105])
	}
	for _, idx := range []int{1, 2} {
		if !bytes.Equal(readPage(idx), zeros) {
			t.Errorf("unwritten page %d no longer reads as zeros: the shared zero page was written", idx)
		}
	}
}

func TestAppendGrows(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "log")
	for i := 0; i < 10; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1000)
		f.WriteAt(f.Size(), rec, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
		eng.Run()
	}
	if f.Size() != 10000 {
		t.Fatalf("size = %d", f.Size())
	}
	var got []byte
	f.ReadAt(5000, 1000, func(b []byte, err error) { got = b })
	eng.Run()
	if got[0] != 5 || got[999] != 5 {
		t.Error("append record 5 corrupt")
	}
}

func TestReadPastEOF(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "short")
	f.WriteAt(0, []byte("abc"), func(error) {})
	eng.Run()
	var got []byte
	called := false
	f.ReadAt(2, 100, func(b []byte, err error) { got = b; called = true })
	eng.Run()
	if !called || !bytes.Equal(got, []byte("c")) {
		t.Errorf("clipped read = %q", got)
	}
	f.ReadAt(50, 10, func(b []byte, err error) {
		if b != nil || err != nil {
			t.Error("read beyond EOF should be empty, nil error")
		}
	})
	eng.Run()
}

func TestTruncate(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "t")
	f.WriteAt(0, make([]byte, 2*4096), func(error) {})
	eng.Run()
	f.Truncate(func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if f.Size() != 0 {
		t.Error("size nonzero after truncate")
	}
	f.WriteAt(0, []byte("new"), func(error) {})
	eng.Run()
	var got []byte
	f.ReadAt(0, 3, func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(got, []byte("new")) {
		t.Error("write after truncate broken")
	}
}

func TestConcurrentWritesSamePageNoLostUpdate(t *testing.T) {
	// Eight concurrent partial-page writes at adjacent offsets within one
	// page: without per-page serialization, read-modify-write windows
	// overlap and updates vanish.
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "hot")
	const n = 8
	const recLen = 300
	done := 0
	for i := 0; i < n; i++ {
		rec := bytes.Repeat([]byte{byte(i + 1)}, recLen)
		f.WriteAt(uint64(i*recLen), rec, func(err error) {
			if err != nil {
				t.Errorf("write %v", err)
			}
			done++
		})
	}
	eng.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	var got []byte
	f.ReadAt(0, n*recLen, func(b []byte, err error) { got = b })
	eng.Run()
	for i := 0; i < n; i++ {
		for j := 0; j < recLen; j++ {
			if got[i*recLen+j] != byte(i+1) {
				t.Fatalf("lost update: record %d byte %d = %d", i, j, got[i*recLen+j])
			}
		}
	}
}

func TestMountRecoversEverything(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "persist.dat")
	payload := bytes.Repeat([]byte{0x5A}, 9000)
	f.WriteAt(0, payload, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	mustCreate(t, eng, fs, "other")
	eng.Run()

	// Build a new FS view over the same FTL (same flash) — a remount
	// after reset.
	fs2 := newFS(fs.ftl, FSConfig{MaxFiles: 32})
	var merr error
	fs2.Mount(func(err error) { merr = err })
	eng.Run()
	if merr != nil {
		t.Fatal(merr)
	}
	if l := names(fs2); len(l) != 2 {
		t.Fatalf("recovered files = %v", l)
	}
	rf, ok := fs2.Lookup("persist.dat")
	if !ok {
		t.Fatal("file lost across mount")
	}
	if rf.Size() != 9000 {
		t.Fatalf("recovered size = %d", rf.Size())
	}
	var got []byte
	rf.ReadAt(0, 9000, func(b []byte, err error) { got = b })
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Error("data corrupt after remount")
	}
	// Writes continue to work without clobbering existing allocations.
	rf2 := mustCreate(t, eng, fs2, "post-mount")
	rf2.WriteAt(0, []byte("x"), func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	var again []byte
	rf.ReadAt(0, 10, func(b []byte, err error) { again = b })
	eng.Run()
	if !bytes.Equal(again, payload[:10]) {
		t.Error("new allocation clobbered recovered file")
	}
}

func TestMountRejectsBlankDevice(t *testing.T) {
	eng := sim.NewEngine()
	geo := testGeo()
	f := newFTL(eng, newFlash(eng, geo, DefaultTiming), 0.25)
	fs := newFS(f, FSConfig{MaxFiles: 16})
	var merr error
	fs.Mount(func(err error) { merr = err })
	eng.Run()
	if merr == nil {
		t.Error("mounted an unformatted device")
	}
}

func TestDirectoryFull(t *testing.T) {
	eng, fs := fsWorld(t)
	// MaxFiles 32 -> 2 inode pages -> 32 slots.
	for i := 0; i < 32; i++ {
		mustCreate(t, eng, fs, string(rune('a'+i%26))+string(rune('0'+i/26)))
	}
	var cerr error
	fs.Create("overflow", func(_ *File, err error) { cerr = err })
	eng.Run()
	if cerr == nil {
		t.Error("33rd file accepted in a 32-slot directory")
	}
}

func TestInodeCodecRoundTrip(t *testing.T) {
	ino := inode{used: true, name: "some-file.dat", size: 123456789,
		extents: []extent{{start: 10, count: 5}, {start: 99, count: 1}}}
	b := make([]byte, inodeSize)
	encodeInode(b, &ino)
	got := decodeInode(b)
	if got.name != ino.name || got.size != ino.size || len(got.extents) != 2 ||
		got.extents[0] != ino.extents[0] || got.extents[1] != ino.extents[1] {
		t.Errorf("round trip: %+v", got)
	}
	b = make([]byte, inodeSize)
	encodeInode(b, &inode{})
	empty := decodeInode(b)
	if empty.used {
		t.Error("empty inode decodes used")
	}
}

// logFile is the KVS log's shape: one file, already a page long, on the
// default array.
func logFile(tb testing.TB) (*sim.Engine, *File) {
	eng, fs := fsWorldOn(tb, DefaultGeometry)
	f := mustCreate(tb, eng, fs, "log")
	f.WriteAt(0, make([]byte, 4096), func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	})
	eng.Run()
	return eng, f
}

// allocBytesPerRun is testing.AllocsPerRun for bytes.
func allocBytesPerRun(runs int, fn func()) uint64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestFSAllocs pins the page path's host cost. A 64-byte append into a
// page already started extends that page in place and programs the inode
// page of a one-file volume, encoded through its one used inode: measured
// 768 bytes, the fileIO record (448), WriteAt's clone of the record (64)
// and the inode page (256); 8 704 when the append cloned its 4 KiB page and
// encoded a 4 KiB inode page. A 64-byte read is served from the stored
// page without a copy of it: measured 560 bytes.
func TestFSAllocs(t *testing.T) {
	eng, f := logFile(t)
	rec := make([]byte, 64)
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The warm-up append starts page 1 and the 60 measured ones fit in it.
	b := allocBytesPerRun(60, func() { f.WriteAt(f.Size(), rec, fail); eng.Run() })
	t.Logf("64 B append: %d bytes", b)
	if b >= 1024 {
		t.Errorf("64 B append allocates %d bytes, want under 1 KiB (no page copy, a 256 B inode page)", b)
	}
	var inodes []byte
	ftlRead(f.fs.ftl, 1, func(b []byte, err error) { inodes = b })
	eng.Run()
	if len(inodes) > inodeSize {
		t.Errorf("the inode page of a one-file volume is %d bytes, want <= %d", len(inodes), inodeSize)
	}
	got := func(b []byte, err error) {
		if err != nil || len(b) != 64 {
			t.Fatalf("read %d bytes: %v", len(b), err)
		}
	}
	b = allocBytesPerRun(200, func() { f.ReadAt(128, 64, got); eng.Run() })
	t.Logf("64 B read: %d bytes", b)
	if b >= 1024 {
		t.Errorf("64 B read allocates %d bytes, want under 1 KiB (no page copy)", b)
	}
}

func BenchmarkFSAppend64B(b *testing.B) {
	eng, f := logFile(b)
	rec := make([]byte, 64)
	fail := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Size() >= 1<<20 {
			// Keep the log, and the share of GC in the number, bounded.
			f.Truncate(fail)
		}
		f.WriteAt(f.Size(), rec, fail)
		eng.Run()
	}
}

func BenchmarkFSRead64B(b *testing.B) {
	eng, f := logFile(b)
	got := func(p []byte, err error) {
		if err != nil || len(p) != 64 {
			b.Fatalf("read %d bytes: %v", len(p), err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ReadAt(128, 64, got)
		eng.Run()
	}
}

// freePages counts unallocated data pages; ownedPages counts the pages all
// extents hold. Their sum is the volume's, whatever happens.
func freePages(fs *FS) (n int) {
	for _, used := range fs.bitmap {
		if !used {
			n++
		}
	}
	return n
}

func ownedPages(fs *FS) (n int) {
	for i := range fs.inodes {
		n += fs.inodes[i].pages()
	}
	return n
}

func (f *File) extents() []extent { return slices.Clone(f.fs.inodes[f.idx].extents) }

// mustWrite writes and runs the engine dry.
func mustWrite(t testing.TB, eng *sim.Engine, f *File, off uint64, data []byte) {
	t.Helper()
	f.WriteAt(off, data, func(err error) {
		if err != nil {
			t.Fatalf("write of %d at %d: %v", len(data), off, err)
		}
	})
	eng.Run()
}

func mustRead(t testing.TB, eng *sim.Engine, f *File, off uint64, n int) []byte {
	t.Helper()
	var got []byte
	f.ReadAt(off, n, func(b []byte, err error) {
		if err != nil {
			t.Fatalf("read of %d at %d: %v", n, off, err)
		}
		got = b
	})
	eng.Run()
	return got
}

// A write whose end wraps around, or lies beyond what the volume could
// ever hold, is refused before the inode is touched. (It used to compute
// end = 6, set the size, build no chunk and never call back.)
func TestWriteBeyondVolumeRefused(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	mustWrite(t, eng, f, 0, []byte("seed"))
	size, ext, free := f.Size(), f.extents(), freePages(fs)
	volume := uint64(len(fs.bitmap)) * 4096
	for _, off := range []uint64{^uint64(0) - 3, ^uint64(0), volume - 9, volume, 1 << 40} {
		calls := 0
		var got error
		f.WriteAt(off, make([]byte, 10), func(err error) { calls++; got = err })
		eng.Run()
		if calls != 1 || !errors.Is(got, errBadRequest) {
			t.Errorf("write at %#x: %d callbacks, err %v", off, calls, got)
		}
		if f.Size() != size || !slices.Equal(f.extents(), ext) || freePages(fs) != free {
			t.Errorf("write at %#x touched the file: size %d extents %v free %d", off, f.Size(), f.extents(), freePages(fs))
		}
	}
	// The last byte of the volume is still writable.
	mustWrite(t, eng, f, volume-10, make([]byte, 10))
	if f.Size() != volume || freePages(fs) != 0 {
		t.Errorf("size %d free %d after filling the volume", f.Size(), freePages(fs))
	}
}

// A grow that cannot be satisfied gives back every page it took: the runs
// it appended and the pages it merged into the last extent. (It used to
// keep them: one bad offset on one file left the volume full for all.)
func TestRefusedGrowGivesBack(t *testing.T) {
	// setup leaves a = [3,2] and b = [5,10] with free space after b; merged
	// leaves out b, so a's growth is contiguous with its last extent.
	setup := func(withB bool) (*sim.Engine, *FS, *File, *File) {
		eng, fs := fsWorld(t)
		a, b := mustCreate(t, eng, fs, "a"), mustCreate(t, eng, fs, "b")
		mustWrite(t, eng, a, 0, make([]byte, 2*4096))
		if withB {
			mustWrite(t, eng, b, 0, make([]byte, 10*4096))
		}
		return eng, fs, a, b
	}
	for _, withB := range []bool{true, false} {
		eng, fs, a, b := setup(withB)
		// A third file takes most of what is left, so a's grow runs dry
		// after it has taken real pages.
		hog := mustCreate(t, eng, fs, "hog")
		mustWrite(t, eng, hog, 0, make([]byte, 800*4096))
		hog.Truncate(func(error) {})
		eng.Run()
		mustWrite(t, eng, hog, 0, make([]byte, 4096)) // first fit: right after a (or b)
		size, ext, free := a.Size(), a.extents(), freePages(fs)
		var got error
		calls := 0
		a.WriteAt(uint64(len(fs.bitmap)-1)*4096, []byte("x"), func(err error) { calls++; got = err })
		eng.Run()
		if calls != 1 || got == nil || errors.Is(got, errBadRequest) {
			t.Fatalf("withB=%v: %d callbacks, err %v, want one volume-full error", withB, calls, got)
		}
		if a.Size() != size || !slices.Equal(a.extents(), ext) || freePages(fs) != free {
			t.Errorf("withB=%v: refused grow kept pages: size %d extents %v (were %v) free %d (was %d)",
				withB, a.Size(), a.extents(), ext, freePages(fs), free)
		}
		if freePages(fs)+ownedPages(fs) != len(fs.bitmap) {
			t.Errorf("withB=%v: %d free + %d owned of %d pages", withB, freePages(fs), ownedPages(fs), len(fs.bitmap))
		}
		// Another file's small write is not refused for it.
		mustWrite(t, eng, b, b.Size(), []byte("still"))

		// A grow that succeeds after the refused one takes the pages it
		// would have taken had the refused one never happened.
		mustWrite(t, eng, a, a.Size(), make([]byte, 3*4096))
		eng2, fs2, a2, b2 := setup(withB)
		hog2 := mustCreate(t, eng2, fs2, "hog")
		mustWrite(t, eng2, hog2, 0, make([]byte, 4096))
		mustWrite(t, eng2, b2, b2.Size(), []byte("still"))
		mustWrite(t, eng2, a2, a2.Size(), make([]byte, 3*4096))
		if !slices.Equal(a.extents(), a2.extents()) {
			t.Errorf("withB=%v: extents after a refused grow %v, on a fresh volume %v", withB, a.extents(), a2.extents())
		}
	}
}

// Writers to one page hold its lock in the order they asked for it, and
// each sees what the ones before it wrote.
func TestPageLockIsFIFO(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "hot")
	mustWrite(t, eng, f, 0, make([]byte, 4096))
	var order []int
	write := func(i int, off uint64, b byte, n int) {
		f.WriteAt(off, bytes.Repeat([]byte{b}, n), func(err error) {
			if err != nil {
				t.Error(err)
			}
			order = append(order, i)
		})
	}
	write(1, 0, 'a', 10)
	write(2, 5, 'b', 10) // overlaps the first: must land on top of it
	write(3, 12, 'c', 8) // overlaps the second
	lpn, _ := f.lpnOf(0)
	if tail := fs.pageLocks[lpn]; tail == nil || tail.data[0] != 'c' {
		t.Fatalf("the third writer is not the tail of the page's queue: %+v", tail)
	}
	eng.Run()
	if !slices.Equal(order, []int{1, 2, 3}) {
		t.Errorf("completion order %v", order)
	}
	if got := mustRead(t, eng, f, 0, 20); string(got) != "aaaaabbbbbbbcccccccc" {
		t.Errorf("page reads %q", got)
	}
	if len(fs.pageLocks) != 0 {
		t.Errorf("%d page locks left", len(fs.pageLocks))
	}
}

// A read takes its reference to the page when it is issued: one that an
// overwrite overtakes still returns what it was issued to (E21's audit
// fails 7 of 8 cells otherwise).
func TestReadIssuedBeforeOverwriteReturnsOldBytes(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	v1, v2 := bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)
	mustWrite(t, eng, f, 0, v1)
	overwritten := false
	f.WriteAt(0, v2, func(err error) { overwritten = err == nil })
	eng.RunFor(DefaultTiming.Program - DefaultTiming.Read/2)
	var got []byte
	f.ReadAt(100, 64, func(b []byte, err error) {
		if !overwritten {
			t.Error("the read completed before the overwrite: nothing tested")
		}
		got = b
	})
	eng.Run()
	if !bytes.Equal(got, v1[:64]) {
		t.Errorf("read in flight across an overwrite returned %x", got[:4])
	}
	if got := mustRead(t, eng, f, 100, 64); !bytes.Equal(got, v2[:64]) {
		t.Error("overwrite not visible to a later read")
	}
}

// One chunk of several failing reports the first error exactly once, and a
// write releases every page lock it took.
func TestChunkFailureReportedOnce(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	mustWrite(t, eng, f, 0, make([]byte, 5*4096))
	flash := fs.ftl.f

	calls := 0
	var got error
	f.ReadAt(10, 4*4096, func(b []byte, err error) { calls++; got = err }) // five chunks on two channels
	eng.RunFor(DefaultTiming.Read + 1)                                     // the first read of each channel is in
	flash.broken = true
	eng.Run()
	if calls != 1 || got == nil {
		t.Errorf("read: %d callbacks, err %v", calls, got)
	}

	flash.broken = false
	calls, got = 0, nil
	f.WriteAt(10, make([]byte, 4*4096), func(err error) { calls++; got = err }) // two partial pages, three full
	if len(fs.pageLocks) != 5 {
		t.Fatalf("%d pages locked, want 5", len(fs.pageLocks))
	}
	eng.RunFor(DefaultTiming.Read + 1) // the partial pages' old contents are in
	flash.broken = true
	eng.Run()
	if calls != 1 || got == nil {
		t.Errorf("write: %d callbacks, err %v", calls, got)
	}
	if len(fs.pageLocks) != 0 {
		t.Errorf("%d page locks left after a failed write", len(fs.pageLocks))
	}
	flash.broken = false
	mustWrite(t, eng, f, 10, []byte("the pages are writable again"))
}

// A write inside the file persists no inode page; one that grows it
// persists exactly one, and only after its data is on flash.
func TestInodePersistedOnceAfterData(t *testing.T) {
	eng, f := logFile(t)
	st := func() FTLStats { return f.fs.ftl.Stats() }
	before := st()
	mustWrite(t, eng, f, 100, make([]byte, 64))
	if d := st(); d.HostWrites-before.HostWrites != 1 || d.HostReads-before.HostReads != 1 {
		t.Errorf("in-place write: %d page writes, %d reads, want 1 and 1", d.HostWrites-before.HostWrites, d.HostReads-before.HostReads)
	}
	before = st()
	done := false
	f.WriteAt(f.Size(), make([]byte, 64), func(err error) { done = err == nil })
	eng.RunFor(DefaultTiming.Program - 1) // the data page (unmapped before: no read) is still being programmed
	if d := st(); d.HostWrites-before.HostWrites != 1 || done {
		t.Errorf("before the data is on flash: %d page writes, done=%v", d.HostWrites-before.HostWrites, done)
	}
	eng.Run()
	if d := st(); d.HostWrites-before.HostWrites != 2 || !done {
		t.Errorf("growing write: %d page writes, done=%v, want data then inode", d.HostWrites-before.HostWrites, done)
	}
}

// WriteAt borrows its argument for the call only.
func TestWriteAtClonesBorrowedBuffer(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	buf := bytes.Repeat([]byte{7}, 4096+300) // a full page (which the flash keeps) and a partial one
	f.WriteAt(0, buf, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	clear(buf)
	eng.Run()
	clear(buf)
	if got := mustRead(t, eng, f, 0, len(buf)); !bytes.Equal(got, bytes.Repeat([]byte{7}, len(buf))) {
		t.Error("stored data changed with the caller's buffer")
	}
}

// reissuer appends again from inside its own completion: the record is idle
// there, as an interconnect.DMA is.
type reissuer struct {
	f     *File
	calls int
}

func (r *reissuer) ioDone(io *fileIO, err error) {
	if r.calls++; err == nil && r.calls < 4 {
		io.writeAt(r.f, r.f.Size(), bytes.Repeat([]byte{byte(r.calls)}, 3000), r)
	}
}

func TestFileIOReissuedFromItsCompletion(t *testing.T) {
	eng, fs := fsWorld(t)
	r := &reissuer{f: mustCreate(t, eng, fs, "a")}
	var io fileIO
	io.writeAt(r.f, 0, make([]byte, 3000), r)
	eng.Run()
	if r.calls != 4 || r.f.Size() != 4*3000 || io.done != nil || io.chunks != nil {
		t.Fatalf("%d completions, size %d, record %+v", r.calls, r.f.Size(), io)
	}
	if got := mustRead(t, eng, r.f, 3*3000, 3000); !bytes.Equal(got, bytes.Repeat([]byte{3}, 3000)) {
		t.Error("the last reissue's bytes are not in the file")
	}
}

// A read takes the page as it is when issued. An append that extends the
// page's array meanwhile writes only past that view, so the read returns the
// page's old length and bytes and zeros after them; a later read sees the
// append.
func TestReadIssuedBeforeAppendReturnsOldLength(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	old := bytes.Repeat([]byte{'a'}, 100)
	mustWrite(t, eng, f, 0, old)
	appended := false
	f.WriteAt(100, bytes.Repeat([]byte{'b'}, 100), func(err error) { appended = err == nil })
	eng.RunFor(DefaultTiming.Read + 1) // merged into the array, still programming
	var got []byte
	f.ReadAt(0, 200, func(b []byte, err error) { got = b })
	eng.Run()
	if !appended {
		t.Fatal("the append failed")
	}
	if want := append(bytes.Clone(old), make([]byte, 100)...); !bytes.Equal(got, want) {
		t.Errorf("a read issued before the append returned %q", got)
	}
	if got := mustRead(t, eng, f, 100, 100); !bytes.Equal(got, bytes.Repeat([]byte{'b'}, 100)) {
		t.Errorf("the append reads back %q", got)
	}
}

// GC relocates the log's tail page while appends to it wait for, or hold,
// its lock: whichever of the relocation and an extension commits first, no
// record is lost.
func TestGCRacingAppendsKeepsEveryRecord(t *testing.T) {
	eng, fs := fsWorldOn(t, FlashGeometry{Channels: 2, DiesPerChan: 1, BlocksPerDie: 8, PagesPerBlock: 8, PageSize: 4096})
	cold := mustCreate(t, eng, fs, "cold")
	mustWrite(t, eng, cold, 0, bytes.Repeat([]byte{0xCD}, 60*4096)) // full blocks the collector must empty
	log := mustCreate(t, eng, fs, "log")
	const recLen, batches, perBatch = 64, 50, 8
	races := 0
	for i := 0; i < batches*perBatch; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, recLen)
		log.WriteAt(uint64(i*recLen), rec, func(err error) {
			if err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		})
		if i%perBatch < perBatch-1 {
			continue
		}
		for eng.Step() {
			if g := &fs.ftl.gc; fs.ftl.gcRunning && g.lpn != invalidLPN && fs.pageLocks[int(g.lpn)] != nil {
				races++
			}
		}
	}
	if races == 0 {
		t.Fatal("no relocation of a page an append held: nothing tested")
	}
	got := mustRead(t, eng, log, 0, batches*perBatch*recLen)
	for i := 0; i < batches*perBatch; i++ {
		if rec := got[i*recLen : (i+1)*recLen]; !bytes.Equal(rec, bytes.Repeat([]byte{byte(i)}, recLen)) {
			t.Fatalf("record %d reads %x", i, rec[:4])
		}
	}
	if got := mustRead(t, eng, cold, 0, 60*4096); !bytes.Equal(got, bytes.Repeat([]byte{0xCD}, 60*4096)) {
		t.Error("cold data lost")
	}
}

// A write inside the page's written prefix, or straddling its end, copies
// the page: the array a reader still holds is never written through.
func TestOverwriteInPrefixCopiesThePage(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	mustWrite(t, eng, f, 0, bytes.Repeat([]byte{'a'}, 200))
	lpn, _ := f.lpnOf(0)
	var held []byte
	ftlRead(fs.ftl, lpn, func(b []byte, err error) { held = b })
	eng.Run()
	kept := bytes.Clone(held)
	mustWrite(t, eng, f, 50, bytes.Repeat([]byte{'b'}, 10))
	mustWrite(t, eng, f, 150, bytes.Repeat([]byte{'c'}, 100))
	if !bytes.Equal(held, kept) {
		t.Error("an overwrite wrote through the page a reader holds")
	}
	want := bytes.Repeat([]byte{'a'}, 250)
	copy(want[50:], bytes.Repeat([]byte{'b'}, 10))
	copy(want[150:], bytes.Repeat([]byte{'c'}, 100))
	if got := mustRead(t, eng, f, 0, 250); !bytes.Equal(got, want) {
		t.Errorf("page reads %q", got)
	}
}

// An append whose program failed left its bytes in the array past the
// page's end. They read as zeros, and a later write past them clears the gap
// it leaves instead of showing them.
func TestGapAfterFailedAppendReadsZeros(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "a")
	mustWrite(t, eng, f, 0, bytes.Repeat([]byte{'a'}, 100))
	var werr error
	f.WriteAt(100, bytes.Repeat([]byte{'x'}, 100), func(err error) { werr = err })
	eng.RunFor(DefaultTiming.Read + 1) // merged into the array, still programming
	fs.ftl.f.broken = true
	eng.Run()
	fs.ftl.f.broken = false
	if werr == nil {
		t.Fatal("the append's program did not fail")
	}
	if got := mustRead(t, eng, f, 100, 100); !bytes.Equal(got, make([]byte, 100)) {
		t.Errorf("a failed append's bytes read back: %q", got)
	}
	mustWrite(t, eng, f, 300, []byte("y"))
	want := append(append(bytes.Repeat([]byte{'a'}, 100), make([]byte, 200)...), 'y')
	if got := mustRead(t, eng, f, 0, 301); !bytes.Equal(got, want) {
		t.Errorf("gap reads %q", got[100:300])
	}
}
