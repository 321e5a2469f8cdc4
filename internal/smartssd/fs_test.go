package smartssd

import (
	"bytes"
	"runtime"
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
	l := fs.List()
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
		f.Append(rec, func(err error) {
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

func TestDeleteFreesPages(t *testing.T) {
	eng, fs := fsWorld(t)
	f := mustCreate(t, eng, fs, "victim")
	f.WriteAt(0, make([]byte, 8*4096), func(error) {})
	eng.Run()
	used := 0
	for _, b := range fs.bitmap {
		if b {
			used++
		}
	}
	if used != 8 {
		t.Fatalf("used pages = %d", used)
	}
	fs.Delete("victim", func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	used = 0
	for _, b := range fs.bitmap {
		if b {
			used++
		}
	}
	if used != 0 {
		t.Errorf("pages leaked after delete: %d", used)
	}
	if _, ok := fs.Lookup("victim"); ok {
		t.Error("file survives delete")
	}
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
	if len(fs2.List()) != 2 {
		t.Fatalf("recovered files = %v", fs2.List())
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

// TestFSAllocs pins the page path's host cost: a 64-byte append builds the
// new tail page and the new inode page and nothing else of that size; a
// 64-byte read is served from the stored page without a copy of it.
func TestFSAllocs(t *testing.T) {
	eng, f := logFile(t)
	rec := make([]byte, 64)
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if b := allocBytesPerRun(200, func() { f.Append(rec, fail); eng.Run() }); b >= 2*4096+1024 {
		t.Errorf("64 B append allocates %d bytes, want two pages and under 1 KiB besides", b)
	}
	got := func(b []byte, err error) {
		if err != nil || len(b) != 64 {
			t.Fatalf("read %d bytes: %v", len(b), err)
		}
	}
	if b := allocBytesPerRun(200, func() { f.ReadAt(128, 64, got); eng.Run() }); b >= 1024 {
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
		f.Append(rec, fail)
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
