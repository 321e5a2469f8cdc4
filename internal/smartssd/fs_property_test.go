package smartssd

import (
	"bytes"
	"testing"
	"testing/quick"

	"nocpu/internal/sim"
)

// The filesystem against a reference model: random sequences of writes,
// reads, truncates and appends on a small set of files must match a plain
// in-memory byte-slice implementation, including across a remount.
//
// The test is also the proof of the buffer-ownership rule: it scribbles
// over every buffer it lends to WriteAt as soon as the call returns
// and again after completion, and over every slice ReadAt gives it. If the
// filesystem kept a reference to the first or handed out the flash's own
// page as the second, later reads diverge from the model.

type refFile struct {
	data []byte
}

func (r *refFile) writeAt(off uint64, p []byte) {
	end := off + uint64(len(p))
	if uint64(len(r.data)) < end {
		grown := make([]byte, end)
		copy(grown, r.data)
		r.data = grown
	}
	copy(r.data[off:], p)
}

func (r *refFile) readAt(off uint64, n int) []byte {
	if off >= uint64(len(r.data)) || n <= 0 {
		return nil
	}
	end := off + uint64(n)
	if end > uint64(len(r.data)) {
		end = uint64(len(r.data))
	}
	out := make([]byte, end-off)
	copy(out, r.data[off:end])
	return out
}

// fsOp is one scripted operation.
type fsOp struct {
	Kind uint8  // 0 write, 1 read, 2 append, 3 truncate
	File uint8  // file index (mod 3)
	Off  uint16 // offset seed
	Len  uint8  // length seed
	Fill byte
}

// scribble changes every byte, differently each time it is applied:
// whoever still reads b sees garbage.
func scribble(b []byte) {
	for i := range b {
		b[i] += 0x5B
	}
}

// opLen maps the length seed to 1..700 bytes, or for the top quarter of
// seeds to 4..11 KiB so that a write also carries whole pages.
func opLen(seed uint8) int {
	if seed >= 192 {
		return int(seed-191)*173 + 4000
	}
	return int(seed)%700 + 1
}

func TestFSMatchesReferenceModel(t *testing.T) {
	run := func(ops []fsOp) bool {
		eng := sim.NewEngine()
		geo := FlashGeometry{Channels: 2, DiesPerChan: 1, BlocksPerDie: 64, PagesPerBlock: 16, PageSize: 4096}
		ftl := newFTL(eng, newFlash(eng, geo, DefaultTiming), 0.125)
		fs := newFS(ftl, FSConfig{MaxFiles: 8})
		ok := true
		fs.Format(func(err error) { ok = err == nil })
		eng.Run()
		if !ok {
			return false
		}

		names := []string{"a", "b", "c"}
		files := make([]*File, len(names))
		refs := make([]*refFile, len(names))
		for i, n := range names {
			var cerr error
			fs.Create(n, func(f *File, err error) { files[i], cerr = f, err })
			eng.Run()
			if cerr != nil {
				return false
			}
			refs[i] = &refFile{}
		}

		for _, op := range ops {
			i := int(op.File) % len(files)
			f, ref := files[i], refs[i]
			off := uint64(op.Off) % 20000
			n := opLen(op.Len)
			switch op.Kind % 4 {
			case 0: // write
				payload := bytes.Repeat([]byte{op.Fill}, n)
				ref.writeAt(off, payload)
				var werr error
				f.WriteAt(off, payload, func(err error) { werr = err })
				scribble(payload)
				eng.Run()
				scribble(payload)
				if werr != nil {
					t.Logf("write: %v", werr)
					return false
				}
			case 1: // read
				var got []byte
				var rerr error
				f.ReadAt(off, n, func(b []byte, err error) { got, rerr = b, err })
				eng.Run()
				if rerr != nil {
					t.Logf("read: %v", rerr)
					return false
				}
				want := ref.readAt(off, n)
				if !bytes.Equal(got, want) {
					t.Logf("read mismatch file %d off %d n %d: got %d bytes want %d", i, off, n, len(got), len(want))
					return false
				}
				scribble(got)
			case 2: // append
				payload := bytes.Repeat([]byte{op.Fill ^ 0x5A}, n)
				ref.writeAt(uint64(len(ref.data)), payload)
				var werr error
				f.WriteAt(f.Size(), payload, func(err error) { werr = err })
				scribble(payload)
				eng.Run()
				scribble(payload)
				if werr != nil {
					return false
				}
			case 3: // truncate
				var terr error
				f.Truncate(func(err error) { terr = err })
				eng.Run()
				if terr != nil {
					return false
				}
				ref.data = nil
			}
			if f.Size() != uint64(len(ref.data)) {
				t.Logf("size mismatch file %d: fs %d ref %d", i, f.Size(), len(ref.data))
				return false
			}
		}

		// Remount on the same flash and re-verify all contents.
		fs2 := newFS(ftl, FSConfig{MaxFiles: 8})
		var merr error
		fs2.Mount(func(err error) { merr = err })
		eng.Run()
		if merr != nil {
			t.Logf("mount: %v", merr)
			return false
		}
		for i, n := range names {
			f2, found := fs2.Lookup(n)
			if !found {
				t.Logf("file %s lost across mount", n)
				return false
			}
			if f2.Size() != uint64(len(refs[i].data)) {
				t.Logf("size lost across mount: %d vs %d", f2.Size(), len(refs[i].data))
				return false
			}
			if len(refs[i].data) == 0 {
				continue
			}
			// Spot check: whole contents in chunks.
			for off := 0; off < len(refs[i].data); off += 4096 {
				n := 4096
				if off+n > len(refs[i].data) {
					n = len(refs[i].data) - off
				}
				var got []byte
				f2.ReadAt(uint64(off), n, func(b []byte, err error) { got = b })
				eng.Run()
				if !bytes.Equal(got, refs[i].data[off:off+n]) {
					t.Logf("contents lost across mount at %d", off)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, MaxCountScale: 0}
	if err := quick.Check(run, cfg); err != nil {
		t.Error(err)
	}
}

// Deterministic heavy scenario: interleaved concurrent writes across
// files with GC pressure, verified against the model.
func TestFSConcurrentMixedWorkload(t *testing.T) {
	eng := sim.NewEngine()
	geo := FlashGeometry{Channels: 2, DiesPerChan: 1, BlocksPerDie: 24, PagesPerBlock: 16, PageSize: 4096}
	ftl := newFTL(eng, newFlash(eng, geo, DefaultTiming), 0.2)
	fs := newFS(ftl, FSConfig{MaxFiles: 8})
	fs.Format(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()

	var f1, f2 *File
	fs.Create("x", func(f *File, err error) { f1 = f })
	fs.Create("y", func(f *File, err error) { f2 = f })
	eng.Run()

	r1, r2 := &refFile{}, &refFile{}
	rng := sim.NewRand(77)
	pending := 0
	// 300 concurrent writes interleaved across two files, random offsets
	// within 64 KiB.
	for i := 0; i < 300; i++ {
		off := uint64(rng.Intn(64 << 10))
		n := rng.Intn(900) + 1
		fill := byte(rng.Intn(256))
		payload := bytes.Repeat([]byte{fill}, n)
		pending++
		cb := func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
			pending--
		}
		if i%2 == 0 {
			f1.WriteAt(off, payload, cb)
			r1.writeAt(off, payload)
		} else {
			f2.WriteAt(off, payload, cb)
			r2.writeAt(off, payload)
		}
		// Model semantics: concurrent writes to overlapping ranges have
		// no defined winner, so keep ranges disjoint-ish by running the
		// engine every few ops.
		if i%4 == 3 {
			eng.Run()
		}
	}
	eng.Run()
	if pending != 0 {
		t.Fatalf("%d writes unfinished", pending)
	}
	check := func(f *File, ref *refFile, name string) {
		if f.Size() != uint64(len(ref.data)) {
			t.Fatalf("%s size %d vs ref %d", name, f.Size(), len(ref.data))
		}
		for off := 0; off < len(ref.data); off += 4096 {
			n := 4096
			if off+n > len(ref.data) {
				n = len(ref.data) - off
			}
			var got []byte
			f.ReadAt(uint64(off), n, func(b []byte, err error) {
				if err != nil {
					t.Fatalf("%s read: %v", name, err)
				}
				got = b
			})
			eng.Run()
			if !bytes.Equal(got, ref.data[off:off+n]) {
				t.Fatalf("%s diverged from model at offset %d", name, off)
			}
		}
	}
	check(f1, r1, "x")
	check(f2, r2, "y")
	if ftl.Stats().GCRuns == 0 {
		t.Log("note: GC did not trigger in this run")
	}
}
