package physmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"nocpu/internal/sim"
)

// The differential test runs one seeded random program against a Memory
// and against dense, the model this package used to be: every byte up
// front, one copy per access, the same buddy. Every value read, every
// error string and the final contents must agree, and the Memory must hold
// a backing store for exactly the frames the program wrote to.

type memory interface {
	ReadInto(Addr, []byte) error
	Write(Addr, []byte) error
	ReadU64(Addr) (uint64, error)
	WriteU64(Addr, uint64) error
	Zero(Addr, int) error
	AllocFrames(int) (Frame, error)
	FreeFrames(Frame, int) error
	FreeFramesCount() uint64
	AllocatedBytes() uint64
}

type dense struct {
	data    []byte
	buddy   *buddy
	alloc   uint64
	written map[Frame]bool // frames a write has touched
}

func newDense(size uint64) *dense {
	return &dense{data: make([]byte, size), buddy: newBuddy(size / PageSize), written: map[Frame]bool{}}
}

// span is the bounds check and the slice every access of the model goes
// through; write marks the frames under a non-empty span.
func (d *dense) span(addr Addr, n int, write bool) ([]byte, error) {
	if n < 0 || uint64(addr) > uint64(len(d.data)) || uint64(addr)+uint64(n) > uint64(len(d.data)) {
		return nil, fmt.Errorf("physmem: access [%#x, %#x) outside memory of %d bytes", addr, uint64(addr)+uint64(n), len(d.data))
	}
	for f := FrameOf(addr); write && n > 0 && f <= FrameOf(addr+Addr(n-1)); f++ {
		d.written[f] = true
	}
	return d.data[addr : uint64(addr)+uint64(n)], nil
}

func (d *dense) ReadInto(addr Addr, dst []byte) error {
	b, err := d.span(addr, len(dst), false)
	copy(dst, b)
	return err
}

func (d *dense) Write(addr Addr, src []byte) error {
	b, err := d.span(addr, len(src), true)
	copy(b, src)
	return err
}

func (d *dense) ReadU64(addr Addr) (uint64, error) {
	b, err := d.span(addr, 8, false)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *dense) WriteU64(addr Addr, v uint64) error {
	return d.Write(addr, binary.LittleEndian.AppendUint64(nil, v))
}

func (d *dense) Zero(addr Addr, n int) error {
	b, err := d.span(addr, n, false)
	clear(b)
	return err
}

func (d *dense) AllocFrames(n int) (Frame, error) {
	if n <= 0 {
		return 0, fmt.Errorf("physmem: alloc of %d frames", n)
	}
	f, err := d.buddy.alloc(uint64(n))
	if err != nil {
		return 0, err
	}
	d.alloc += uint64(n) * PageSize
	clear(d.data[f.Addr() : uint64(f.Addr())+uint64(n)*PageSize])
	return f, nil
}

func (d *dense) FreeFrames(f Frame, n int) error {
	if err := d.buddy.release(f, uint64(n)); err != nil {
		return err
	}
	d.alloc -= uint64(n) * PageSize
	return nil
}

func (d *dense) FreeFramesCount() uint64 { return d.buddy.freeFrames }
func (d *dense) AllocatedBytes() uint64  { return d.alloc }

// program is one seeded run. Every random draw comes from r, in driver
// code only, so both memories see the same operations.
type program struct {
	m    memory
	size uint64
	r    *sim.Rand
	live [][2]int // allocations not yet freed: first frame, count
	log  []string
}

func (p *program) logf(format string, a ...any) { p.log = append(p.log, fmt.Sprintf(format, a...)) }

// span draws an access of n bytes: mostly inside the memory, often across
// one frame boundary or several, sometimes ending exactly at Size(), and
// sometimes past it by a byte, by a frame or by most of the address space.
func (p *program) span(n int) Addr {
	size := p.size
	switch p.r.Intn(10) {
	case 0, 1, 2:
		return Addr(p.r.Intn(int(size)))
	case 3, 4, 5: // straddles the boundary below a random frame
		return Addr(uint64(1+p.r.Intn(int(size/PageSize)))*PageSize - uint64(p.r.Intn(n+1)))
	case 6:
		return Addr(size - uint64(n)) // wraps for n > size: far out of range
	case 7:
		return Addr(size - uint64(n) + 1 + uint64(p.r.Intn(8)))
	case 8:
		return Addr(size + uint64(p.r.Intn(2*PageSize)))
	default:
		return Addr(p.r.Uint64() | 1<<63)
	}
}

// length draws a buffer size: a few bytes, about a frame, or several.
func (p *program) length() int {
	switch p.r.Intn(4) {
	case 0:
		return p.r.Intn(16)
	case 1:
		return PageSize - 8 + p.r.Intn(16)
	default:
		return p.r.Intn(3*PageSize + 64)
	}
}

func (p *program) step() {
	switch p.r.Intn(10) {
	case 0, 1:
		src := make([]byte, p.length()+8)
		for i := 0; i+8 <= len(src); i += 8 {
			binary.LittleEndian.PutUint64(src[i:], p.r.Uint64()|0x0101010101010101) // no zero byte: a write is visible
		}
		src = src[:len(src)-8]
		addr := p.span(len(src))
		p.logf("write %#x+%d: %v", addr, len(src), p.m.Write(addr, src))
	case 2, 3:
		dst := bytes.Repeat([]byte{0xAA}, p.length())
		addr := p.span(len(dst))
		err := p.m.ReadInto(addr, dst)
		p.logf("read %#x+%d: crc %08x %v", addr, len(dst), crc32.ChecksumIEEE(dst), err)
	case 4:
		addr := p.span(8)
		v, err := p.m.ReadU64(addr)
		p.logf("r64 %#x: %#x %v", addr, v, err)
	case 5:
		addr := p.span(8)
		p.logf("w64 %#x: %v", addr, p.m.WriteU64(addr, p.r.Uint64()|0x0101010101010101))
	case 6:
		n := p.length() - 1 // -1 now and then
		addr := p.span(max(n, 0))
		p.logf("zero %#x+%d: %v", addr, n, p.m.Zero(addr, n))
	case 7, 8:
		n := p.r.Intn(6) - 1 // -1 and 0 are refused
		if p.r.Intn(16) == 0 {
			n = int(p.size/PageSize) + p.r.Intn(2)
		}
		f, err := p.m.AllocFrames(n)
		if err == nil {
			p.live = append(p.live, [2]int{int(f), n})
		}
		p.logf("alloc %d: %d %v", n, f, err)
	default:
		f, n := p.r.Intn(int(p.size/PageSize)), 1+p.r.Intn(4) // most likely not an allocation
		if len(p.live) > 0 && p.r.Intn(4) > 0 {
			i := p.r.Intn(len(p.live))
			f, n = p.live[i][0], p.live[i][1]
			if p.r.Intn(8) == 0 {
				n++ // a wrong count is refused and the allocation stays
			} else {
				p.live = append(p.live[:i], p.live[i+1:]...)
			}
		}
		p.logf("free %d+%d: %v", f, n, p.m.FreeFrames(Frame(f), n))
	}
	p.logf("free=%d allocated=%d", p.m.FreeFramesCount(), p.m.AllocatedBytes())
}

func runProgram(m memory, size, seed uint64) []string {
	p := &program{m: m, size: size, r: sim.NewRand(seed)}
	for op := 0; op < 120; op++ {
		p.step()
	}
	all := make([]byte, size)
	err := m.ReadInto(0, all)
	p.logf("end: crc %08x %v", crc32.ChecksumIEEE(all), err)
	return p.log
}

func TestMemoryMatchesDenseModel(t *testing.T) {
	for seed := uint64(1); seed <= 1500; seed++ {
		size := uint64(2+seed%7) * PageSize
		mem, ref := MustNew(size), newDense(size)
		got, want := runProgram(mem, size, seed), runProgram(ref, size, seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d diverges at log line %d:\n memory: %s\n dense:  %s\n before: %v",
					seed, i, got[i], want[i], want[max(0, i-6):i])
			}
		}
		if mem.ResidentFrames() != uint64(len(ref.written)) {
			t.Fatalf("seed %d: %d frames resident, the program wrote to %d", seed, mem.ResidentFrames(), len(ref.written))
		}
	}
}

// Only a write brings a frame into being. A read of an absent frame
// still overwrites its buffer (DMA records reuse theirs), Zero neither
// creates nor drops a frame, and the scrub between owners clears a frame
// that exists.
func TestFramesAppearOnWriteOnly(t *testing.T) {
	m := MustNew(1 << 30)
	if err := m.WriteU64(513*PageSize+8, 1); err != nil {
		t.Fatal(err)
	}
	if m.ResidentFrames() != 1 {
		t.Fatalf("%d frames resident after one write to a 1 GiB memory, want 1", m.ResidentFrames())
	}
	dst := bytes.Repeat([]byte{0xAA}, 3*PageSize)
	if err := m.ReadInto(511*PageSize+100, dst); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 3*PageSize)
	want[2*PageSize-100+8] = 1 // the word written above
	if !bytes.Equal(dst, want) {
		t.Error("a read across absent frames left stale bytes in its buffer")
	}
	if _, err := m.ReadU64(7*PageSize - 4); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(0, 64*PageSize); err != nil {
		t.Fatal(err)
	}
	if m.ResidentFrames() != 1 {
		t.Errorf("%d frames resident after reads and Zero, want 1", m.ResidentFrames())
	}
	if err := m.Zero(513*PageSize, 16); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU64(513*PageSize + 8); v != 0 || m.ResidentFrames() != 1 {
		t.Errorf("Zero of a resident frame: word %#x, %d frames resident; want 0 and 1", v, m.ResidentFrames())
	}

	// Written, freed, allocated again: the next owner reads zeros, from the
	// same backing store.
	f, err := m.AllocFrames(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(f.Addr(), bytes.Repeat([]byte{0x5A}, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := m.FreeFrames(f, 1); err != nil {
		t.Fatal(err)
	}
	if g, err := m.AllocFrames(1); err != nil || g != f {
		t.Fatalf("re-allocation gave frame %d (%v), want %d again", g, err, f)
	}
	if !m.FrameIsZero(f) || m.ResidentFrames() != 2 {
		t.Errorf("re-allocated frame scrubbed=%v with %d frames resident, want true and 2", m.FrameIsZero(f), m.ResidentFrames())
	}
}

// New costs a pointer per frame and the buddy, whatever size it is given:
// 256 KiB of frame table for 128 MiB, where it used to be the 128 MiB.
func TestNewAllocatesNoFrames(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	benchSink = MustNew(128 << 20)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("New(128 MiB) allocated %d bytes, want under 1 MiB", got)
	}
}
