// Package physmem simulates the machine's physical memory: a flat
// byte-addressable store, held a frame at a time from the first write to
// each, plus a buddy allocator handing out 4 KiB frames.
//
// Every byte that moves through the emulated machine — virtqueue rings,
// file data staged by the smart SSD, IOMMU page tables — lives in a Memory
// and is reached by physical address, exactly as it would be on the real
// interconnect. There is no back door: devices read and write physical
// memory only through the DMA engine, which translates via their IOMMU.
package physmem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the frame size. The IOMMU uses the same granule.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a physical byte address.
type Addr uint64

// Frame is a physical frame number (Addr >> PageShift).
type Frame uint64

// Addr returns the base physical address of the frame.
func (f Frame) Addr() Addr { return Addr(f) << PageShift }

// FrameOf returns the frame containing the address.
func FrameOf(a Addr) Frame { return Frame(a >> PageShift) }

// Memory is the flat physical memory plus its frame allocator. The host
// pays for the frames a workload wrote, not for the size the machine
// declared: a frame has no backing store until its first write and reads
// as zeros until then. Reads and Zero never create one and nothing gives
// one back, so a steady state that frees and reallocates the same frames
// allocates nothing on the host.
type Memory struct {
	size     uint64
	frames   []*[PageSize]byte // nil = never written
	resident uint64
	buddy    *buddy
	// allocBytes is what the allocator has handed out; tests and the
	// memory controller audit leaks with it.
	allocBytes uint64
}

// zeroFrame is what an absent frame reads as. Nothing writes to it.
var zeroFrame [PageSize]byte

// New creates a memory of the given size, which must be a positive
// multiple of PageSize. It costs the host one pointer per frame and the
// allocator's free lists, whatever the size.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("physmem: size %d is not a positive multiple of %d", size, PageSize)
	}
	n := size / PageSize
	return &Memory{size: size, frames: make([]*[PageSize]byte, n), buddy: newBuddy(n)}, nil
}

// MustNew is New for static configuration; it panics on a bad size.
func MustNew(size uint64) *Memory {
	m, err := New(size)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the total memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Frames returns the total number of frames.
func (m *Memory) Frames() uint64 { return uint64(len(m.frames)) }

// ResidentFrames returns how many frames were ever written (see Memory).
func (m *Memory) ResidentFrames() uint64 { return m.resident }

// AllocatedBytes returns the bytes currently handed out by the allocator.
func (m *Memory) AllocatedBytes() uint64 { return m.allocBytes }

func (m *Memory) check(addr Addr, n int) error {
	if n < 0 || uint64(addr) > m.size || uint64(addr)+uint64(n) > m.size {
		return fmt.Errorf("physmem: access [%#x, %#x) outside memory of %d bytes", addr, uint64(addr)+uint64(n), m.size)
	}
	return nil
}

// at returns the backing store of the frame holding addr. An absent frame
// is created by a write; to a read it is the zero frame.
func (m *Memory) at(addr Addr, write bool) *[PageSize]byte {
	f := m.frames[addr>>PageShift]
	if f == nil {
		if !write {
			return &zeroFrame
		}
		f = new([PageSize]byte)
		m.frames[addr>>PageShift] = f
		m.resident++
	}
	return f
}

// word returns the n bytes at addr when they lie inside one frame of the
// memory, nil when they straddle two or leave it: the scalar accessors'
// fast path. size is a multiple of PageSize, so a word that starts inside
// the memory and stays inside its frame ends inside the memory.
func (m *Memory) word(addr Addr, n uint64, write bool) []byte {
	off := uint64(addr) % PageSize
	if off+n > PageSize || uint64(addr) >= m.size {
		return nil
	}
	return m.at(addr, write)[off : off+n]
}

// ReadInto copies len(dst) bytes at addr into dst, a frame at a time. An
// absent frame yields zeros: dst is always overwritten, since DMA records
// reuse their buffers.
func (m *Memory) ReadInto(addr Addr, dst []byte) error {
	if err := m.check(addr, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		n := copy(dst, m.at(addr, false)[addr%PageSize:])
		dst, addr = dst[n:], addr+Addr(n)
	}
	return nil
}

// Write copies src into memory at addr, a frame at a time.
func (m *Memory) Write(addr Addr, src []byte) error {
	if err := m.check(addr, len(src)); err != nil {
		return err
	}
	for len(src) > 0 {
		n := copy(m.at(addr, true)[addr%PageSize:], src)
		src, addr = src[n:], addr+Addr(n)
	}
	return nil
}

// ReadU64 reads a little-endian uint64 at addr (used for PTEs and ring
// indices; the emulated machine is little-endian throughout).
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	if b := m.word(addr, 8, false); b != nil {
		return binary.LittleEndian.Uint64(b), nil
	}
	var b [8]byte
	err := m.ReadInto(addr, b[:])
	return binary.LittleEndian.Uint64(b[:]), err
}

// WriteU64 writes a little-endian uint64 at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	if b := m.word(addr, 8, true); b != nil {
		binary.LittleEndian.PutUint64(b, v)
		return nil
	}
	return m.Write(addr, binary.LittleEndian.AppendUint64(make([]byte, 0, 8), v))
}

// Zero clears n bytes at addr. A frame that has a backing store is cleared
// in place and one that has none is zero already: Zero neither creates a
// store (AllocFrames scrubs every region it hands out, written or not) nor
// drops one (the frame's next write would only allocate it again).
func (m *Memory) Zero(addr Addr, n int) error {
	if err := m.check(addr, n); err != nil {
		return err
	}
	for n > 0 {
		off := int(addr % PageSize)
		k := min(n, PageSize-off)
		if f := m.frames[addr>>PageShift]; f != nil {
			clear(f[off : off+k])
		}
		n, addr = n-k, addr+Addr(k)
	}
	return nil
}

// FrameIsZero reports whether every byte of the frame is zero, as one
// compare (an absent frame is). The IOMMU asks it of a page table that
// may have lost its last entry.
func (m *Memory) FrameIsZero(f Frame) bool {
	return uint64(f) < m.Frames() && (m.frames[f] == nil || *m.frames[f] == zeroFrame)
}

// AllocFrames allocates n contiguous frames (rounded up to a power of two
// internally by the buddy allocator, but exactly n are accounted and the
// remainder returned to the free lists). It returns the first frame.
func (m *Memory) AllocFrames(n int) (Frame, error) {
	if n <= 0 {
		return 0, fmt.Errorf("physmem: alloc of %d frames", n)
	}
	f, err := m.buddy.alloc(uint64(n))
	if err != nil {
		return 0, err
	}
	m.allocBytes += uint64(n) * PageSize
	// Fresh allocations are zeroed, as a memory controller would scrub
	// frames between owners: the one thing between a tenant's freed data and
	// the frame's next owner. A frame nobody wrote has nothing to scrub.
	_ = m.Zero(f.Addr(), n*PageSize)
	return f, nil
}

// FreeFrames releases n frames starting at f. The (f, n) pair must match a
// previous allocation exactly.
func (m *Memory) FreeFrames(f Frame, n int) error {
	if err := m.buddy.release(f, uint64(n)); err != nil {
		return err
	}
	m.allocBytes -= uint64(n) * PageSize
	return nil
}

// FreeFramesCount reports how many frames remain allocatable.
func (m *Memory) FreeFramesCount() uint64 { return m.buddy.freeFrames }
