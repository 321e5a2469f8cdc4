// Package physmem simulates the machine's physical memory: a flat
// byte-addressable store plus a buddy allocator handing out 4 KiB frames.
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

// Memory is the flat physical memory plus its frame allocator.
type Memory struct {
	data  []byte
	buddy *buddy
	// owner tracks which allocation (by tag) owns each allocated frame;
	// used by tests and the memory controller to audit leaks.
	allocBytes uint64
}

// New creates a memory of the given size, which must be a positive
// multiple of PageSize.
func New(size uint64) (*Memory, error) {
	if size == 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("physmem: size %d is not a positive multiple of %d", size, PageSize)
	}
	return &Memory{
		data:  make([]byte, size),
		buddy: newBuddy(size / PageSize),
	}, nil
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
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// Frames returns the total number of frames.
func (m *Memory) Frames() uint64 { return uint64(len(m.data)) / PageSize }

// AllocatedBytes returns the bytes currently handed out by the allocator.
func (m *Memory) AllocatedBytes() uint64 { return m.allocBytes }

func (m *Memory) check(addr Addr, n int) error {
	if n < 0 || uint64(addr) > uint64(len(m.data)) || uint64(addr)+uint64(n) > uint64(len(m.data)) {
		return fmt.Errorf("physmem: access [%#x, %#x) outside memory of %d bytes", addr, uint64(addr)+uint64(n), len(m.data))
	}
	return nil
}

// ReadInto copies len(dst) bytes at addr into dst.
func (m *Memory) ReadInto(addr Addr, dst []byte) error {
	if err := m.check(addr, len(dst)); err != nil {
		return err
	}
	copy(dst, m.data[addr:])
	return nil
}

// Write copies src into memory at addr.
func (m *Memory) Write(addr Addr, src []byte) error {
	if err := m.check(addr, len(src)); err != nil {
		return err
	}
	copy(m.data[addr:], src)
	return nil
}

// ReadU64 reads a little-endian uint64 at addr (used for PTEs and ring
// indices; the emulated machine is little-endian throughout).
func (m *Memory) ReadU64(addr Addr) (uint64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(m.data[addr:]), nil
}

// WriteU64 writes a little-endian uint64 at addr.
func (m *Memory) WriteU64(addr Addr, v uint64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	return nil
}

// ReadU32 reads a little-endian uint32 at addr.
func (m *Memory) ReadU32(addr Addr) (uint32, error) {
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

// WriteU32 writes a little-endian uint32 at addr.
func (m *Memory) WriteU32(addr Addr, v uint32) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return nil
}

// ReadU16 reads a little-endian uint16 at addr.
func (m *Memory) ReadU16(addr Addr) (uint16, error) {
	if err := m.check(addr, 2); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(m.data[addr:]), nil
}

// WriteU16 writes a little-endian uint16 at addr.
func (m *Memory) WriteU16(addr Addr, v uint16) error {
	if err := m.check(addr, 2); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(m.data[addr:], v)
	return nil
}

// Zero clears n bytes at addr.
func (m *Memory) Zero(addr Addr, n int) error {
	if err := m.check(addr, n); err != nil {
		return err
	}
	clear(m.data[addr : uint64(addr)+uint64(n)])
	return nil
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
	// frames between owners to prevent data leakage.
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
