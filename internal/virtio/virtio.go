// Package virtio implements VIRTIO-style split virtqueues over the
// machine's shared memory, reached exclusively through DMA.
//
// §2.1 of "The Last CPU" proposes VIRTIO as "an ideal interface for
// exposing resources from self-managing devices": unidirectional queues
// of memory descriptors that any modest device can drive. This package
// provides both halves:
//
//   - Driver: the requester side (e.g. the smart NIC's KVS app). It owns
//     descriptor allocation, posts request/response descriptor chains to
//     the available ring, and reaps the used ring.
//   - Endpoint: the provider side (e.g. the smart SSD's file service).
//     It pops available descriptors, hands request payloads to a handler,
//     and returns responses through the used ring.
//
// The ring and buffer memory live in the *application's* shared virtual
// address space: every access below is a DMA translated by the issuing
// device's IOMMU, so a grant unmapped under it breaks the queue exactly
// as it would on hardware. Layout follows the VIRTIO 1.1 split-ring format
// (descriptor table, available ring, used ring), with each request a
// two-descriptor chain: a device-readable request cell and a
// device-writable response cell.
//
// Doorbells replace interrupts (§2.3 "Notifications"): the driver rings
// the endpoint's request doorbell after publishing available entries; the
// endpoint rings the driver's response doorbell after publishing used
// entries. Both sides support notification batching (the E9 ablation).
package virtio

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/iommu"
	"nocpu/internal/physmem"
)

// Descriptor flags, as in VIRTIO 1.1.
const (
	flagNext  = 1 // descriptor continues via Next
	flagWrite = 2 // device writes this buffer (response)
)

const descSize = 16

// Layout describes where a queue's structures live within the app's
// shared virtual address space.
type Layout struct {
	Base     iommu.VirtAddr // descriptor table base
	Entries  uint16         // ring size, power of two
	DataVA   iommu.VirtAddr // buffer-cell region base
	CellSize int            // bytes per buffer cell
}

// RingBytes returns the size of the ring area (descriptor table +
// available ring + used ring) for n entries.
func RingBytes(n uint16) int {
	desc := descSize * int(n)
	avail := 4 + 2*int(n)
	used := 4 + 8*int(n)
	return desc + align4(avail) + align4(used)
}

// DataBytes returns the size of the buffer-cell region.
func (l Layout) DataBytes() int { return int(l.Entries) * l.CellSize }

func align4(n int) int { return (n + 3) &^ 3 }

// Validate checks structural invariants.
func (l Layout) Validate() error {
	if l.Entries == 0 || l.Entries&(l.Entries-1) != 0 {
		return fmt.Errorf("virtio: entries %d not a power of two", l.Entries)
	}
	if l.CellSize <= 0 {
		return fmt.Errorf("virtio: cell size %d", l.CellSize)
	}
	if uint64(l.Base)%8 != 0 || uint64(l.DataVA)%8 != 0 {
		return fmt.Errorf("virtio: unaligned layout")
	}
	return nil
}

// SharedBytes returns the shared-memory footprint a provider quotes in
// OpenResp for a queue of the given geometry (rings + page-aligned data
// region).
func SharedBytes(entries uint16, cellSize int) uint64 {
	l := NewLayout(0, entries, cellSize)
	return uint64(l.DataVA) + uint64(l.DataBytes())
}

// CellSizeFromQuote inverts SharedBytes: from the footprint a provider
// quoted for a queue of the given entry count it recovers the cell size
// the provider serves, so a client that wants a different ring size can
// scale the layout. A quote with no data region at all reads as one page
// per cell.
func CellSizeFromQuote(quote uint64, entries uint16) int {
	ring := uint64(NewLayout(0, entries, 0).DataVA)
	if quote <= ring {
		return physmem.PageSize
	}
	return int((quote - ring) / uint64(entries))
}

// NewLayout computes the standard layout: rings at base, data region
// immediately after (page aligned).
func NewLayout(base iommu.VirtAddr, entries uint16, cellSize int) Layout {
	ring := RingBytes(entries)
	dataVA := iommu.VirtAddr((uint64(base) + uint64(ring) + physmem.PageSize - 1) &^ (physmem.PageSize - 1))
	return Layout{Base: base, Entries: entries, DataVA: dataVA, CellSize: cellSize}
}

// Offsets within the ring area.
func (l Layout) descVA(i uint16) iommu.VirtAddr {
	return l.Base + iommu.VirtAddr(int(i)*descSize)
}
func (l Layout) availBase() iommu.VirtAddr {
	return l.Base + iommu.VirtAddr(descSize*int(l.Entries))
}
func (l Layout) availIdxVA() iommu.VirtAddr { return l.availBase() + 2 }
func (l Layout) availRingVA(slot uint16) iommu.VirtAddr {
	return l.availBase() + 4 + iommu.VirtAddr(2*int(slot))
}
func (l Layout) usedBase() iommu.VirtAddr {
	return l.availBase() + iommu.VirtAddr(align4(4+2*int(l.Entries)))
}
func (l Layout) usedIdxVA() iommu.VirtAddr { return l.usedBase() + 2 }
func (l Layout) usedRingVA(slot uint16) iommu.VirtAddr {
	return l.usedBase() + 4 + iommu.VirtAddr(8*int(slot))
}
func (l Layout) cellVA(i uint16) iommu.VirtAddr {
	return l.DataVA + iommu.VirtAddr(int(i)*l.CellSize)
}

// desc is the in-memory descriptor format.
type desc struct {
	Addr  uint64
	Len   uint32
	Flags uint16
	Next  uint16
}

// putDesc encodes d into b[:descSize].
func putDesc(b []byte, d desc) {
	binary.LittleEndian.PutUint64(b[0:], d.Addr)
	binary.LittleEndian.PutUint32(b[8:], d.Len)
	binary.LittleEndian.PutUint16(b[12:], d.Flags)
	binary.LittleEndian.PutUint16(b[14:], d.Next)
}

func decodeDesc(b []byte) desc {
	return desc{
		Addr:  binary.LittleEndian.Uint64(b[0:]),
		Len:   binary.LittleEndian.Uint32(b[8:]),
		Flags: binary.LittleEndian.Uint16(b[12:]),
		Next:  binary.LittleEndian.Uint16(b[14:]),
	}
}

// usedElemSize is one used-ring element: the chain's head and the number
// of response bytes written.
const usedElemSize = 8

func putUsedElem(b []byte, id uint32, n uint32) {
	binary.LittleEndian.PutUint32(b[0:], id)
	binary.LittleEndian.PutUint32(b[4:], n)
}

func decodeUsedElem(b []byte) (id uint32, n uint32) {
	return binary.LittleEndian.Uint32(b[0:]), binary.LittleEndian.Uint32(b[4:])
}
