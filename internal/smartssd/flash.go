// Package smartssd implements the smart SSD of §3: a storage device that
// exposes its files as bus services and serves file I/O to peer devices
// over VIRTIO queues, with no CPU anywhere in the path.
//
// The stack, bottom-up:
//
//   - flash: a NAND model with channels/dies, read/program/erase
//     latencies and per-channel serialization.
//   - FTL: a page-mapped flash translation layer with greedy garbage
//     collection and wear accounting.
//   - FS: a flat extent filesystem persisted through the FTL (superblock
//   - inode table), with full remount recovery.
//   - SSD: the self-managing device: a file service per volume
//     (discovery by "file:<name>" queries), a loader service (§2.1), and
//     the virtio endpoints serving connections.
package smartssd

import (
	"fmt"

	"nocpu/internal/sim"
)

// FlashGeometry describes the NAND array.
type FlashGeometry struct {
	Channels      int
	DiesPerChan   int
	BlocksPerDie  int
	PagesPerBlock int
	PageSize      int
}

// DefaultGeometry is a small, fast-to-simulate array: 4 ch x 2 dies x 64
// blocks x 64 pages x 4 KiB = 128 MiB raw.
var DefaultGeometry = FlashGeometry{
	Channels:      4,
	DiesPerChan:   2,
	BlocksPerDie:  64,
	PagesPerBlock: 64,
	PageSize:      4096,
}

// TotalBlocks returns the number of physical blocks.
func (g FlashGeometry) TotalBlocks() int {
	return g.Channels * g.DiesPerChan * g.BlocksPerDie
}

// TotalPages returns the number of physical pages.
func (g FlashGeometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// FlashTiming holds NAND operation latencies (SLC-ish defaults).
type FlashTiming struct {
	Read    sim.Duration
	Program sim.Duration
	Erase   sim.Duration
}

// DefaultTiming is a fast-NAND calibration.
var DefaultTiming = FlashTiming{
	Read:    25 * sim.Microsecond,
	Program: 200 * sim.Microsecond,
	Erase:   1500 * sim.Microsecond,
}

// PPA is a physical page address: sequential page number across the
// array.
type PPA uint32

// blockOf returns the physical block index containing the page.
func (g FlashGeometry) blockOf(p PPA) int { return int(p) / g.PagesPerBlock }

// indexOf returns the page's position inside its block.
func (g FlashGeometry) indexOf(p PPA) int { return int(p) % g.PagesPerBlock }

// channelOf returns the channel that owns the page's block. Blocks are
// striped across channels so sequential block numbers alternate channels.
func (g FlashGeometry) channelOf(block int) int { return block % g.Channels }

// flash is the NAND array. Each channel is a FIFO server: operations on
// the same channel serialize, operations on different channels overlap.
type flash struct {
	geo      FlashGeometry
	tim      FlashTiming
	eng      *sim.Engine
	channels []*sim.Server
	// pages holds each physical page's data, a row per block: the row
	// comes with the block's first program and goes with its erase, so the
	// array costs the host what was written to it. A nil row is a block of
	// erased pages; inside a row nil = erased, zero = a programmed page
	// whose data was dropped. A page is the slice it was programmed with,
	// up to PageSize long; bytes past its length read as zero. It is
	// immutable up to its length until its block is erased: read hands out
	// the stored slice, program keeps the slice it is given, and only the
	// holder of a logical page's lock writes past the length of the page
	// the FTL maps now, to program a longer view of it (FS.merge).
	pages [][][]byte
	// zero is the one empty page: what an erased, dropped or (in the FTL)
	// unmapped page reads as. It is not nil, which means erased.
	zero   []byte
	erases []uint64 // per-block erase count (wear)
	// broken simulates a failed die/controller: every op errors.
	broken bool

	reads, programs, eraseOps uint64
}

func newFlash(eng *sim.Engine, geo FlashGeometry, tim FlashTiming) *flash {
	f := &flash{
		geo:    geo,
		tim:    tim,
		eng:    eng,
		pages:  make([][][]byte, geo.TotalBlocks()),
		zero:   []byte{},
		erases: make([]uint64, geo.TotalBlocks()),
	}
	for i := 0; i < geo.Channels; i++ {
		f.channels = append(f.channels, sim.NewServer(eng))
	}
	return f
}

func (f *flash) chanFor(p PPA) *sim.Server {
	return f.channels[f.geo.channelOf(f.geo.blockOf(p))]
}

// page returns what the array holds for the page; a block without a row
// holds erased pages only.
func (f *flash) page(p PPA) []byte {
	if row := f.pages[f.geo.blockOf(p)]; row != nil {
		return row[f.geo.indexOf(p)]
	}
	return nil
}

var errFlashBroken = fmt.Errorf("smartssd: flash failure")

// pageOp is one page read or program, or one block erase, as a record its
// issuer owns: the event the page's channel fires and, for a write through
// the FTL, the commit step behind it. It is idle when done.pageDone is
// entered and may be reissued from inside it. The last four fields belong
// to the file I/O the record is a chunk of (fs.go); flash and FTL never
// look at them.
type pageOp struct {
	done    pageCompletion
	f       *flash
	t       *ftl // set by ftl.writeOp: where a completed program is committed
	lpn     int  // for the FTL's forms
	ppa     PPA
	page    []byte // a read's result (the flash's own, read-only up to its length) or the page a program hands over
	cmd     flashCmd
	stage   pageStage
	pageOff int
	data    []byte  // write: the bytes for page[pageOff:]; read: where they go
	next    *pageOp // the chunk queued behind this one for the page lock
}

type pageCompletion interface {
	pageDone(op *pageOp, err error)
}

// flashCmd is what the channel does for a pageOp.
type flashCmd uint8

const (
	cmdRead flashCmd = iota
	cmdProgram
	cmdErase // op.ppa's whole block
)

// readOp reads the page at op.ppa into op.page: the empty page for an
// erased one, and bytes past the page's length read as zero. The slice is
// the flash's own: the issuer may keep it but must not write inside it.
func (f *flash) readOp(op *pageOp) {
	if f.geo.blockOf(op.ppa) >= len(f.pages) {
		op.done.pageDone(op, fmt.Errorf("smartssd: read of ppa %d beyond array", op.ppa))
		return
	}
	f.reads++
	// The read holds the page as it is now: the FTL may unmap and drop it
	// while the read waits for its channel, and the read still returns what
	// the cells hold until the erase. (Nothing programs a page a read is
	// queued on: the FTL maps a page only once its program completed.)
	if op.page = f.page(op.ppa); op.page == nil {
		op.page = f.zero
	}
	op.f, op.t, op.cmd = f, nil, cmdRead
	f.chanFor(op.ppa).Submit(f.tim.Read, op)
}

// programOp writes op.page to the erased page at op.ppa. Programming a
// programmed page is an FTL bug and fails the op. The page is handed over
// as it is, of any length up to PageSize: the flash keeps that slice, so
// the issuer must not write inside it again (it may share it, as GC
// relocation does, or be a view of a request buffer nobody writes to).
func (f *flash) programOp(op *pageOp) {
	if f.geo.blockOf(op.ppa) >= len(f.pages) {
		op.done.pageDone(op, fmt.Errorf("smartssd: program of ppa %d beyond array", op.ppa))
		return
	}
	if len(op.page) > f.geo.PageSize {
		op.done.pageDone(op, fmt.Errorf("smartssd: program of %d bytes into %d-byte page", len(op.page), f.geo.PageSize))
		return
	}
	f.programs++
	op.f, op.cmd = f, cmdProgram
	f.chanFor(op.ppa).Submit(f.tim.Program, op)
}

// eraseOp clears the block holding op.ppa.
func (f *flash) eraseOp(op *pageOp) {
	if f.geo.blockOf(op.ppa) >= len(f.pages) {
		op.done.pageDone(op, fmt.Errorf("smartssd: erase of block %d beyond array", f.geo.blockOf(op.ppa)))
		return
	}
	f.eraseOps++
	op.f, op.t, op.cmd = f, nil, cmdErase
	f.chanFor(op.ppa).Submit(f.tim.Erase, op)
}

// Fire is the channel finishing the operation. A program that came through
// the FTL commits its mapping before the completion runs, GC looks after.
func (op *pageOp) Fire() {
	f, t := op.f, op.t
	var err error
	switch {
	case f.broken:
		op.page, err = nil, errFlashBroken
	case op.cmd == cmdErase:
		// The block's row of pages goes in one store.
		b := f.geo.blockOf(op.ppa)
		f.pages[b] = nil
		f.erases[b]++
	case op.cmd == cmdProgram && f.page(op.ppa) != nil:
		err = fmt.Errorf("smartssd: program of non-erased ppa %d", op.ppa)
	case op.cmd == cmdProgram:
		b := f.geo.blockOf(op.ppa)
		if f.pages[b] == nil {
			f.pages[b] = make([][]byte, f.geo.PagesPerBlock)
		}
		f.pages[b][f.geo.indexOf(op.ppa)] = op.page
	}
	if t != nil && err == nil {
		t.commit(op)
	}
	op.done.pageDone(op, err)
	if t != nil && err == nil {
		t.maybeGC()
	}
}

// drop releases the data of a programmed page the FTL no longer maps. The
// page stays programmed (program still refuses it) until its block is
// erased, but the heap stops holding every stale copy of a rewritten page.
func (f *flash) drop(p PPA) {
	if f.page(p) != nil {
		f.pages[f.geo.blockOf(p)][f.geo.indexOf(p)] = f.zero
	}
}
