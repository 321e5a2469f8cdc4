package smartssd

import (
	"fmt"
	"sort"

	"nocpu/internal/sim"
)

// invalidPPA / invalidLPN are sentinel mappings.
const (
	invalidPPA = PPA(0xFFFFFFFF)
	invalidLPN = uint32(0xFFFFFFFF)
)

type blockState uint8

const (
	blockFree blockState = iota
	blockOpen
	blockFull
)

// FTLStats counts translation-layer activity.
type FTLStats struct {
	HostWrites   uint64
	HostReads    uint64
	GCRuns       uint64
	GCPagesMoved uint64
	Erases       uint64
}

// WriteAmplification returns (host+GC writes)/host writes.
func (s FTLStats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 1
	}
	return float64(s.HostWrites+s.GCPagesMoved) / float64(s.HostWrites)
}

// ftl is a page-mapped flash translation layer with greedy GC.
type ftl struct {
	f   *flash
	eng *sim.Engine
	geo FlashGeometry

	// l2p and p2l are sized by the array, not by what was written, unlike
	// the flash's page rows: they hold no pointers, so the collector never
	// scans them, and shrinking them would buy no mark time and put a
	// second level on every translation.
	l2p        []PPA    // logical page -> physical page
	p2l        []uint32 // physical page -> logical page (for GC)
	validCount []int    // valid pages per block
	state      []blockState
	freeBlocks []int // sorted ascending for determinism
	nextInBlk  []int // next free page offset for open blocks
	active     []int // per-channel open block (-1 none)
	rrChan     int   // round-robin channel pointer

	logicalPages int
	gcThreshold  int
	gcRunning    bool
	gc           gcCycle // the collection in progress while gcRunning

	stats FTLStats
}

// newFTL builds the layer over a flash array. opRatio is the
// over-provisioning fraction (e.g. 0.125 keeps 12.5% of pages invisible
// to the host, which GC relies on).
func newFTL(eng *sim.Engine, f *flash, opRatio float64) *ftl {
	if opRatio < 0.05 {
		opRatio = 0.05
	}
	total := f.geo.TotalPages()
	t := &ftl{
		f:            f,
		eng:          eng,
		geo:          f.geo,
		l2p:          make([]PPA, total),
		p2l:          make([]uint32, total),
		validCount:   make([]int, f.geo.TotalBlocks()),
		state:        make([]blockState, f.geo.TotalBlocks()),
		nextInBlk:    make([]int, f.geo.TotalBlocks()),
		active:       make([]int, f.geo.Channels),
		logicalPages: int(float64(total) * (1 - opRatio)),
		gcThreshold:  2 * f.geo.Channels,
	}
	for i := range t.l2p {
		t.l2p[i] = invalidPPA
	}
	for i := range t.p2l {
		t.p2l[i] = invalidLPN
	}
	for b := 0; b < f.geo.TotalBlocks(); b++ {
		t.freeBlocks = append(t.freeBlocks, b)
	}
	for c := range t.active {
		t.active[c] = -1
	}
	t.gc.t = t
	return t
}

// Capacity returns the number of host-visible logical pages.
func (t *ftl) Capacity() int { return t.logicalPages }

// WearStats summarizes per-block erase counts.
type WearStats struct {
	MinErases uint64
	MaxErases uint64
	Total     uint64
}

// Wear returns the erase-count distribution across blocks.
func (t *ftl) Wear() WearStats {
	var w WearStats
	w.MinErases = ^uint64(0)
	for _, e := range t.f.erases {
		if e < w.MinErases {
			w.MinErases = e
		}
		if e > w.MaxErases {
			w.MaxErases = e
		}
		w.Total += e
	}
	if w.MinErases == ^uint64(0) {
		w.MinErases = 0
	}
	return w
}

// Stats returns a copy of the counters.
func (t *ftl) Stats() FTLStats {
	s := t.stats
	s.Erases = 0
	for _, e := range t.f.erases {
		s.Erases += e
	}
	return s
}

// takeFreeBlock pops the lowest-numbered free block, preferring one on
// the given channel.
func (t *ftl) takeFreeBlock(channel int) (int, bool) {
	for i, b := range t.freeBlocks {
		if t.geo.channelOf(b) == channel {
			t.freeBlocks = append(t.freeBlocks[:i], t.freeBlocks[i+1:]...)
			return b, true
		}
	}
	if len(t.freeBlocks) > 0 {
		b := t.freeBlocks[0]
		t.freeBlocks = t.freeBlocks[1:]
		return b, true
	}
	return 0, false
}

// allocPage reserves the next physical page for a write.
func (t *ftl) allocPage() (PPA, error) {
	// Round-robin across channels for parallelism.
	for tries := 0; tries < t.geo.Channels; tries++ {
		c := t.rrChan
		t.rrChan = (t.rrChan + 1) % t.geo.Channels
		b := t.active[c]
		if b < 0 {
			nb, ok := t.takeFreeBlock(c)
			if !ok {
				continue
			}
			t.active[c] = nb
			t.state[nb] = blockOpen
			t.nextInBlk[nb] = 0
			b = nb
		}
		ppa := PPA(b*t.geo.PagesPerBlock + t.nextInBlk[b])
		t.nextInBlk[b]++
		if t.nextInBlk[b] == t.geo.PagesPerBlock {
			t.state[b] = blockFull
			t.active[c] = -1
		}
		return ppa, nil
	}
	return 0, fmt.Errorf("smartssd: ftl out of space (gc cannot keep up)")
}

// invalidate drops the mapping for a physical page, and with it the
// page's data: no new read reaches an unmapped physical page (host reads go
// through l2p, GC relocates only pages p2l still maps), and a read or
// relocation already in flight holds its own reference to the slice.
func (t *ftl) invalidate(ppa PPA) {
	if ppa == invalidPPA {
		return
	}
	if t.p2l[ppa] != invalidLPN {
		t.p2l[ppa] = invalidLPN
		t.validCount[t.geo.blockOf(ppa)]--
		t.f.drop(ppa)
	}
}

// readOp fetches the logical page op.lpn into op.page. An unwritten page
// reads as zeros without touching flash. The slice is read-only, as for
// flash.readOp.
func (t *ftl) readOp(op *pageOp) {
	if op.lpn < 0 || op.lpn >= t.logicalPages {
		op.done.pageDone(op, fmt.Errorf("smartssd: read of lpn %d beyond capacity %d", op.lpn, t.logicalPages))
		return
	}
	t.stats.HostReads++
	if op.ppa = t.l2p[op.lpn]; op.ppa == invalidPPA {
		op.page = t.f.zero
		op.done.pageDone(op, nil)
		return
	}
	t.f.readOp(op)
}

// writeOp stores op.page as the logical page op.lpn (always out-of-place).
// A full page is handed over, as for flash.programOp. The mapping target is
// reserved now and committed when the program completes (pageOp.Fire).
func (t *ftl) writeOp(op *pageOp) {
	if op.lpn < 0 || op.lpn >= t.logicalPages {
		op.done.pageDone(op, fmt.Errorf("smartssd: write of lpn %d beyond capacity %d", op.lpn, t.logicalPages))
		return
	}
	t.stats.HostWrites++
	ppa, err := t.allocPage()
	if err != nil {
		op.done.pageDone(op, err)
		return
	}
	op.ppa, op.t = ppa, t
	t.f.programOp(op)
}

// commit points the logical page at the page just programmed.
func (t *ftl) commit(op *pageOp) {
	t.invalidate(t.l2p[op.lpn])
	t.l2p[op.lpn] = op.ppa
	t.p2l[op.ppa] = uint32(op.lpn)
	t.validCount[t.geo.blockOf(op.ppa)]++
}

// Trim invalidates a logical page (file deletion).
func (t *ftl) Trim(lpn int) {
	if lpn < 0 || lpn >= t.logicalPages {
		return
	}
	if ppa := t.l2p[lpn]; ppa != invalidPPA {
		t.invalidate(ppa)
		t.l2p[lpn] = invalidPPA
	}
}

// maybeGC starts a collection cycle when free blocks run low.
func (t *ftl) maybeGC() {
	if t.gcRunning || len(t.freeBlocks) >= t.gcThreshold {
		return
	}
	victim := t.pickVictim()
	if victim < 0 {
		return
	}
	t.gcRunning = true
	t.stats.GCRuns++
	t.gc.victim = victim
	t.gc.relocate(0)
}

// pickVictim chooses the full block with the fewest valid pages.
func (t *ftl) pickVictim() int {
	best, bestValid := -1, 1<<30
	for b := 0; b < t.geo.TotalBlocks(); b++ {
		if t.state[b] != blockFull {
			continue
		}
		if t.validCount[b] < bestValid {
			best, bestValid = b, t.validCount[b]
		}
	}
	return best
}

// gcCycle is a collection as a record the FTL owns (one runs at a time):
// its one page op reads each valid page of the victim and programs it
// elsewhere, then erases the victim.
type gcCycle struct {
	t      *ftl
	op     pageOp
	victim int
	src    PPA    // the page being relocated
	lpn    uint32 // and its logical page
}

// relocate moves the valid pages of the victim from page index i on, one
// at a time; once none is left it erases the victim.
func (g *gcCycle) relocate(i int) {
	t := g.t
	for ; i < t.geo.PagesPerBlock; i++ {
		g.src = PPA(g.victim*t.geo.PagesPerBlock + i)
		if g.lpn = t.p2l[g.src]; g.lpn != invalidLPN {
			g.op = pageOp{done: g, ppa: g.src}
			t.f.readOp(&g.op)
			return
		}
	}
	g.op = pageOp{done: g, ppa: PPA(g.victim * t.geo.PagesPerBlock)}
	t.f.eraseOp(&g.op)
}

// pageDone is the next step of the cycle. A failure leaves the victim full
// with l2p still pointing into it (out of free pages mid-GC, or a flash
// error) and ends the cycle.
func (g *gcCycle) pageDone(op *pageOp, err error) {
	t := g.t
	if err != nil {
		t.gcRunning = false // broken flash: GC abandons quietly, writes will fail
		return
	}
	switch op.cmd {
	case cmdRead:
		dst, aerr := t.allocPage()
		if aerr != nil {
			t.gcRunning = false
			return
		}
		// Source and destination share the slice until the source drops it.
		op.ppa = dst
		t.f.programOp(op)
	case cmdProgram:
		src, dst := g.src, op.ppa
		// The host may have rewritten the LPN while we copied; only commit
		// if our source is still current.
		if t.l2p[g.lpn] == src {
			t.invalidate(src)
			t.l2p[g.lpn] = dst
			t.p2l[dst] = g.lpn
			t.validCount[t.geo.blockOf(dst)]++
			t.stats.GCPagesMoved++
		} else {
			// Stale copy: the destination page holds garbage now.
			t.p2l[dst] = invalidLPN
			t.f.drop(dst)
		}
		g.relocate(t.geo.indexOf(src) + 1)
	case cmdErase:
		t.gcRunning = false
		t.state[g.victim] = blockFree
		t.nextInBlk[g.victim] = 0
		t.freeBlocks = append(t.freeBlocks, g.victim)
		sort.Ints(t.freeBlocks)
		t.maybeGC()
	}
}
