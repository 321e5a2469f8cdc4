// Package iommu implements the per-device I/O memory management unit of
// the CPU-less machine.
//
// As §2.2 of "The Last CPU" prescribes, address translation is the
// cornerstone of isolation: every device access to physical memory is
// translated through that device's IOMMU, and the page tables are
// programmed only by the privileged system bus (never by the device
// itself, and never by another device's resource controller directly).
//
// The implementation is deliberately literal: page tables are real 4-level
// radix trees whose entries live in simulated physical memory, so a
// translation miss performs actual table-walk reads, and the walk cost the
// DMA engine charges corresponds to real accesses. A set-associative TLB
// in front of the walker makes the E6 ablation (TLB size/associativity vs
// throughput) meaningful.
package iommu

import (
	"fmt"
	"slices"
	"sort"

	"nocpu/internal/physmem"
)

// PASID identifies a process (application) address space on a device, as
// in PCIe PASID. PASID 0 is reserved/invalid.
type PASID uint32

// Access is the kind of memory access being translated.
type Access uint8

// Access kinds.
const (
	AccessRead Access = 1 << iota
	AccessWrite
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessRead | AccessWrite:
		return "read|write"
	}
	return fmt.Sprintf("access(%d)", uint8(a))
}

// Perm is the permission set attached to a mapping.
type Perm = Access

// PermRW is the common read+write permission.
const PermRW = AccessRead | AccessWrite

// VirtAddr is a device-virtual address within a PASID address space.
type VirtAddr uint64

// Page returns the 4 KiB-aligned base of the address.
func (v VirtAddr) Page() VirtAddr { return v &^ (physmem.PageSize - 1) }

// Virtual address geometry: 4 levels x 9 bits + 12-bit offset = 48 bits.
const (
	levels      = 4
	bitsPerLvl  = 9
	entriesPerT = 1 << bitsPerLvl
	vaBits      = levels*bitsPerLvl + physmem.PageShift
	// MaxVirtAddr is the exclusive upper bound of translatable addresses.
	MaxVirtAddr = VirtAddr(1) << vaBits
)

// PTE bit layout.
const (
	pteValid = 1 << 0
	pteRead  = 1 << 1
	pteWrite = 1 << 2
	pteHuge  = 1 << 3 // level-2 leaf covering HugePageSize
	pteAddrM = ^uint64(physmem.PageSize-1) & ((1 << 52) - 1)
)

// HugePageSize is the large-page granule: one level-2 leaf spans 512 base
// pages (2 MiB), like x86 PMD mappings.
const HugePageSize = uint64(1) << (physmem.PageShift + bitsPerLvl)

// HugeFrames is the number of contiguous base frames backing a huge page.
const HugeFrames = int(HugePageSize / physmem.PageSize)

// HugePage returns the HugePageSize-aligned base of the address.
func (v VirtAddr) HugePage() VirtAddr { return v &^ VirtAddr(HugePageSize-1) }

// FaultReason says why a translation failed.
type FaultReason uint8

// Fault reasons.
const (
	FaultNotPresent FaultReason = iota + 1
	FaultPermission
	FaultBadPASID
	FaultOutOfRange
)

func (r FaultReason) String() string {
	switch r {
	case FaultNotPresent:
		return "not-present"
	case FaultPermission:
		return "permission"
	case FaultBadPASID:
		return "bad-pasid"
	case FaultOutOfRange:
		return "out-of-range"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Fault describes a failed translation. Per §4 of the paper, the IOMMU
// delivers faults to its attached device, which must handle them itself.
type Fault struct {
	PASID  PASID
	Addr   VirtAddr
	Access Access
	Reason FaultReason
}

func (f *Fault) Error() string {
	return fmt.Sprintf("iommu fault: %s of va %#x pasid %d: %s", f.Access, uint64(f.Addr), f.PASID, f.Reason)
}

// Stats counts translation activity for the experiment harness.
type Stats struct {
	Translations  uint64
	TLBHits       uint64
	TLBMisses     uint64
	WalkReads     uint64 // physical memory reads performed by table walks
	Faults        uint64
	DomainDenials uint64 // context/mapping attempts refused by the domain check
}

// IOMMU is one device's translation unit.
type IOMMU struct {
	mem  *physmem.Memory
	tlb  *tlb
	ctx  map[PASID]*context
	st   Stats
	name string
	// spare holds tables an unmap found empty, for the next install to
	// take: at most levels-1, the most one unmap can free. They are frames
	// the IOMMU still owns, until its last context goes.
	spare []physmem.Frame

	// domainCheck, when set, is consulted before a context is created or
	// extended: the tenancy layer's isolation-domain boundary, enforced
	// at the device. The IOMMU belongs to exactly one device, so even a
	// compromised kernel holding the IOMMU handle cannot program a
	// mapping the device's own domain check refuses. nil means no
	// tenancy (the default): any PASID may be instantiated.
	domainCheck func(PASID) error
}

// context is one PASID's address space: the root table's base, and every
// frame its radix tree is built of so DestroyContext can return them.
type context struct {
	root   physmem.Addr
	tables []physmem.Frame
}

// Config sets the TLB geometry. The zero value selects DefaultConfig;
// use Disabled (negative sets) for the no-TLB ablation.
type Config struct {
	TLBSets int // number of sets; < 0 disables the TLB, 0 means default
	TLBWays int // associativity
}

// DefaultConfig is a 64-set, 4-way TLB (256 entries), typical of device
// ATCs.
var DefaultConfig = Config{TLBSets: 64, TLBWays: 4}

// Disabled turns the TLB off entirely (every translation walks).
var Disabled = Config{TLBSets: -1}

// New returns an IOMMU backed by mem. name is used in error text.
func New(name string, mem *physmem.Memory, cfg Config) *IOMMU {
	if cfg.TLBSets == 0 && cfg.TLBWays == 0 {
		cfg = DefaultConfig
	}
	return &IOMMU{
		mem:  mem,
		tlb:  newTLB(cfg.TLBSets, cfg.TLBWays),
		ctx:  make(map[PASID]*context),
		name: name,
	}
}

// Stats returns a copy of the counters.
func (u *IOMMU) Stats() Stats { return u.st }

// SetDomainCheck installs the tenancy domain check. The check sees every
// CreateContext and every map, of either page size; a non-nil return
// refuses the operation with the check's (typed, attributed) error.
// Passing nil uninstalls it.
func (u *IOMMU) SetDomainCheck(check func(PASID) error) { u.domainCheck = check }

func (u *IOMMU) checkDomain(p PASID) error {
	if u.domainCheck == nil {
		return nil
	}
	if err := u.domainCheck(p); err != nil {
		u.st.DomainDenials++
		return err
	}
	return nil
}

// Contexts returns the number of live PASID contexts.
func (u *IOMMU) Contexts() int { return len(u.ctx) }

// PASIDs lists the live contexts in ascending order — the enumeration a
// (re)booting kernel needs to reinitialize translation hardware it drives
// by MMIO.
func (u *IOMMU) PASIDs() []PASID {
	out := make([]PASID, 0, len(u.ctx))
	for p := range u.ctx {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasContext reports whether the PASID has an address space.
func (u *IOMMU) HasContext(p PASID) bool {
	_, ok := u.ctx[p]
	return ok
}

// CreateContext allocates a fresh, empty address space for the PASID.
func (u *IOMMU) CreateContext(p PASID) error {
	if p == 0 {
		return fmt.Errorf("iommu %s: PASID 0 is reserved", u.name)
	}
	if _, ok := u.ctx[p]; ok {
		return fmt.Errorf("iommu %s: PASID %d already exists", u.name, p)
	}
	if err := u.checkDomain(p); err != nil {
		return err
	}
	c := &context{}
	root, err := u.allocTable(c)
	if err == nil {
		c.root, u.ctx[p] = root, c
	}
	return err
}

// DestroyContext tears down the PASID's address space, freeing its page
// table frames and flushing its TLB entries. The last context to go takes
// the spare tables with it.
func (u *IOMMU) DestroyContext(p PASID) error {
	c, ok := u.ctx[p]
	if !ok {
		return fmt.Errorf("iommu %s: destroy of unknown PASID %d", u.name, p)
	}
	delete(u.ctx, p)
	frames := c.tables
	if len(u.ctx) == 0 {
		frames, u.spare = append(frames, u.spare...), u.spare[:0]
	}
	for _, f := range frames {
		if err := u.mem.FreeFrames(f, 1); err != nil {
			return fmt.Errorf("iommu %s: freeing table frame: %w", u.name, err)
		}
	}
	u.tlb.flushPASID(p)
	return nil
}

// allocTable gives the context an all-zero table: a spare one if there is
// one — it was empty when it was set aside, so it needs no scrub and the
// allocator is not asked — or a fresh frame, which AllocFrames scrubs.
func (u *IOMMU) allocTable(c *context) (physmem.Addr, error) {
	if len(u.spare) == 0 {
		f, err := u.mem.AllocFrames(1)
		if err != nil {
			return 0, fmt.Errorf("iommu %s: allocating page table: %w", u.name, err)
		}
		u.spare = append(u.spare, f)
	}
	f := u.spare[len(u.spare)-1]
	u.spare = u.spare[:len(u.spare)-1]
	c.tables = append(c.tables, f)
	return f.Addr(), nil
}

// prune gives back the tables a walk left without an entry. path holds
// the slot the walk used in the table of each level; from the table at
// level lvl upward, one that is all zero (a frame compare: no count is
// kept that could go stale) is unlinked from its parent. The root stays,
// and a huge leaf is never looked through: a path holds slots of tables
// only. A page-walk cache, if there were one, would be invalidated here.
func (u *IOMMU) prune(c *context, path *[levels]physmem.Addr, lvl int) {
	for ; lvl > 0; lvl-- {
		f := physmem.FrameOf(path[lvl])
		if !u.mem.FrameIsZero(f) {
			return
		}
		_ = u.mem.WriteU64(path[lvl-1], 0) // a slot the walk just read
		i := slices.Index(c.tables, f)
		c.tables = slices.Delete(c.tables, i, i+1)
		if len(u.spare) < levels-1 {
			u.spare = append(u.spare, f)
		} else {
			_ = u.mem.FreeFrames(f, 1) // allocTable's own frame
		}
	}
}

func checkVA(va VirtAddr) error {
	if va >= MaxVirtAddr {
		return &Fault{Addr: va, Reason: FaultOutOfRange}
	}
	return nil
}

func idx(va VirtAddr, level int) uint64 {
	shift := physmem.PageShift + bitsPerLvl*(levels-1-level)
	return (uint64(va) >> shift) & (entriesPerT - 1)
}

// leaf describes one page size to the two table walks: the level whose
// slot holds its PTE, the bytes one mapping covers (the virtual address
// and the backing run are both aligned to that), the flag that tells a
// 2 MiB leaf from the pointer to a table of 4 KiB ones in the same slot,
// and the word error text puts in front of "map"/"unmap".
type leaf struct {
	level int
	size  uint64
	flag  uint64
	name  string
}

var (
	leaf4K = leaf{level: levels - 1, size: physmem.PageSize}
	leaf2M = leaf{level: levels - 2, size: HugePageSize, flag: pteHuge, name: "huge "}
)

func leafFor(huge bool) *leaf {
	if huge {
		return &leaf2M
	}
	return &leaf4K
}

// Map installs a translation va -> frame with the given permissions. va
// must be page-aligned. Intermediate tables are allocated on demand.
// Remapping an already-present page is rejected: the bus must unmap first,
// which keeps grant auditing simple.
func (u *IOMMU) Map(p PASID, va VirtAddr, frame physmem.Frame, perm Perm) error {
	return u.install(p, va, frame, perm, &leaf4K)
}

// install is the one walk that adds a mapping. Every table it descends
// through is allocated on demand; a huge leaf met on the way down already
// covers va and is refused before it is followed (its frame holds the
// application's data, not a table), and a valid leaf slot — a mapping of
// either size, or for a huge install a table of 4 KiB ones — is refused
// too. A walk that runs out of frames half way takes back the tables it
// had added. va and frame are aligned to the leaf's size: a huge frame
// starts a naturally aligned run of HugeFrames contiguous frames, which
// the buddy allocator's power-of-two blocks are.
func (u *IOMMU) install(p PASID, va VirtAddr, frame physmem.Frame, perm Perm, lf *leaf) error {
	c, ok := u.ctx[p]
	if !ok {
		return fmt.Errorf("iommu %s: map on unknown PASID %d", u.name, p)
	}
	if err := u.checkDomain(p); err != nil {
		return err
	}
	if uint64(va)%lf.size != 0 {
		return fmt.Errorf("iommu %s: %smap of unaligned va %#x", u.name, lf.name, uint64(va))
	}
	if uint64(frame.Addr())%lf.size != 0 {
		return fmt.Errorf("iommu %s: %smap of unaligned frame %d", u.name, lf.name, frame)
	}
	if err := checkVA(va); err != nil {
		return err
	}
	if perm&PermRW == 0 {
		return fmt.Errorf("iommu %s: map with empty permissions", u.name)
	}
	var path [levels]physmem.Addr
	for tbl, lvl := c.root, 0; ; lvl++ {
		slot := physmem.Addr(uint64(tbl) + idx(va, lvl)*8)
		path[lvl] = slot
		pte, err := u.mem.ReadU64(slot)
		if err != nil {
			return err
		}
		if lvl == lf.level {
			if pte&pteValid != 0 {
				return fmt.Errorf("iommu %s: va %#x pasid %d already mapped", u.name, uint64(va), p)
			}
			pte = uint64(frame.Addr())&pteAddrM | pteValid | lf.flag
			if perm&AccessRead != 0 {
				pte |= pteRead
			}
			if perm&AccessWrite != 0 {
				pte |= pteWrite
			}
			return u.mem.WriteU64(slot, pte)
		}
		if pte&pteValid != 0 && pte&pteHuge != 0 {
			return fmt.Errorf("iommu %s: va %#x pasid %d covered by a huge mapping", u.name, uint64(va), p)
		}
		if pte&pteValid == 0 {
			next, err := u.allocTable(c)
			if err != nil {
				u.prune(c, &path, lvl)
				return err
			}
			pte = uint64(next)&pteAddrM | pteValid
			if err := u.mem.WriteU64(slot, pte); err != nil {
				return err
			}
		}
		tbl = physmem.Addr(pte & pteAddrM)
	}
}

// Unmap removes the translation for the page holding va and invalidates
// its TLB entry.
func (u *IOMMU) Unmap(p PASID, va VirtAddr) error { return u.remove(p, va.Page(), &leaf4K, true) }

// remove is the one walk that takes a mapping out. It follows only
// pointers to tables: a huge leaf above the level it is looking for
// covers va with a mapping of the other size, and the slot it ends at
// must hold a leaf of the size asked for (a huge unmap of a table of
// 4 KiB mappings is refused there). With last set — the caller takes no
// further page out of this leaf's table — the tables the unmap emptied are
// given back, after the TLB invalidation.
func (u *IOMMU) remove(p PASID, va VirtAddr, lf *leaf, last bool) error {
	c, ok := u.ctx[p]
	if !ok {
		return fmt.Errorf("iommu %s: unmap on unknown PASID %d", u.name, p)
	}
	if uint64(va)%lf.size != 0 {
		return fmt.Errorf("iommu %s: %sunmap of unaligned va %#x", u.name, lf.name, uint64(va))
	}
	if err := checkVA(va); err != nil {
		return err
	}
	var path [levels]physmem.Addr
	for tbl, lvl := c.root, 0; ; lvl++ {
		slot := physmem.Addr(uint64(tbl) + idx(va, lvl)*8)
		path[lvl] = slot
		pte, err := u.mem.ReadU64(slot)
		if err != nil {
			return err
		}
		if pte&pteValid == 0 {
			if last && lvl == lf.level {
				u.prune(c, &path, lvl) // the pages before this one may have been the table's last
			}
			return fmt.Errorf("iommu %s: %sunmap of unmapped va %#x pasid %d", u.name, lf.name, uint64(va), p)
		}
		if lvl == lf.level {
			if pte&pteHuge != lf.flag {
				return fmt.Errorf("iommu %s: huge unmap of non-huge va %#x pasid %d", u.name, uint64(va), p)
			}
			if err := u.mem.WriteU64(slot, 0); err != nil {
				return err
			}
			if lf.flag != 0 {
				u.tlb.invalidateHuge(p, va)
			} else {
				u.tlb.invalidate(p, va)
			}
			if last {
				u.prune(c, &path, lvl)
			}
			return nil
		}
		if pte&pteHuge != 0 {
			return fmt.Errorf("iommu %s: va %#x pasid %d covered by a huge mapping", u.name, uint64(va), p)
		}
		tbl = physmem.Addr(pte & pteAddrM)
	}
}

// Lookup reports the frame mapped at va without touching the TLB or the
// stats — used by audits and tests, not by the data path.
func (u *IOMMU) Lookup(p PASID, va VirtAddr) (physmem.Frame, Perm, bool) {
	c, ok := u.ctx[p]
	if !ok || va >= MaxVirtAddr {
		return 0, 0, false
	}
	for tbl, lvl := c.root, 0; ; lvl++ {
		pte, err := u.mem.ReadU64(physmem.Addr(uint64(tbl) + idx(va, lvl)*8))
		if err != nil || pte&pteValid == 0 {
			return 0, 0, false
		}
		if lvl == levels-1 || pte&pteHuge != 0 {
			var perm Perm
			if pte&pteRead != 0 {
				perm |= AccessRead
			}
			if pte&pteWrite != 0 {
				perm |= AccessWrite
			}
			return physmem.FrameOf(physmem.Addr(pte & pteAddrM)), perm, true
		}
		tbl = physmem.Addr(pte & pteAddrM)
	}
}

// Translate resolves one access. On success it returns the physical
// address and the number of page-walk memory reads performed (0 on a TLB
// hit). On failure it returns a *Fault.
func (u *IOMMU) Translate(p PASID, va VirtAddr, access Access) (physmem.Addr, int, error) {
	u.st.Translations++
	if err := checkVA(va); err != nil {
		u.st.Faults++
		f := err.(*Fault)
		f.PASID, f.Access = p, access
		return 0, 0, f
	}
	c, ok := u.ctx[p]
	if !ok {
		u.st.Faults++
		return 0, 0, &Fault{PASID: p, Addr: va, Access: access, Reason: FaultBadPASID}
	}
	page := va.Page()
	off := uint64(va) & (physmem.PageSize - 1)
	if e, ok := u.tlb.lookup(p, page, va.HugePage()); ok {
		u.st.TLBHits++
		if e.perm&access != access {
			u.st.Faults++
			return 0, 0, &Fault{PASID: p, Addr: va, Access: access, Reason: FaultPermission}
		}
		if e.huge {
			hoff := uint64(va) & (HugePageSize - 1)
			return physmem.Addr(uint64(e.frame.Addr()) + hoff), 0, nil
		}
		return physmem.Addr(uint64(e.frame.Addr()) + off), 0, nil
	}
	u.st.TLBMisses++
	// Walk.
	tbl := c.root
	reads := 0
	for lvl := 0; lvl < levels-1; lvl++ {
		pte, err := u.mem.ReadU64(physmem.Addr(uint64(tbl) + idx(va, lvl)*8))
		reads++
		if err != nil {
			return 0, reads, err
		}
		if pte&pteValid == 0 {
			u.st.Faults++
			u.st.WalkReads += uint64(reads)
			return 0, reads, &Fault{PASID: p, Addr: va, Access: access, Reason: FaultNotPresent}
		}
		if lvl == levels-2 && pte&pteHuge != 0 {
			// Huge leaf: translation completes one level early.
			u.st.WalkReads += uint64(reads)
			var perm Perm
			if pte&pteRead != 0 {
				perm |= AccessRead
			}
			if pte&pteWrite != 0 {
				perm |= AccessWrite
			}
			frame := physmem.FrameOf(physmem.Addr(pte & pteAddrM))
			u.tlb.insertHuge(p, va.HugePage(), frame, perm)
			if perm&access != access {
				u.st.Faults++
				return 0, reads, &Fault{PASID: p, Addr: va, Access: access, Reason: FaultPermission}
			}
			hoff := uint64(va) & (HugePageSize - 1)
			return physmem.Addr(uint64(frame.Addr()) + hoff), reads, nil
		}
		tbl = physmem.Addr(pte & pteAddrM)
	}
	pte, err := u.mem.ReadU64(physmem.Addr(uint64(tbl) + idx(va, levels-1)*8))
	reads++
	u.st.WalkReads += uint64(reads)
	if err != nil {
		return 0, reads, err
	}
	if pte&pteValid == 0 {
		u.st.Faults++
		return 0, reads, &Fault{PASID: p, Addr: va, Access: access, Reason: FaultNotPresent}
	}
	var perm Perm
	if pte&pteRead != 0 {
		perm |= AccessRead
	}
	if pte&pteWrite != 0 {
		perm |= AccessWrite
	}
	frame := physmem.FrameOf(physmem.Addr(pte & pteAddrM))
	u.tlb.insert(p, page, frame, perm)
	if perm&access != access {
		u.st.Faults++
		return 0, reads, &Fault{PASID: p, Addr: va, Access: access, Reason: FaultPermission}
	}
	return physmem.Addr(uint64(frame.Addr()) + off), reads, nil
}

// FlushTLB discards all cached translations (e.g. after a device reset).
func (u *IOMMU) FlushTLB() { u.tlb.flushAll() }
