package smartssd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// The filesystem: a flat directory of extent files persisted through the
// FTL. Logical page 0 is the superblock, pages [1, 1+inodePages) hold the
// inode table, and the rest is data, tracked by an in-memory bitmap
// rebuilt at mount from the extents. All metadata mutations are persisted
// write-through (the inode page is rewritten), so a remount recovers the
// full directory — the E5 recovery experiment depends on this.

const (
	fsMagic      = 0x4e4f4653 // "NOFS"
	fsVersion    = 1
	inodeSize    = 256
	maxName      = 64
	maxExtents   = 12
	inodesPerPag = 4096 / inodeSize
)

// extent is a contiguous run of data pages.
type extent struct {
	start uint32 // logical page number
	count uint32
}

// inode is one file's metadata.
type inode struct {
	used    bool
	name    string
	size    uint64
	extents []extent
}

func (ino *inode) pages() int {
	n := 0
	for _, e := range ino.extents {
		n += int(e.count)
	}
	return n
}

// encodeInode serializes into b, which is inodeSize zero bytes.
func encodeInode(b []byte, ino *inode) {
	if !ino.used {
		return
	}
	b[0] = 1
	b[1] = byte(len(ino.name))
	copy(b[2:2+maxName], ino.name)
	binary.LittleEndian.PutUint64(b[66:], ino.size)
	binary.LittleEndian.PutUint16(b[74:], uint16(len(ino.extents)))
	off := 76
	for _, e := range ino.extents {
		binary.LittleEndian.PutUint32(b[off:], e.start)
		binary.LittleEndian.PutUint32(b[off+4:], e.count)
		off += 8
	}
}

func decodeInode(b []byte) inode {
	if b[0] == 0 {
		return inode{}
	}
	n := int(b[1])
	if n > maxName {
		n = maxName
	}
	ino := inode{
		used: true,
		name: string(b[2 : 2+n]),
		size: binary.LittleEndian.Uint64(b[66:]),
	}
	cnt := int(binary.LittleEndian.Uint16(b[74:]))
	if cnt > maxExtents {
		cnt = maxExtents
	}
	off := 76
	for i := 0; i < cnt; i++ {
		ino.extents = append(ino.extents, extent{
			start: binary.LittleEndian.Uint32(b[off:]),
			count: binary.LittleEndian.Uint32(b[off+4:]),
		})
		off += 8
	}
	return ino
}

// FS is the mounted filesystem.
type FS struct {
	ftl        *ftl
	inodePages int
	dataStart  int
	inodes     []inode
	bitmap     []bool // data-page allocation, indexed from dataStart
	pageSize   int
	// pageLocks serializes writers per data page: concurrent partial-page
	// writes are read-modify-write and would otherwise lose updates. A
	// locked page maps to the last chunk of its queue (holder first, linked
	// by next).
	pageLocks map[int]*pageOp
}

// FSConfig sizes the filesystem.
type FSConfig struct {
	// MaxFiles bounds the directory (rounded up to a full inode page).
	MaxFiles int
}

// DefaultFSConfig allows 64 files.
var DefaultFSConfig = FSConfig{MaxFiles: 64}

// newFS wraps a formatted-or-blank FTL; call Format or Mount before use.
func newFS(t *ftl, cfg FSConfig) *FS {
	if cfg.MaxFiles <= 0 {
		cfg.MaxFiles = DefaultFSConfig.MaxFiles
	}
	inodePages := (cfg.MaxFiles + inodesPerPag - 1) / inodesPerPag
	fs := &FS{
		ftl:        t,
		inodePages: inodePages,
		dataStart:  1 + inodePages,
		inodes:     make([]inode, inodePages*inodesPerPag),
		pageSize:   t.geo.PageSize,
	}
	fs.bitmap = make([]bool, t.Capacity()-fs.dataStart)
	fs.pageLocks = make(map[int]*pageOp)
	return fs
}

// lockPage gives the chunk exclusive write access to its logical page, at
// once when it is free, else after every chunk queued before it. The grant
// is the chunk's pageDone in stage pageLocked; it must unlockPage once.
func (fs *FS) lockPage(op *pageOp) {
	op.stage = pageLocked
	tail, locked := fs.pageLocks[op.lpn]
	fs.pageLocks[op.lpn] = op
	if locked {
		tail.next = op
		return
	}
	op.done.pageDone(op, nil)
}

// unlockPage hands the page to the next chunk in line, which runs now.
func (fs *FS) unlockPage(op *pageOp) {
	next := op.next
	if op.next = nil; next == nil {
		delete(fs.pageLocks, op.lpn)
		return
	}
	next.done.pageDone(next, nil)
}

// Format writes a fresh superblock and empty inode table.
func (fs *FS) Format(cb func(error)) { fs.walk(0, 1+fs.inodePages, false, cb) }

// Mount reads the superblock and inode table, rebuilding in-memory state.
func (fs *FS) Mount(cb func(error)) { fs.walk(0, 1+fs.inodePages, true, cb) }

// persistInodeOf rewrites the single inode page containing index idx.
func (fs *FS) persistInodeOf(idx int, cb func(error)) {
	lpn := 1 + idx/inodesPerPag
	fs.walk(lpn, lpn+1, false, cb)
}

// metaIO is a pass over the metadata pages as the page op of a walk: the
// logical pages [next, end) in order (0 is the superblock, 1+i inode page
// i), written from memory, or read into it by a mount; then cb.
type metaIO struct {
	fs        *FS
	op        pageOp
	next, end int
	mount     bool
	cb        func(error)
}

func (fs *FS) walk(from, to int, mount bool, cb func(error)) {
	(&metaIO{fs: fs, next: from, end: to, mount: mount, cb: cb}).step()
}

func (m *metaIO) step() {
	fs := m.fs
	if m.next == m.end {
		if m.mount { // rebuild the bitmap from the extents
			clear(fs.bitmap)
			for i := range fs.inodes {
				for _, e := range fs.inodes[i].extents {
					for p := e.start; p < e.start+e.count; p++ {
						fs.bitmap[int(p)-fs.dataStart] = true
					}
				}
			}
		}
		m.cb(nil)
		return
	}
	m.op = pageOp{done: m, lpn: m.next}
	m.next++
	switch {
	case m.mount:
		fs.ftl.readOp(&m.op)
		return
	case m.op.lpn == 0:
		m.op.page = make([]byte, 16)
		binary.LittleEndian.PutUint32(m.op.page[0:], fsMagic)
		binary.LittleEndian.PutUint32(m.op.page[4:], fsVersion)
		binary.LittleEndian.PutUint32(m.op.page[8:], uint32(fs.inodePages))
		binary.LittleEndian.PutUint32(m.op.page[12:], uint32(fs.ftl.Capacity()))
	default:
		m.op.page = fs.inodePage(m.op.lpn - 1)
	}
	fs.ftl.writeOp(&m.op)
}

// pageDone checks the superblock or decodes an inode page a mount read,
// padded to a full page, then goes on to the next page.
func (m *metaIO) pageDone(op *pageOp, err error) {
	fs, b := m.fs, op.page
	if m.mount && err == nil && len(b) < fs.pageSize {
		b = slices.Concat(b, make([]byte, fs.pageSize-len(b)))
	}
	switch {
	case err != nil || !m.mount:
	case op.lpn > 0:
		for i := 0; i < inodesPerPag; i++ {
			fs.inodes[(op.lpn-1)*inodesPerPag+i] = decodeInode(b[i*inodeSize : (i+1)*inodeSize])
		}
	case binary.LittleEndian.Uint32(b[0:]) != fsMagic:
		err = fmt.Errorf("smartssd: bad superblock magic")
	case int(binary.LittleEndian.Uint32(b[8:])) != fs.inodePages:
		err = fmt.Errorf("smartssd: inode table size mismatch (disk %d, config %d)", binary.LittleEndian.Uint32(b[8:]), fs.inodePages)
	}
	if err != nil {
		m.cb(err)
		return
	}
	m.step()
}

// inodePage encodes one page of the inode table in a buffer for the flash,
// through its last used inode only (the rest reads as zeros, which decode
// as unused); with none used it is empty, never nil, which is erased.
func (fs *FS) inodePage(page int) []byte {
	inodes := fs.inodes[page*inodesPerPag : (page+1)*inodesPerPag]
	n := len(inodes)
	for n > 0 && !inodes[n-1].used {
		n--
	}
	buf := make([]byte, n*inodeSize)
	for i := range n {
		encodeInode(buf[i*inodeSize:(i+1)*inodeSize], &inodes[i])
	}
	return buf
}

// File is an open handle (index into the inode table).
type File struct {
	fs  *FS
	idx int
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*File, bool) {
	if i := fs.index(name); i >= 0 {
		return &File{fs: fs, idx: i}, true
	}
	return nil, false
}

// index is the inode slot of a file by name, or -1: a lookup that only
// asks whether the file exists allocates no handle.
func (fs *FS) index(name string) int {
	for i := range fs.inodes {
		if fs.inodes[i].used && fs.inodes[i].name == name {
			return i
		}
	}
	return -1
}

// Create makes an empty file and persists the directory entry.
func (fs *FS) Create(name string, cb func(*File, error)) {
	if name == "" || len(name) > maxName {
		cb(nil, fmt.Errorf("smartssd: bad file name %q", name))
		return
	}
	if fs.index(name) >= 0 {
		cb(nil, fmt.Errorf("smartssd: file %q exists", name))
		return
	}
	idx := -1
	for i := range fs.inodes {
		if !fs.inodes[i].used {
			idx = i
			break
		}
	}
	if idx < 0 {
		cb(nil, fmt.Errorf("smartssd: directory full"))
		return
	}
	fs.inodes[idx] = inode{used: true, name: name}
	fs.persistInodeOf(idx, func(err error) {
		if err != nil {
			fs.inodes[idx] = inode{}
			cb(nil, err)
			return
		}
		cb(&File{fs: fs, idx: idx}, nil)
	})
}

// Name returns the file's name.
func (f *File) Name() string { return f.fs.inodes[f.idx].name }

// Size returns the file's logical size in bytes.
func (f *File) Size() uint64 { return f.fs.inodes[f.idx].size }

// lpnOf maps a file-relative page index to a logical page number.
func (f *File) lpnOf(pageIdx int) (int, bool) {
	for _, e := range f.fs.inodes[f.idx].extents {
		if pageIdx < int(e.count) {
			return int(e.start) + pageIdx, true
		}
		pageIdx -= int(e.count)
	}
	return 0, false
}

// allocRun marks the first free run of up to want pages allocated (first
// fit). Returns a zero-count extent when nothing is free.
func (fs *FS) allocRun(want int) extent {
	start := slices.Index(fs.bitmap, false)
	if start < 0 {
		return extent{}
	}
	n := 0
	for ; n < want && start+n < len(fs.bitmap) && !fs.bitmap[start+n]; n++ {
		fs.bitmap[start+n] = true
	}
	return extent{start: uint32(fs.dataStart + start), count: uint32(n)}
}

// grow extends the file to hold newPages pages. A refused grow gives back
// what it took, so one file's oversized write costs no other file its space.
func (f *File) grow(newPages int) error {
	ino := &f.fs.inodes[f.idx]
	had := ino.pages()
	for need := newPages - had; need > 0; {
		var e extent
		err := fmt.Errorf("smartssd: file %q too fragmented", ino.name)
		if len(ino.extents) < maxExtents {
			e = f.fs.allocRun(need)
			err = fmt.Errorf("smartssd: volume full growing %q", ino.name)
		}
		if e.count == 0 {
			f.shrink(had)
			return err
		}
		// Merge with the previous extent when contiguous.
		if n := len(ino.extents); n > 0 && ino.extents[n-1].start+ino.extents[n-1].count == e.start {
			ino.extents[n-1].count += e.count
		} else {
			ino.extents = append(ino.extents, e)
		}
		need -= int(e.count)
	}
	return nil
}

// shrink cuts the file back to its first keep pages: the rest of the extent
// keep ends in and every extent after it are trimmed and freed.
func (f *File) shrink(keep int) {
	fs, ino := f.fs, &f.fs.inodes[f.idx]
	kept := 0
	for i := range ino.extents {
		e := &ino.extents[i]
		n := min(keep, int(e.count))
		for p := int(e.start) + n; p < int(e.start+e.count); p++ {
			fs.ftl.Trim(p)
			fs.bitmap[p-fs.dataStart] = false
		}
		e.count, keep = uint32(n), keep-n
		if n > 0 {
			kept = i + 1
		}
	}
	ino.extents = ino.extents[:kept]
}

// errBadRequest refuses what no file on this volume could hold
// (StatusBadRequest on the wire).
var errBadRequest = errors.New("smartssd: bad request")

// pageStage is where a chunk of a file I/O is: what its next pageDone means.
type pageStage uint8

const (
	pageFilling pageStage = iota // read: waiting for the page to copy from
	pageLocked                   // write: queued for, then granted, the page lock
	pageMerging                  // partial write: waiting for the old page
	pageWriting                  // write: the new page is being programmed
	pageInode                    // the inode page is being programmed
)

// fileIO is one ReadAt or WriteAt as a record its issuer owns: a chunk per
// page touched (inline for the two that up to a page of data can span; a
// longer I/O spills), how many are in flight, the first error, and the
// inode page a write that grew the file programs last. It is the completion of all of them, is idle when
// done.ioDone is entered and may be reissued there.
type fileIO struct {
	f         *File
	done      ioCompletion
	grew      bool
	remaining int
	err       error
	chunks    []pageOp
	inline    [2]pageOp
	inode     pageOp
}

type ioCompletion interface {
	ioDone(io *fileIO, err error)
}

// ioFunc is a completion that is a func, for ReadAt and WriteAt.
type ioFunc func(error)

func (fn ioFunc) ioDone(_ *fileIO, err error) { fn(err) }

// split cuts [off, off+len(buf)) into per-page chunks over views of buf.
func (io *fileIO) split(off uint64, buf []byte) error {
	ps := uint64(io.f.fs.pageSize)
	io.chunks, io.err, io.grew = io.inline[:0], nil, false
	for cur, end := off, off+uint64(len(buf)); cur < end; {
		pageOff := int(cur % ps)
		n := min(int(ps)-pageOff, int(end-cur))
		lpn, ok := io.f.lpnOf(int(cur / ps))
		if !ok {
			return fmt.Errorf("smartssd: extent walk failed at page %d", cur/ps)
		}
		io.chunks = append(io.chunks, pageOp{done: io, lpn: lpn, pageOff: pageOff, data: buf[cur-off:][:n]})
		cur += uint64(n)
	}
	io.remaining = len(io.chunks)
	return nil
}

// writeAt is WriteAt for a record. data is handed over: a chunk may wait
// for its page lock, and a full page of it is the slice the flash keeps.
func (io *fileIO) writeAt(f *File, off uint64, data []byte, done ioCompletion) {
	io.f, io.done = f, done
	fs := f.fs
	ps := uint64(fs.pageSize)
	end := off + uint64(len(data))
	var err error
	switch {
	case len(data) == 0: // nothing to write: done at once
	case end < off || end > uint64(len(fs.bitmap))*ps: // refused before the inode is touched
		err = fmt.Errorf("%w: write of %d bytes at %d", errBadRequest, len(data), off)
	default:
		if err = f.grow(int((end + ps - 1) / ps)); err == nil {
			err = io.split(off, data)
		}
	}
	if err != nil || len(data) == 0 {
		io.complete(err)
		return
	}
	if ino := &fs.inodes[f.idx]; end > ino.size {
		ino.size, io.grew = end, true
	}
	for i, n := 0, len(io.chunks); i < n; i++ {
		fs.lockPage(&io.chunks[i])
	}
}

// readAt is ReadAt for a record: it fills dst, already clipped to the file.
func (io *fileIO) readAt(f *File, off uint64, dst []byte, done ioCompletion) {
	io.f, io.done = f, done
	if err := io.split(off, dst); err != nil || len(dst) == 0 {
		io.complete(err)
		return
	}
	for i, n := 0, len(io.chunks); i < n; i++ {
		io.chunks[i].stage = pageFilling
		f.fs.ftl.readOp(&io.chunks[i])
	}
}

// pageDone is the next step of one chunk, or of the inode page.
func (io *fileIO) pageDone(op *pageOp, err error) {
	fs := io.f.fs
	switch op.stage {
	case pageFilling:
		if err == nil { // the page may end before the chunk, even before it starts
			n := copy(op.data, op.page[min(op.pageOff, len(op.page)):])
			clear(op.data[n:])
		}
		io.finishOne(err)
	case pageLocked:
		if op.pageOff == 0 && len(op.data) == fs.pageSize {
			op.page, op.stage = op.data, pageWriting
			fs.ftl.writeOp(op)
			return
		}
		op.stage = pageMerging
		fs.ftl.readOp(op)
	case pageMerging:
		if err == nil {
			op.page, op.stage = fs.merge(op.page, op.pageOff, op.data), pageWriting
			fs.ftl.writeOp(op)
			return
		}
		fallthrough
	case pageWriting:
		fs.unlockPage(op)
		io.finishOne(err)
	case pageInode:
		io.complete(err)
	}
}

// merge is the page a partial write programs: old, the page the FTL maps
// now, with data at pageOff. Only the holder of the page's lock calls it,
// which is why it may write past old's length: a write at or past old's end
// that fits in old's array clears the gap and extends old in place. No other
// view of the array is longer than old, and a failed program's bytes past it
// are rewritten by the next extension (DESIGN.md "The page path"). Any other
// write copies into an array of its own, with a full page's capacity.
func (fs *FS) merge(old []byte, pageOff int, data []byte) []byte {
	end := pageOff + len(data)
	var page []byte
	if pageOff >= len(old) && end <= cap(old) {
		page = old[:end]
		clear(page[len(old):pageOff])
	} else {
		page = make([]byte, max(len(old), end), fs.pageSize)
		copy(page, old)
	}
	copy(page[pageOff:], data)
	return page
}

// finishOne retires one chunk. After the last, a write that changed the
// size (extents changed => size changed: append-only growth) persists its
// inode page before it completes.
func (io *fileIO) finishOne(err error) {
	if err != nil && io.err == nil {
		io.err = err
	}
	if io.remaining--; io.remaining > 0 {
		return
	}
	if io.err != nil || !io.grew {
		io.complete(io.err)
		return
	}
	page := io.f.idx / inodesPerPag
	io.inode = pageOp{done: io, stage: pageInode, lpn: 1 + page, page: io.f.fs.inodePage(page)}
	io.f.fs.ftl.writeOp(&io.inode)
}

// complete makes the record idle, letting go of every page and buffer (a
// record as long-lived as its descriptor pair must not pin them), and runs
// its completion.
func (io *fileIO) complete(err error) {
	done := io.done
	*io = fileIO{}
	done.ioDone(io, err)
}

// WriteAt writes data at the byte offset, growing the file as needed.
// Partial pages are read-modified-written. cb runs after both the data
// and the metadata update are durable. data is borrowed for the call only
// and cloned here. The file service's request buffer is lent until
// Complete, so the service copies a write that covers an aligned full page
// (fileConn.keepable) and hands any other to writeAt as it is. The
// callback form serves the loader, the
// machine's file preload and the benchmark's FS probe (bench/probes.go);
// the data path issues fileIO records.
func (f *File) WriteAt(off uint64, data []byte, cb func(error)) {
	new(fileIO).writeAt(f, off, bytes.Clone(data), ioFunc(cb))
}

// clip bounds a read of n bytes at off by the end of the file.
func (f *File) clip(off uint64, n int) int {
	if off >= f.Size() || n <= 0 {
		return 0
	}
	return int(min(uint64(n), f.Size()-off))
}

// ReadAt reads n bytes at the offset. Reads past EOF are clipped; a read
// entirely beyond EOF returns an empty slice. It is kept for the
// benchmark's FS probe (bench/probes.go), its last caller outside tests;
// the file service issues fileIO records.
func (f *File) ReadAt(off uint64, n int, cb func([]byte, error)) {
	var buf []byte
	if n = f.clip(off, n); n > 0 {
		buf = make([]byte, n)
	}
	new(fileIO).readAt(f, off, buf, ioFunc(func(err error) {
		if err != nil {
			buf = nil
		}
		cb(buf, err)
	}))
}

// Truncate sets the file size to zero, releasing its pages.
func (f *File) Truncate(cb func(error)) {
	f.shrink(0)
	f.fs.inodes[f.idx].size = 0
	f.fs.persistInodeOf(f.idx, cb)
}
