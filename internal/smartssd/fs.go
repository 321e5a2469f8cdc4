package smartssd

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	// writes are read-modify-write and would otherwise lose updates. The
	// map holds queued waiters for locked pages.
	pageLocks map[int][]func()
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
	fs.pageLocks = make(map[int][]func())
	return fs
}

// lockPage runs fn with exclusive write access to the logical page; fn
// must call release exactly once when its I/O completes.
func (fs *FS) lockPage(lpn int, fn func(release func())) {
	release := func() {
		waiters := fs.pageLocks[lpn]
		if len(waiters) == 0 {
			delete(fs.pageLocks, lpn)
			return
		}
		next := waiters[0]
		fs.pageLocks[lpn] = waiters[1:]
		next()
	}
	if _, locked := fs.pageLocks[lpn]; locked {
		fs.pageLocks[lpn] = append(fs.pageLocks[lpn], func() { fn(release) })
		return
	}
	fs.pageLocks[lpn] = nil // locked, no waiters yet
	fn(release)
}

// Format writes a fresh superblock and empty inode table.
func (fs *FS) Format(cb func(error)) {
	sb := make([]byte, fs.pageSize)
	binary.LittleEndian.PutUint32(sb[0:], fsMagic)
	binary.LittleEndian.PutUint32(sb[4:], fsVersion)
	binary.LittleEndian.PutUint32(sb[8:], uint32(fs.inodePages))
	binary.LittleEndian.PutUint32(sb[12:], uint32(fs.ftl.Capacity()))
	fs.ftl.Write(0, sb, func(err error) {
		if err != nil {
			cb(err)
			return
		}
		fs.persistInodeRange(0, fs.inodePages, cb)
	})
}

// persistInodeRange rewrites inode pages [from, to).
func (fs *FS) persistInodeRange(from, to int, cb func(error)) {
	if from >= to {
		cb(nil)
		return
	}
	buf := make([]byte, fs.pageSize)
	for i := 0; i < inodesPerPag; i++ {
		encodeInode(buf[i*inodeSize:(i+1)*inodeSize], &fs.inodes[from*inodesPerPag+i])
	}
	fs.ftl.Write(1+from, buf, func(err error) {
		if err != nil {
			cb(err)
			return
		}
		fs.persistInodeRange(from+1, to, cb)
	})
}

// persistInodeOf rewrites the single inode page containing index idx.
func (fs *FS) persistInodeOf(idx int, cb func(error)) {
	page := idx / inodesPerPag
	fs.persistInodeRange(page, page+1, cb)
}

// Mount reads the superblock and inode table, rebuilding in-memory state.
func (fs *FS) Mount(cb func(error)) {
	fs.ftl.Read(0, func(sb []byte, err error) {
		if err != nil {
			cb(err)
			return
		}
		if binary.LittleEndian.Uint32(sb[0:]) != fsMagic {
			cb(fmt.Errorf("smartssd: bad superblock magic"))
			return
		}
		if got := int(binary.LittleEndian.Uint32(sb[8:])); got != fs.inodePages {
			cb(fmt.Errorf("smartssd: inode table size mismatch (disk %d, config %d)", got, fs.inodePages))
			return
		}
		fs.mountInodePage(0, cb)
	})
}

func (fs *FS) mountInodePage(page int, cb func(error)) {
	if page >= fs.inodePages {
		// Rebuild the bitmap from extents.
		clear(fs.bitmap)
		for i := range fs.inodes {
			for _, e := range fs.inodes[i].extents {
				for p := e.start; p < e.start+e.count; p++ {
					fs.bitmap[int(p)-fs.dataStart] = true
				}
			}
		}
		cb(nil)
		return
	}
	fs.ftl.Read(1+page, func(b []byte, err error) {
		if err != nil {
			cb(err)
			return
		}
		for i := 0; i < inodesPerPag; i++ {
			fs.inodes[page*inodesPerPag+i] = decodeInode(b[i*inodeSize : (i+1)*inodeSize])
		}
		fs.mountInodePage(page+1, cb)
	})
}

// File is an open handle (index into the inode table).
type File struct {
	fs  *FS
	idx int
}

// Lookup finds a file by name.
func (fs *FS) Lookup(name string) (*File, bool) {
	for i := range fs.inodes {
		if fs.inodes[i].used && fs.inodes[i].name == name {
			return &File{fs: fs, idx: i}, true
		}
	}
	return nil, false
}

// List returns all file names (directory order).
func (fs *FS) List() []string {
	var out []string
	for i := range fs.inodes {
		if fs.inodes[i].used {
			out = append(out, fs.inodes[i].name)
		}
	}
	return out
}

// Create makes an empty file and persists the directory entry.
func (fs *FS) Create(name string, cb func(*File, error)) {
	if name == "" || len(name) > maxName {
		cb(nil, fmt.Errorf("smartssd: bad file name %q", name))
		return
	}
	if _, exists := fs.Lookup(name); exists {
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

// Delete removes a file, trimming its pages.
func (fs *FS) Delete(name string, cb func(error)) {
	f, ok := fs.Lookup(name)
	if !ok {
		cb(fmt.Errorf("smartssd: no such file %q", name))
		return
	}
	ino := &fs.inodes[f.idx]
	for _, e := range ino.extents {
		for p := e.start; p < e.start+e.count; p++ {
			fs.ftl.Trim(int(p))
			fs.bitmap[int(p)-fs.dataStart] = false
		}
	}
	*ino = inode{}
	fs.persistInodeOf(f.idx, cb)
}

// Rename gives the file a new name, deleting any existing file of that
// name first (rename-over, the usual atomic-replace idiom). Both inode
// pages are persisted.
func (f *File) Rename(newName string, cb func(error)) {
	fs := f.fs
	if newName == "" || len(newName) > maxName {
		cb(fmt.Errorf("smartssd: bad file name %q", newName))
		return
	}
	if fs.inodes[f.idx].name == newName {
		cb(nil)
		return
	}
	finish := func() {
		fs.inodes[f.idx].name = newName
		fs.persistInodeOf(f.idx, cb)
	}
	if old, exists := fs.Lookup(newName); exists {
		fs.Delete(newName, func(err error) {
			if err != nil {
				cb(err)
				return
			}
			_ = old
			finish()
		})
		return
	}
	finish()
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

// allocRun finds the first free run of up to want pages (first fit) and
// marks it allocated. Returns a zero-count extent when nothing is free.
func (fs *FS) allocRun(want int) extent {
	run := 0
	for i := 0; i <= len(fs.bitmap); i++ {
		if i < len(fs.bitmap) && !fs.bitmap[i] {
			run++
			if run == want {
				start := i - run + 1
				for j := start; j <= i; j++ {
					fs.bitmap[j] = true
				}
				return extent{start: uint32(fs.dataStart + start), count: uint32(run)}
			}
			continue
		}
		if run > 0 {
			start := i - run
			for j := start; j < i; j++ {
				fs.bitmap[j] = true
			}
			return extent{start: uint32(fs.dataStart + start), count: uint32(run)}
		}
		run = 0
	}
	return extent{}
}

// grow extends the file to hold newPages pages.
func (f *File) grow(newPages int) error {
	ino := &f.fs.inodes[f.idx]
	need := newPages - ino.pages()
	for need > 0 {
		if len(ino.extents) == maxExtents {
			return fmt.Errorf("smartssd: file %q too fragmented", ino.name)
		}
		e := f.fs.allocRun(need)
		if e.count == 0 {
			return fmt.Errorf("smartssd: volume full growing %q", ino.name)
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

// WriteAt writes data at the byte offset, growing the file as needed.
// Partial pages are read-modified-written. cb runs after both the data
// and the metadata update are durable. data is borrowed for the call only:
// the caller may reuse it as soon as WriteAt returns.
func (f *File) WriteAt(off uint64, data []byte, cb func(error)) {
	if len(data) == 0 {
		cb(nil)
		return
	}
	fs := f.fs
	ps := uint64(fs.pageSize)
	end := off + uint64(len(data))
	if err := f.grow(int((end + ps - 1) / ps)); err != nil {
		cb(err)
		return
	}
	ino := &fs.inodes[f.idx]
	grewSize := false
	if end > ino.size {
		ino.size = end
		grewSize = true
	}

	type chunk struct {
		lpn     int
		pageOff int
		data    []byte
	}
	var chunks []chunk
	for cur := off; cur < end; {
		pageIdx := int(cur / ps)
		pageOff := int(cur % ps)
		n := int(ps) - pageOff
		if rem := int(end - cur); n > rem {
			n = rem
		}
		lpn, ok := f.lpnOf(pageIdx)
		if !ok {
			cb(fmt.Errorf("smartssd: extent walk failed at page %d", pageIdx))
			return
		}
		// A chunk may wait for its page lock and for flash, so it takes its
		// bytes now; a full page's copy is the buffer the flash will keep.
		own := bytes.Clone(data[cur-off : cur-off+uint64(n)])
		chunks = append(chunks, chunk{lpn: lpn, pageOff: pageOff, data: own})
		cur += uint64(n)
	}

	remaining := len(chunks)
	var firstErr error
	finishOne := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining > 0 {
			return
		}
		if firstErr != nil {
			cb(firstErr)
			return
		}
		// Persist metadata if the size changed; extents changed => size
		// changed too (append-only growth).
		if grewSize {
			fs.persistInodeOf(f.idx, cb)
		} else {
			cb(nil)
		}
	}
	for _, c := range chunks {
		c := c
		// Page-exclusive: concurrent writers to the same page would lose
		// updates through the read-modify-write window.
		fs.lockPage(c.lpn, func(release func()) {
			if c.pageOff == 0 && len(c.data) == fs.pageSize {
				fs.ftl.Write(c.lpn, c.data, func(err error) {
					release()
					finishOne(err)
				})
				return
			}
			// Read-modify-write for partial pages: the old page is the
			// flash's, so the new one is built in a buffer of its own.
			fs.ftl.Read(c.lpn, func(old []byte, err error) {
				if err != nil {
					release()
					finishOne(err)
					return
				}
				page := bytes.Clone(old)
				copy(page[c.pageOff:], c.data)
				fs.ftl.Write(c.lpn, page, func(err error) {
					release()
					finishOne(err)
				})
			})
		})
	}
}

// Append writes at the current end of file.
func (f *File) Append(data []byte, cb func(error)) {
	f.WriteAt(f.Size(), data, cb)
}

// ReadAt reads n bytes at the offset. Reads past EOF are clipped; a read
// entirely beyond EOF returns an empty slice.
func (f *File) ReadAt(off uint64, n int, cb func([]byte, error)) {
	fs := f.fs
	size := f.Size()
	if off >= size || n <= 0 {
		cb(nil, nil)
		return
	}
	if off+uint64(n) > size {
		n = int(size - off)
	}
	ps := uint64(fs.pageSize)
	out := make([]byte, n)
	type chunk struct {
		lpn     int
		pageOff int
		dst     []byte
	}
	var chunks []chunk
	end := off + uint64(n)
	for cur := off; cur < end; {
		pageIdx := int(cur / ps)
		pageOff := int(cur % ps)
		cn := int(ps) - pageOff
		if rem := int(end - cur); cn > rem {
			cn = rem
		}
		lpn, ok := f.lpnOf(pageIdx)
		if !ok {
			cb(nil, fmt.Errorf("smartssd: extent walk failed at page %d", pageIdx))
			return
		}
		chunks = append(chunks, chunk{lpn: lpn, pageOff: pageOff, dst: out[cur-off : cur-off+uint64(cn)]})
		cur += uint64(cn)
	}
	remaining := len(chunks)
	var firstErr error
	for _, c := range chunks {
		c := c
		fs.ftl.Read(c.lpn, func(page []byte, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if err == nil {
				copy(c.dst, page[c.pageOff:])
			}
			remaining--
			if remaining == 0 {
				if firstErr != nil {
					cb(nil, firstErr)
					return
				}
				cb(out, nil)
			}
		})
	}
}

// Truncate sets the file size to zero, releasing its pages.
func (f *File) Truncate(cb func(error)) {
	fs := f.fs
	ino := &fs.inodes[f.idx]
	for _, e := range ino.extents {
		for p := e.start; p < e.start+e.count; p++ {
			fs.ftl.Trim(int(p))
			fs.bitmap[int(p)-fs.dataStart] = false
		}
	}
	ino.extents = nil
	ino.size = 0
	fs.persistInodeOf(f.idx, cb)
}
