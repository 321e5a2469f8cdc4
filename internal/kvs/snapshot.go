package kvs

import (
	"encoding/binary"
	"fmt"
	"slices"

	"nocpu/internal/smartnic"
)

// Index snapshots: §4 recovery rebuilds the index by scanning the whole
// log (E5 shows that scan growing linearly). A snapshot persists the
// index plus the log watermark it covers, so recovery becomes
// read-snapshot + scan-suffix. Snapshots live in their own file on the
// smart SSD ("<data file>.snap", created on demand via file+create).
//
// Torn-snapshot safety: the header's byte count and trailing magic must
// both validate; anything off falls back to a full log scan, which is
// always correct (the snapshot is a pure accelerator).

const (
	snapMagic  = 0x534e4150 // "SNAP"
	snapFooter = 0x50414e53 // reversed, written last
)

// encodeSnapshot serializes the index at the given watermark.
func encodeSnapshot(index map[string]loc, watermark uint64) []byte {
	// Deterministic order is not required for correctness (the index is a
	// set), but keeps runs reproducible byte-for-byte.
	keys := make([]string, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	size := 20
	for _, k := range keys {
		size += 2 + len(k) + 12
	}
	size += 4 // footer
	b := make([]byte, 0, size)
	var tmp [12]byte
	binary.LittleEndian.PutUint32(tmp[:4], snapMagic)
	b = append(b, tmp[:4]...)
	binary.LittleEndian.PutUint64(tmp[:8], watermark)
	b = append(b, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(keys)))
	b = append(b, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(size))
	b = append(b, tmp[:4]...)
	for _, k := range keys {
		l := index[k]
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(k)))
		b = append(b, tmp[:2]...)
		b = append(b, k...)
		binary.LittleEndian.PutUint64(tmp[:8], l.off)
		b = append(b, tmp[:8]...)
		binary.LittleEndian.PutUint32(tmp[:4], l.n)
		b = append(b, tmp[:4]...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], snapFooter)
	b = append(b, tmp[:4]...)
	return b
}

// decodeSnapshot validates and parses; any inconsistency returns an
// error (caller falls back to a full scan).
func decodeSnapshot(b []byte) (map[string]loc, uint64, error) {
	if len(b) < 24 {
		return nil, 0, fmt.Errorf("kvs: snapshot too short")
	}
	if binary.LittleEndian.Uint32(b[0:]) != snapMagic {
		return nil, 0, fmt.Errorf("kvs: bad snapshot magic")
	}
	watermark := binary.LittleEndian.Uint64(b[4:])
	count := int(binary.LittleEndian.Uint32(b[12:]))
	total := int(binary.LittleEndian.Uint32(b[16:]))
	if total != len(b) {
		return nil, 0, fmt.Errorf("kvs: snapshot length %d != declared %d (torn write)", len(b), total)
	}
	if binary.LittleEndian.Uint32(b[len(b)-4:]) != snapFooter {
		return nil, 0, fmt.Errorf("kvs: snapshot footer missing (torn write)")
	}
	idx := make(map[string]loc, count)
	off := 20
	for i := 0; i < count; i++ {
		if off+2 > len(b)-4 {
			return nil, 0, fmt.Errorf("kvs: snapshot truncated at entry %d", i)
		}
		kl := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if off+kl+12 > len(b)-4 {
			return nil, 0, fmt.Errorf("kvs: snapshot truncated in entry %d", i)
		}
		key := string(b[off : off+kl])
		off += kl
		l := loc{
			off: binary.LittleEndian.Uint64(b[off:]),
			n:   binary.LittleEndian.Uint32(b[off+8:]),
		}
		off += 12
		idx[key] = l
	}
	if off != len(b)-4 {
		return nil, 0, fmt.Errorf("kvs: %d trailing snapshot bytes", len(b)-4-off)
	}
	return idx, watermark, nil
}

// Snapshot persists the current index to the snapshot file. The store
// must be ready and configured with a SnapshotFile. cb reports
// completion; ops may continue during the write (the watermark pins what
// the snapshot covers).
func (s *Store) Snapshot(cb func(error)) {
	if !s.ready || s.snap == nil {
		cb(fmt.Errorf("kvs: snapshot unavailable"))
		return
	}
	w := &snapWrite{s: s, f: s.snap, blob: encodeSnapshot(s.index, s.fileEnd), done: cb}
	w.f.TruncateOp(&w.op, w)
}

// snapWrite is one snapshot written out: the file's Truncate, then its
// chunks in order, each issued by the previous one's completion.
type snapWrite struct {
	s    *Store
	f    smartnic.FileAPI
	op   smartnic.FileOp
	blob []byte
	off  int // of the next chunk
	done func(error)
}

func (w *snapWrite) FileDone(op *smartnic.FileOp, err error) {
	if err != nil {
		w.done(err)
		return
	}
	if w.off >= len(w.blob) {
		w.s.stats.Snapshots++
		w.done(nil)
		return
	}
	n := min(w.f.MaxIO(), len(w.blob)-w.off)
	copy(op.Payload(n), w.blob[w.off:])
	w.off += n
	w.f.WriteOp(op, uint64(w.off-n), w)
}
