package kvs

import (
	"encoding/binary"
	"fmt"
	"slices"
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
	blob := encodeSnapshot(s.index, s.fileEnd)
	s.snap.Truncate(func(err error) {
		if err != nil {
			cb(err)
			return
		}
		s.writeSnapChunks(blob, 0, cb)
	})
}

func (s *Store) writeSnapChunks(blob []byte, off int, cb func(error)) {
	if off >= len(blob) {
		s.stats.Snapshots++
		cb(nil)
		return
	}
	n := s.snap.MaxIO()
	if off+n > len(blob) {
		n = len(blob) - off
	}
	s.snap.Write(uint64(off), blob[off:off+n], func(err error) {
		if err != nil {
			cb(err)
			return
		}
		s.writeSnapChunks(blob, off+n, cb)
	})
}

// loadSnapshot tries to seed the index from the snapshot file; returns
// the scan start (watermark) or 0 for a full scan.
func (s *Store) loadSnapshot(cb func(start uint64)) {
	if s.snap == nil {
		cb(0)
		return
	}
	s.snap.Stat(func(size uint64, err error) {
		if err != nil || size == 0 {
			cb(0)
			return
		}
		s.readSnapChunks(make([]byte, 0, size), 0, size, func(blob []byte, err error) {
			if err != nil {
				cb(0)
				return
			}
			idx, watermark, derr := decodeSnapshot(blob)
			if derr != nil {
				// Torn or stale-format snapshot: full scan.
				cb(0)
				return
			}
			s.index = idx
			s.stats.SnapshotRestores++
			cb(watermark)
		})
	})
}

func (s *Store) readSnapChunks(acc []byte, off, size uint64, cb func([]byte, error)) {
	if off >= size {
		cb(acc, nil)
		return
	}
	n := s.snap.MaxIO()
	if rem := size - off; uint64(n) > rem {
		n = int(rem)
	}
	s.snap.Read(off, n, func(b []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		s.readSnapChunks(append(acc, b...), off+uint64(len(b)), size, cb)
	})
}
