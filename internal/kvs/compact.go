package kvs

import (
	"fmt"
	"slices"

	"nocpu/internal/smartnic"
)

// Log compaction: the data file is an append-only log, so overwrites and
// deletes leave dead records behind. Compact streams the live index into
// a fresh file on the SSD and atomically renames it over the log
// (rename-over, server side), then switches the store's connection to
// the new file.
//
// Serving during compaction: gets keep flowing from the old file (its
// records are immutable); puts and deletes are refused with
// StatusUnavailable for the (short) duration — the store is the only
// writer, so this is the whole consistency story.

// Compact rewrites the log to contain only live records. cb reports the
// outcome; on success the store serves from the compacted file. The new
// file is created through the memory controller, so a centralized store
// is refused at once.
func (s *Store) Compact(cb func(error)) {
	if !s.ready {
		cb(fmt.Errorf("kvs: compact on unready store"))
		return
	}
	if s.cfg.Mode != ModeDecentralized {
		cb(fmt.Errorf("kvs: compact is decentralized-only"))
		return
	}
	if s.compacting {
		cb(fmt.Errorf("kvs: compaction already running"))
		return
	}
	s.compacting = true
	finish := func(err error) {
		s.compacting = false
		cb(err)
	}
	tmpName := s.cfg.FileName + ".compact"
	s.rt.OpenFileCreate(s.cfg.Control, tmpName, s.cfg.Token, s.cfg.QueueEntries, func(nfc *smartnic.FileClient, err error) {
		if err != nil {
			finish(fmt.Errorf("kvs: compact open: %w", err))
			return
		}
		nfc.Truncate(func(err error) {
			if err != nil {
				finish(err)
				return
			}
			// Deterministic streaming order.
			keys := make([]string, 0, len(s.index))
			for k := range s.index {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			newIndex := make(map[string]loc, len(keys))
			s.compactStream(nfc, keys, 0, 0, newIndex, finish)
		})
	})
}

// compactStream copies live records one key at a time.
func (s *Store) compactStream(nfc *smartnic.FileClient, keys []string, i int, newOff uint64, newIndex map[string]loc, finish func(error)) {
	if i >= len(keys) {
		s.compactSwitch(nfc, newOff, newIndex, finish)
		return
	}
	key := keys[i]
	l, ok := s.index[key]
	if !ok { // deleted mid-compaction (cannot happen while writes are blocked)
		s.compactStream(nfc, keys, i+1, newOff, newIndex, finish)
		return
	}
	copyRec := func(val []byte) {
		rec := encodeRecord(key, val, false)
		off := newOff
		nfc.Write(off, rec, func(err error) {
			if err != nil {
				finish(fmt.Errorf("kvs: compact write: %w", err))
				return
			}
			newIndex[key] = loc{off: off + recordHeader + uint64(len(key)), n: uint32(len(val))}
			s.compactStream(nfc, keys, i+1, off+uint64(len(rec)), newIndex, finish)
		})
	}
	if l.n == 0 {
		copyRec(nil)
		return
	}
	s.fc.Read(l.off, int(l.n), func(b []byte, err error) {
		if err != nil {
			finish(fmt.Errorf("kvs: compact read: %w", err))
			return
		}
		copyRec(b)
	})
}

// compactSwitch renames the new file over the log and swaps connections.
func (s *Store) compactSwitch(nfc *smartnic.FileClient, newEnd uint64, newIndex map[string]loc, finish func(error)) {
	nfc.Rename(s.cfg.FileName, func(err error) {
		if err != nil {
			finish(fmt.Errorf("kvs: compact rename: %w", err))
			return
		}
		old := s.fc
		s.fc = nfc
		s.index = newIndex
		s.fileEnd = newEnd
		if s.cache != nil {
			// Value bytes are unchanged, but keep it simple and exact.
			s.cache.clear()
		}
		s.stats.Compactions++
		// The snapshot's watermark refers to the old log: invalidate it.
		wrapUp := func() {
			// Close the connection to the (now deleted) old file.
			if ofc, ok := old.(*smartnic.FileClient); ok {
				ofc.Conn.Close(func(error) {})
			}
			finish(nil)
		}
		if s.snap != nil {
			s.snap.Truncate(func(error) { wrapUp() })
			return
		}
		wrapUp()
	})
}
