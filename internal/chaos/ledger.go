package chaos

import (
	"fmt"
	"sort"

	"nocpu/internal/sim"
)

// Ledger is the client-side oracle for the recovery guarantees. The
// workload gives every write a value that is unique per (key, attempt)
// and strictly increasing per key; the ledger records which values were
// issued and which were acknowledged, observes every read, and judges
// G1/G2 from those observations alone — it never looks inside the system
// under test.
type Ledger struct {
	keys map[string]*keyState

	attempts uint64
	acks     uint64
	reads    uint64

	g1Lost uint64 // reads that returned a value older than the newest ack
	g2Dups uint64 // reads of never-issued values, or regressing reads

	violations []string
	unroutable []string
}

type keyState struct {
	issued   map[uint64]bool // every value ever sent for this key
	maxAcked uint64
	acked    bool
	lastRead uint64
	readAny  bool
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{keys: make(map[string]*keyState)} }

func (l *Ledger) state(key string) *keyState {
	ks := l.keys[key]
	if ks == nil {
		ks = &keyState{issued: make(map[uint64]bool)}
		l.keys[key] = ks
	}
	return ks
}

// NoteAttempt records that a write of val to key was issued. Values must
// be strictly increasing per key; the ledger enforces this because both
// guarantees are judged against that order.
func (l *Ledger) NoteAttempt(key string, val uint64) {
	ks := l.state(key)
	if ks.issued[val] {
		panic(fmt.Sprintf("chaos: workload reused value %d for key %q", val, key))
	}
	ks.issued[val] = true
	l.attempts++
}

// NoteAck records that the write of val to key was acknowledged.
func (l *Ledger) NoteAck(key string, val uint64) {
	ks := l.state(key)
	if !ks.issued[val] {
		panic(fmt.Sprintf("chaos: ack for unissued value %d on key %q", val, key))
	}
	l.acks++
	if !ks.acked || val > ks.maxAcked {
		ks.acked, ks.maxAcked = true, val
	}
}

// NoteRead records a successful read of key returning val and judges it.
// found=false means the key was absent; absence is a G1 violation once
// any write to the key has been acked.
func (l *Ledger) NoteRead(key string, val uint64, found bool) {
	ks := l.state(key)
	l.reads++
	if !found {
		if ks.acked {
			l.g1Lost++
			l.note("G1: key %q absent after ack of value %d", key, ks.maxAcked)
		}
		return
	}
	if !ks.issued[val] {
		l.g2Dups++
		l.note("G2: key %q returned never-issued value %d", key, val)
		return
	}
	if ks.acked && val < ks.maxAcked {
		l.g1Lost++
		l.note("G1: key %q returned %d, older than acked %d", key, val, ks.maxAcked)
	}
	if ks.readAny && val < ks.lastRead {
		l.g2Dups++
		l.note("G2: key %q regressed from %d to %d (stale duplicate applied)", key, ks.lastRead, val)
	}
	ks.readAny, ks.lastRead = true, val
}

// NoteUnroutable records a key whose read-back sweep never got a
// definitive answer (OK or NotFound) from the system under test — R3:
// after failover settles, every key the workload touched must be
// served by someone. On a rack it means the key's shard fell out of
// the ring without a surviving replica taking it over.
func (l *Ledger) NoteUnroutable(key string) {
	const maxTracked = 64
	if len(l.unroutable) < maxTracked {
		l.unroutable = append(l.unroutable, key)
	}
}

func (l *Ledger) note(format string, args ...any) {
	const maxViolations = 16
	if len(l.violations) < maxViolations {
		l.violations = append(l.violations, fmt.Sprintf(format, args...))
	}
}

// Report is the aggregated verdict of one chaos run.
type Report struct {
	Attempts uint64
	Acks     uint64
	Reads    uint64
	G1Lost   uint64 // acked writes lost (must be 0)
	G2Dups   uint64 // duplicate/corrupt applies observed (must be 0)

	// Recoveries holds one virtual-time recovery window per crash event,
	// filled in by the experiment (G3: each must be finite and bounded).
	Recoveries []sim.Duration

	Violations []string // first few violations, for diagnostics
	Unroutable []string // keys with no definitive read-back answer (R3; must be empty)
}

// Report tallies the run. Keys with acked writes that were never read
// back count as unverified, not as violations — call NoteRead for every
// key after the run to make the G1 check total.
func (l *Ledger) Report() Report {
	return Report{
		Attempts:   l.attempts,
		Acks:       l.acks,
		Reads:      l.reads,
		G1Lost:     l.g1Lost,
		G2Dups:     l.g2Dups,
		Violations: append([]string(nil), l.violations...),
		Unroutable: append([]string(nil), l.unroutable...),
	}
}

// Keys returns every key the ledger has seen, sorted, for the final
// read-back sweep.
func (l *Ledger) Keys() []string {
	out := make([]string, 0, len(l.keys))
	for k := range l.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MaxRecovery returns the largest recovery window, or 0 if none.
func (r Report) MaxRecovery() sim.Duration {
	var max sim.Duration
	for _, d := range r.Recoveries {
		if d > max {
			max = d
		}
	}
	return max
}

// Clean reports whether the run upheld G1 and G2 (R1/R2 on a rack),
// left no key unroutable (R3), and every crash event recovered within
// bound (G3). bound <= 0 skips the G3 check.
func (r Report) Clean(bound sim.Duration) bool {
	if r.G1Lost != 0 || r.G2Dups != 0 || len(r.Unroutable) != 0 {
		return false
	}
	if bound > 0 {
		for _, d := range r.Recoveries {
			if d > bound {
				return false
			}
		}
	}
	return true
}
