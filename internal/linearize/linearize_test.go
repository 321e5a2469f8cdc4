package linearize

import (
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"nocpu/internal/sim"
)

// t returns a sim.Time in microseconds, for compact histories.
func at(us int) sim.Time { return sim.Time(us) * sim.Time(sim.Microsecond) }

func mustOK(t *testing.T, h *History) {
	t.Helper()
	res := Check(h)
	if len(res.Aborted) != 0 {
		t.Fatalf("checker aborted on keys %v", res.Aborted)
	}
	if !res.OK {
		t.Fatalf("history judged non-linearizable at key %q, want linearizable", res.BadKey)
	}
}

func mustViolate(t *testing.T, h *History, key string) {
	t.Helper()
	res := Check(h)
	if len(res.Aborted) != 0 {
		t.Fatalf("checker aborted on keys %v", res.Aborted)
	}
	if res.OK {
		t.Fatal("history judged linearizable, want violation")
	}
	if res.BadKey != key {
		t.Fatalf("violation pinned to key %q, want %q", res.BadKey, key)
	}
}

// Sequential put/get/delete against one key: trivially linearizable.
func TestSequentialHistoryLinearizes(t *testing.T) {
	h := NewHistory()
	id := h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Get, "k", 0, at(20))
	h.Return(id, OK, 1, at(30))
	id = h.Invoke(Delete, "k", 0, at(40))
	h.Return(id, OK, 0, at(50))
	id = h.Invoke(Get, "k", 0, at(60))
	h.Return(id, NotFound, 0, at(70))
	mustOK(t, h)
}

// A read that returns the OLD value after a newer write fully
// completed has no sequential explanation: the stale read is exactly
// what a split-brain primary serves.
func TestStaleReadViolates(t *testing.T) {
	h := NewHistory()
	id := h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "k", 2, at(20))
	h.Return(id, OK, 0, at(30))
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 1, at(50)) // stale: 2 was acked before this began
	mustViolate(t, h, "k")
}

// A read CONCURRENT with a write may observe either side of it — both
// responses are linearizable, because the write's point can land
// before or after the read's.
func TestConcurrentReadSeesEitherValue(t *testing.T) {
	for _, ret := range []uint64{1, 2} {
		h := NewHistory()
		id := h.Invoke(Put, "k", 1, at(0))
		h.Return(id, OK, 0, at(10))
		put := h.Invoke(Put, "k", 2, at(20)) // overlaps the get
		id = h.Invoke(Get, "k", 0, at(25))
		h.Return(id, OK, ret, at(35))
		h.Return(put, OK, 0, at(40))
		mustOK(t, h)
	}
}

// NotFound after an acked put (and no delete anywhere) means the write
// was lost — the R1 ledger's durability claim, judged from outside.
func TestNotFoundAfterAckedPutViolates(t *testing.T) {
	h := NewHistory()
	id := h.Invoke(Put, "k", 7, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Get, "k", 0, at(20))
	h.Return(id, NotFound, 0, at(30))
	mustViolate(t, h, "k")
}

// An ambiguous write (timeout, StatusError) may have executed or not:
// a later read is allowed to see it, to miss it — and once some read
// HAS seen it, earlier state may not reappear.
func TestMaybeWriteIsOptional(t *testing.T) {
	// Branch 1: the maybe-write never took effect.
	h := NewHistory()
	id := h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "k", 2, at(20))
	h.Return(id, Maybe, 0, at(30))
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 1, at(50))
	mustOK(t, h)

	// Branch 2: it did take effect.
	h = NewHistory()
	id = h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "k", 2, at(20))
	h.Return(id, Maybe, 0, at(30))
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 2, at(50))
	mustOK(t, h)

	// But not both: after a read observed the maybe-write, the register
	// cannot revert to the old value.
	h = NewHistory()
	id = h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "k", 2, at(20))
	h.Return(id, Maybe, 0, at(30))
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 2, at(50))
	id = h.Invoke(Get, "k", 0, at(60))
	h.Return(id, OK, 1, at(70))
	mustViolate(t, h, "k")
}

// An ambiguous write may take effect AFTER its failure response came
// back (it was in a retry queue, a delayed frame): a much later read
// observing it is still linearizable.
func TestMaybeWriteMayLandLate(t *testing.T) {
	h := NewHistory()
	id := h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "k", 2, at(20))
	h.Return(id, Maybe, 0, at(30))
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 1, at(50)) // not yet landed
	id = h.Invoke(Get, "k", 0, at(60))
	h.Return(id, OK, 2, at(70)) // landed now — fine
	mustOK(t, h)
}

// A typed refusal (fenced, shed, denied) contractually did NOT
// execute: a later read must NOT be required to see it, and seeing it
// would itself be a violation — the fencing contract, judged from the
// client side.
func TestTypedRefusalIsExcluded(t *testing.T) {
	h := NewHistory()
	id := h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "k", 2, at(20))
	h.Return(id, Fail, 0, at(30)) // fenced primary refused it
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 1, at(50))
	mustOK(t, h)

	// The refused write leaking into the register IS a violation: a
	// "fenced" primary that applied the write anyway.
	h = NewHistory()
	id = h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "k", 2, at(20))
	h.Return(id, Fail, 0, at(30))
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 2, at(50))
	mustViolate(t, h, "k")
}

// An operation still Pending when the run ends is carried like an
// ambiguous write; a pending READ constrains nothing and is excluded.
func TestPendingTailIsAmbiguous(t *testing.T) {
	h := NewHistory()
	id := h.Invoke(Put, "k", 1, at(0))
	h.Return(id, OK, 0, at(10))
	h.Invoke(Put, "k", 2, at(20)) // no response before end of run
	h.Invoke(Get, "k", 0, at(25)) // ditto — excluded
	id = h.Invoke(Get, "k", 0, at(40))
	h.Return(id, OK, 2, at(50)) // pending write took effect: fine
	mustOK(t, h)

	res := Check(h)
	if res.Excluded != 1 || res.Optional != 1 {
		t.Fatalf("classification: excluded=%d optional=%d, want 1 and 1", res.Excluded, res.Optional)
	}
}

// Keys are independent objects: a violation on one key is pinned to
// that key and does not implicate the others.
func TestPerKeyComposition(t *testing.T) {
	h := NewHistory()
	id := h.Invoke(Put, "good", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Put, "bad", 1, at(0))
	h.Return(id, OK, 0, at(10))
	id = h.Invoke(Get, "bad", 0, at(20))
	h.Return(id, NotFound, 0, at(30)) // lost write on "bad" only
	id = h.Invoke(Get, "good", 0, at(20))
	h.Return(id, OK, 1, at(30))
	mustViolate(t, h, "bad")
}

// The real split-brain shape E21 hunts: clients on both sides of a
// partition each get OK for DIFFERENT writes to the same key, then a
// post-heal read can only explain one of them. Two acked diverging
// writes with a read pinning each — no sequential order exists.
func TestSplitBrainShapeViolates(t *testing.T) {
	h := NewHistory()
	// Side A: put 1, read back 1.
	a := h.Invoke(Put, "k", 1, at(0))
	h.Return(a, OK, 0, at(10))
	// Side B, concurrently: put 2, read back 2.
	b := h.Invoke(Put, "k", 2, at(0))
	h.Return(b, OK, 0, at(10))
	ra := h.Invoke(Get, "k", 0, at(20))
	h.Return(ra, OK, 1, at(30))
	rb := h.Invoke(Get, "k", 0, at(40)) // after the 1-read completed
	h.Return(rb, OK, 2, at(50))
	ra2 := h.Invoke(Get, "k", 0, at(60)) // and back to 1: impossible
	h.Return(ra2, OK, 1, at(70))
	mustViolate(t, h, "k")
}

// Determinism: the same history checks to the same verdict and the
// same counters every time (the checker feeds golden tables).
func TestCheckerIsDeterministic(t *testing.T) {
	build := func() *History {
		h := NewHistory()
		for i := 0; i < 6; i++ {
			id := h.Invoke(Put, "a", uint64(i), at(i*10))
			h.Return(id, OK, 0, at(i*10+15)) // overlapping puts
			id = h.Invoke(Get, "b", 0, at(i*10+2))
			h.Return(id, NotFound, 0, at(i*10+6))
		}
		return h
	}
	first := Check(build())
	for i := 0; i < 5; i++ {
		got := Check(build())
		if got.OK != first.OK || got.BadKey != first.BadKey || got.Keys != first.Keys ||
			got.Required != first.Required || got.Optional != first.Optional ||
			got.Excluded != first.Excluded || len(got.Aborted) != len(first.Aborted) {
			t.Fatalf("run %d: %+v != %+v", i, got, first)
		}
	}
}

// A history longer than one block keeps every op where Invoke put it: a
// Return into an earlier block lands on its own op, and a stale read
// there is still found.
func TestHistorySpansBlocks(t *testing.T) {
	build := func(stale bool) *History {
		h := NewHistory()
		first := h.Invoke(Get, "k", 0, at(0)) // answered last, from block 0
		for i := 0; i < 3*blockOps; i++ {
			id := h.Invoke(Put, "o"+strconv.Itoa(i), uint64(i), at(10+2*i))
			h.Return(id, OK, 0, at(11+2*i))
		}
		put := h.Invoke(Put, "k", 7, at(1))
		h.Return(put, OK, 0, at(2))
		ret := uint64(7)
		if stale {
			ret = 6 // never written
		}
		h.Return(first, OK, ret, at(3))
		return h
	}
	mustOK(t, build(false))
	mustViolate(t, build(true), "k")
	if res := Check(build(false)); res.Keys != 3*blockOps+1 || res.Required != 3*blockOps+2 {
		t.Fatalf("checked %d keys and %d required ops, want %d and %d", res.Keys, res.Required, 3*blockOps+1, 3*blockOps+2)
	}
}

// TestHistoryAllocs bounds what recording costs per op: an Op is 64 bytes
// and lives in a fixed block, so a long history never copies itself. It
// reads 66 B per Invoke (the Op and its share of the block list); 339 while
// one slice regrew under append and an Op was 72 B.
func TestHistoryAllocs(t *testing.T) {
	const n = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := NewHistory()
	for i := 0; i < n; i++ {
		h.Invoke(Put, "k", uint64(i), at(i))
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("Invoke: %.1f B per op", per)
	if per > 80 {
		t.Errorf("Invoke costs %.1f B per op, want <= 80", per)
	}
	if got := unsafe.Sizeof(Op{}); got != 64 {
		t.Errorf("an Op is %d bytes, want 64", got)
	}
}
