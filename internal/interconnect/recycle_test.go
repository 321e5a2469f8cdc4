package interconnect

import (
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/sim"
)

// A doorbell write's record goes back on its fabric's list as it fires,
// before the handler runs, so a ring from inside a handler takes it. The
// tests below hold a recycled record to never being seen in flight.

// With every ring doubled and several free lists' worth in flight at once,
// each delivery still sees its own value: a doubled write is two records,
// and a handler that rings again takes the record its own delivery just
// gave back.
func TestDupDoorbellsRecycleTheirRecords(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.fab.SetFaultPlane(faultinject.New(1).Add(faultinject.Rule{Layer: faultinject.LayerLink, Op: faultinject.Dup}))
	const n = 3 * sim.FreeBound
	seen := make(map[uint64]int)
	var bell DoorbellAddr
	bell = r.fab.AllocDoorbell(func(v uint64) {
		seen[v]++
		if v < n {
			r.fab.Ring(bell, v+n) // from inside the handler
		}
	})
	for v := range uint64(n) {
		r.fab.Ring(bell, v)
	}
	r.eng.Run()
	// Each first-round value lands twice; each of those two deliveries
	// rings once more, doubled, so each second-round value lands four times.
	for v := range uint64(2 * n) {
		want := 2
		if v >= n {
			want = 4
		}
		if seen[v] != want {
			t.Errorf("value %d delivered %d times, want %d", v, seen[v], want)
		}
	}
	if len(seen) != 2*n {
		t.Errorf("%d distinct values delivered, want %d", len(seen), 2*n)
	}
	if got := r.fab.Stats().Doorbells; got != 3*n {
		t.Errorf("%d rings counted, want %d", got, 3*n)
	}
}

// TestDoorbellAllocs pins a delivered doorbell write at no allocation in
// steady state: its record comes off the fabric's list.
func TestDoorbellAllocs(t *testing.T) {
	r := newRig(t, DefaultCosts)
	var got uint64
	bell := r.fab.AllocDoorbell(func(v uint64) { got = v })
	v := uint64(0)
	n := testing.AllocsPerRun(200, func() {
		v++
		r.fab.Ring(bell, v)
		r.eng.Run()
	})
	if got != v {
		t.Fatalf("last delivery saw %d, want %d", got, v)
	}
	t.Logf("a doorbell write: %v allocations", n)
	if n > 0 {
		t.Errorf("a doorbell write allocates %v times, want 0", n)
	}
}
