package sim

import "testing"

// TestFreeListBoundAndZeroes: a freed record comes back zeroed, so it
// pins nothing it pointed at, and a list keeps at most FreeBound of them.
func TestFreeListBoundAndZeroes(t *testing.T) {
	type rec struct {
		p *int
		n int
	}
	var f Free[rec]
	x := 7
	held := make(map[*rec]bool)
	for range FreeBound + 3 {
		r := f.Get()
		*r = rec{p: &x, n: 9}
		held[r] = true
	}
	for r := range held {
		f.Put(r)
		if *r != (rec{}) {
			t.Fatalf("a freed record still holds %+v", *r)
		}
	}
	reused := 0
	for range FreeBound + 3 {
		r := f.Get()
		if *r != (rec{}) {
			t.Fatalf("Get returned %+v, want a zeroed record", *r)
		}
		if held[r] {
			reused++
		}
	}
	if reused != FreeBound {
		t.Errorf("%d records reused of %d freed, want the list to keep %d", reused, FreeBound+3, FreeBound)
	}
}
