package memctrl

import (
	"runtime"
	"slices"
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/physmem"
)

// TestRegionsAllocs pins the host cost of each answer the region table
// gives, one VA reused so the replay tombstone the free leaves is the one
// the next fresh alloc deletes and no map grows: a fresh alloc 2 (its
// response and the region's frames), a replayed alloc 1 and an
// authorization 1 (the response: the frames are the region's, lent), a
// free 1 (the response). Before the frames were lent, the fresh alloc read
// 4 (a region record and a wire copy besides), the replay and the
// authorization 2.
func TestRegionsAllocs(t *testing.T) {
	r := NewRegions(physmem.MustNew(64*physmem.PageSize), 0)
	alloc := &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 16 * physmem.PageSize}
	auth := &msg.AuthReq{App: 1, VA: alloc.VA + physmem.PageSize, Bytes: 4 * physmem.PageSize}
	free := &msg.FreeReq{App: 1, VA: alloc.VA, Bytes: alloc.Bytes}
	var fresh, replayed, ok bool
	steps := []struct {
		name  string
		run   func()
		bound uint64
	}{
		{"fresh alloc", func() { resp, f := r.Alloc(2, alloc); fresh = f && resp.OK }, 3},
		{"replayed alloc", func() { resp, f := r.Alloc(2, alloc); replayed = !f && resp.OK }, 2},
		{"authorize", func() { ok = r.authorize(msg.BusID, auth).OK }, 2},
		{"free", func() { ok = ok && r.Free(2, free).OK }, 2},
	}
	cycle := func(count []uint64) {
		var before, after runtime.MemStats
		for i, s := range steps {
			runtime.ReadMemStats(&before)
			s.run()
			runtime.ReadMemStats(&after)
			if count != nil {
				count[i] += after.Mallocs - before.Mallocs
			}
		}
		if !fresh || !replayed || !ok {
			t.Fatalf("cycle: fresh %v, replayed %v, authorized and freed %v", fresh, replayed, ok)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle(nil) // the maps' first entries
	const runs = 100
	count := make([]uint64, len(steps))
	for range runs {
		cycle(count)
	}
	for i, s := range steps {
		n := float64(count[i]) / runs
		t.Logf("%s: %v allocations", s.name, n)
		if n > float64(s.bound) {
			t.Errorf("%s allocates %v times, want <= %d", s.name, n, s.bound)
		}
	}
	if len(r.freed) != 1 || r.live() != 0 {
		t.Errorf("%d tombstones and %d live regions after the cycles, want 1 and 0", len(r.freed), r.live())
	}
}

// TestRegionFramesLent: every answer about a region carries the region's
// own frames, lent read-only. A grant's sub-range is capped at its length,
// so a holder's append reallocates instead of writing into the region, and
// a replayed alloc still answers with the frames the first answer had.
func TestRegionFramesLent(t *testing.T) {
	r := NewRegions(physmem.MustNew(64*physmem.PageSize), 0)
	req := &msg.AllocReq{App: 1, VA: 0x10000, Bytes: 8 * physmem.PageSize}
	first, fresh := r.Alloc(2, req)
	if !first.OK || !fresh || len(first.Frames) != 8 {
		t.Fatalf("alloc = %+v, fresh %v", first, fresh)
	}
	region := slices.Clone(r.table[1][req.VA].frames)
	if cap(first.Frames) != len(first.Frames) {
		t.Errorf("AllocResp frames: cap %d, len %d, want them equal", cap(first.Frames), len(first.Frames))
	}
	grant := r.authorize(msg.BusID, &msg.AuthReq{App: 1, VA: req.VA + 2*physmem.PageSize, Bytes: 3 * physmem.PageSize})
	if !grant.OK || !slices.Equal(grant.Frames, region[2:5]) {
		t.Fatalf("authorize = %+v, want frames %v", grant, region[2:5])
	}
	if cap(grant.Frames) != len(grant.Frames) {
		t.Errorf("AuthResp frames: cap %d, len %d, want them equal", cap(grant.Frames), len(grant.Frames))
	}
	_ = append(grant.Frames, 0xdead, 0xbeef)
	_ = append(first.Frames, 0xdead)
	if got := r.table[1][req.VA].frames; !slices.Equal(got, region) {
		t.Errorf("appends to lent frames changed the region: %v, want %v", got, region)
	}
	replay, fresh := r.Alloc(2, req)
	if !replay.OK || fresh || !slices.Equal(replay.Frames, region) || !slices.Equal(replay.Frames, first.Frames) {
		t.Errorf("replay = %+v (fresh %v), want the first answer's frames %v", replay, fresh, region)
	}
}
