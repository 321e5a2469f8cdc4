package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.After(1, nil)
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop reported not-pending")
	}
	if tm.Stop() {
		t.Error("second Stop reported pending")
	}
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

// record is a component's op record: it embeds its timer and is the
// event the timer fires.
type record struct {
	tm    Timer
	fired int
}

func (r *record) Fire() { r.fired++ }

// TestEmbeddedTimer: a caller-owned timer fires its record, is inert
// afterwards (Stop is a no-op, Arm is allowed again), and refuses a
// second Arm while pending — that would leave the first event queued
// with no handle to cancel it.
func TestEmbeddedTimer(t *testing.T) {
	e := NewEngine()
	r := &record{}
	r.tm.Arm(e, 10, r)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Arm of a pending timer did not panic")
			}
		}()
		r.tm.Arm(e, 20, r)
	}()
	e.Run()
	if r.fired != 1 || e.Now() != 10 {
		t.Fatalf("fired %d times by %v, want once at 10ns", r.fired, e.Now())
	}
	if r.tm.Stop() {
		t.Error("Stop after fire reported pending")
	}
	if e.Pending() != 0 {
		t.Errorf("Stop after fire left %d events queued", e.Pending())
	}
	r.tm.Arm(e, 5, r)
	if !r.tm.Stop() || r.tm.Stop() {
		t.Error("re-armed timer: want first Stop true, second false")
	}
	r.tm.Arm(e, 5, r)
	e.Run()
	if r.fired != 2 || e.Now() != 15 {
		t.Errorf("after stop and re-arm: fired %d times by %v, want twice by 15ns", r.fired, e.Now())
	}
}

// TestServerSubmitEvent: an event object completes a job exactly as a
// callback does, and nil charges the service time and fires nothing.
func TestServerSubmitEvent(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	r := &record{}
	if at := s.SubmitEvent(10, r); at != 10 {
		t.Errorf("first job finishes at %v, want 10ns", at)
	}
	if at := s.SubmitEvent(10, nil); at != 20 {
		t.Errorf("second job finishes at %v, want 20ns", at)
	}
	done := Time(0)
	s.Submit(5, func() { done = e.Now() })
	if e.Pending() != 2 {
		t.Errorf("%d events queued for three jobs, one of them silent; want 2", e.Pending())
	}
	e.Run()
	if r.fired != 1 || done != 25 {
		t.Errorf("record fired %d times, callback at %v; want once and 25ns", r.fired, done)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	count := 0
	e.After(10, func() { count++ })
	e.After(50, func() { count++ })
	e.RunUntil(20)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	e.RunFor(40)
	if count != 2 || e.Now() != 60 {
		t.Fatalf("count=%d now=%v, want 2, 60", count, e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(Duration(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5, func() { fired = true })
	e.Run()
	if !fired || e.Now() != 0 {
		t.Fatalf("negative After mishandled: fired=%v now=%v", fired, e.Now())
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000000s"},
		{-500, "-500ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestServerFIFO(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var done []int
	s.Submit(10, func() { done = append(done, 1) })
	s.Submit(10, func() { done = append(done, 2) })
	e.Run()
	if e.Now() != 20 {
		t.Fatalf("two back-to-back 10ns jobs finished at %v, want 20", e.Now())
	}
	if len(done) != 2 || done[0] != 1 || done[1] != 2 {
		t.Fatalf("completion order %v", done)
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var finish Time
	s.Submit(10, nil)
	e.After(100, func() {
		finish = s.Submit(10, nil)
	})
	e.Run()
	if finish != 110 {
		t.Fatalf("job after idle gap finished at %v, want 110", finish)
	}
	if s.BusyTotal() != 20 {
		t.Fatalf("BusyTotal = %v, want 20", s.BusyTotal())
	}
}

func TestServerDelay(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	s.Submit(40, nil)
	s.Submit(10, nil)
	if d := s.Delay(); d != 50 {
		t.Fatalf("Delay = %v, want 50", d)
	}
}

func TestPoolParallelism(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, 2)
	var finishes []Time
	for i := 0; i < 4; i++ {
		p.Submit(10, func() { finishes = append(finishes, e.Now()) })
	}
	e.Run()
	// 2 servers, 4 jobs of 10ns: completions at 10,10,20,20.
	want := []Time{10, 10, 20, 20}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
	if p.Jobs() != 4 || p.BusyTotal() != 40 {
		t.Fatalf("jobs=%d busy=%v", p.Jobs(), p.BusyTotal())
	}
}

func TestPoolSingleEqualsServer(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, 1)
	t1 := p.Submit(10, nil)
	t2 := p.Submit(5, nil)
	if t1 != 10 || t2 != 15 {
		t.Fatalf("pool(1) behaves unlike a serial server: %v %v", t1, t2)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	a := NewRand(42)
	f := a.Fork()
	if a.Uint64() == f.Uint64() {
		t.Error("fork produced identical first draw (suspicious)")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	check := func(f float64) bool { return f >= 0 && f < 1 }
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); !check(f) {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(99)
	const mean = 1000 * Nanosecond
	var sum Duration
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := float64(sum) / n
	if got < 980 || got > 1020 {
		t.Errorf("Exp mean = %.1f, want ~1000", got)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(5)
	z := NewZipf(r, 1000, 0.99)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[500] {
		t.Errorf("rank 0 (%d) not hotter than rank 500 (%d)", counts[0], counts[500])
	}
	// Rank 0 of a zipf(0.99) over 1000 items draws roughly 13% of traffic.
	if counts[0] < 50000/10 {
		t.Errorf("rank 0 count %d suspiciously low", counts[0])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRand(5)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	for k, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("uniform zipf rank %d count %d outside [8000,12000]", k, c)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
