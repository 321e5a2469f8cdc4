package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"nocpu/internal/sim"
)

// repResult is what one repetition of one workload measured.
type repResult struct {
	// Host cost of the measured phase.
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	LiveHeapMB float64 `json:"live_heap_mb"`

	// Simulated outcome of the measured phase.
	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	VirtSpanNs int64  `json:"virt_span_ns"`
	Digest     string `json:"digest"`

	// Set-up phases (host seconds; they sum to SetupS).
	NewS, BootS, PreloadS float64 `json:"-"`
	// linearize.Check on the leased workload.
	CheckS                           float64 `json:"-"`
	CheckedOps, OptionalOps, Aborted int     `json:"-"`

	latencies []int64  // sorted, virtual ns
	delta     counters // measured phase only
	errs      []string // correctness failures
	tr        *tracer
}

// repEnv is handed to a workload for one repetition.
type repEnv struct {
	seed uint64
	ops  int
	tr   *tracer // nil on untraced repetitions
	res  *repResult

	t0     time.Time
	w0     time.Time
	cpu0   time.Duration
	ms0    runtime.MemStats
	before counters
	lat    []int64
	first  sim.Time
	last   sim.Time
}

func (e *repEnv) errorf(format string, args ...any) {
	if len(e.res.errs) < 8 {
		e.res.errs = append(e.res.errs, fmt.Sprintf(format, args...))
	}
}

// setup runs the three set-up steps of a cell, timing each and
// recording it as a span. It reports false, with the error recorded, as
// soon as one fails.
func (e *repEnv) setup(newCell, boot, preload func() error) bool {
	e.tr.begin("setup")
	defer e.tr.end()
	for _, step := range []struct {
		name string
		dst  *float64
		fn   func() error
	}{
		{"fabric.new", &e.res.NewS, newCell},
		{"fabric.boot", &e.res.BootS, boot},
		{"fabric.preload", &e.res.PreloadS, preload},
	} {
		e.tr.begin(step.name)
		t := time.Now()
		err := step.fn()
		*step.dst = time.Since(t).Seconds()
		e.tr.end()
		if err != nil {
			e.errorf("%s: %v", step.name, err)
			return false
		}
	}
	return true
}

// startMeasure ends set-up and opens the measured phase. The collection
// between the two is untimed: it makes every repetition start measuring
// from a heap that holds the cell and nothing else.
func (e *repEnv) startMeasure(snapshot func() counters, now sim.Time) {
	e.res.SetupS = time.Since(e.t0).Seconds()
	runtime.GC()
	e.before = snapshot()
	e.first = now
	e.lat = make([]int64, 0, e.ops)
	e.tr.begin("measure")
	runtime.ReadMemStats(&e.ms0)
	e.cpu0 = cpuTime()
	e.w0 = time.Now()
}

// observe records one completed operation's client-observed latency. A
// failed operation is recorded too, so it counts in the tail.
func (e *repEnv) observe(start, end sim.Time, ok bool) {
	e.lat = append(e.lat, int64(end.Sub(start)))
	e.last = end
	if !ok {
		e.res.Failed++
	}
}

// stopMeasure closes the measured phase. keep is the cell: it must stay
// reachable across the forced collection for live_heap_mb to mean "what
// the cell holds after this much work".
func (e *repEnv) stopMeasure(snapshot func() counters, keep any) {
	r := e.res
	r.WallS = time.Since(e.w0).Seconds()
	r.CPUS = (cpuTime() - e.cpu0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.tr.end()
	r.Mallocs = ms.Mallocs - e.ms0.Mallocs
	r.AllocBytes = ms.TotalAlloc - e.ms0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.LiveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)

	r.Attempted = e.ops
	if len(e.lat) != e.ops {
		e.errorf("%d of %d operations completed", len(e.lat), e.ops)
		r.Failed += e.ops - len(e.lat)
	}
	r.VirtSpanNs = int64(e.last.Sub(e.first))
	r.delta = snapshot().since(e.before)
	r.Digest = digest(r.delta, e.lat, r.VirtSpanNs)
	sort.Slice(e.lat, func(i, j int) bool { return e.lat[i] < e.lat[j] })
	r.latencies = e.lat
}

// drive advances the engine one simulated millisecond at a time until
// done is set, recording each batch as a span named span.
func (e *repEnv) drive(span string, eng *sim.Engine, done *bool, limit sim.Duration) {
	deadline := eng.Now().Add(limit)
	for !*done && eng.Now() < deadline {
		e.tr.begin(span)
		eng.RunFor(sim.Millisecond)
		e.tr.end()
	}
	if !*done {
		e.errorf("phase did not finish within %v of simulated time", limit)
	}
}

// cpuTime is the user+system CPU time of this process, GC threads
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
