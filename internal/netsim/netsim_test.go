package netsim

import (
	"testing"

	"nocpu/internal/sim"
)

// fixedServer answers every request after a constant service delay, with
// optional FIFO queueing (concurrency 1).
func fixedServer(eng *sim.Engine, service sim.Duration, serialize bool) Target {
	srv := sim.NewServer(eng)
	return func(payload []byte, reply func([]byte)) {
		if serialize {
			srv.Submit(service, func() { reply(payload) })
			return
		}
		eng.Schedule(service, func() { reply(payload) })
	}
}

func TestClosedLoopCompletesAll(t *testing.T) {
	eng := sim.NewEngine()
	cl := &ClosedLoop{
		Eng: eng, Rand: sim.NewRand(1), Workers: 4, PerWorker: 25,
		Gen:    func(r *sim.Rand, seq uint64) []byte { return []byte{byte(seq)} },
		Target: fixedServer(eng, 10*sim.Microsecond, false),
	}
	finished := false
	cl.Run(func() { finished = true })
	eng.Run()
	st := cl.Stats()
	if !finished || st.Sent != 100 || st.Completed != 100 {
		t.Fatalf("finished=%v sent=%d done=%d", finished, st.Sent, st.Completed)
	}
	// Latency = 2 wire hops + service = 2*2us + 10us.
	if st.Latency.Min() != 14*sim.Microsecond {
		t.Errorf("min latency = %v, want 14us", st.Latency.Min())
	}
}

func TestClosedLoopThroughputMatchesLittle(t *testing.T) {
	// 4 workers, non-serialized 10us service + 4us wire: each worker
	// completes one op per 14us -> ~285k ops/s total.
	eng := sim.NewEngine()
	cl := &ClosedLoop{
		Eng: eng, Rand: sim.NewRand(1), Workers: 4, PerWorker: 1000,
		Gen:    func(r *sim.Rand, seq uint64) []byte { return nil },
		Target: fixedServer(eng, 10*sim.Microsecond, false),
	}
	cl.Run(nil)
	eng.Run()
	st := cl.Stats()
	tput := st.Throughput()
	if tput < 280e3 || tput > 290e3 {
		t.Errorf("throughput = %.0f, want ~285k", tput)
	}
}

func TestClosedLoopThink(t *testing.T) {
	eng := sim.NewEngine()
	cl := &ClosedLoop{
		Eng: eng, Rand: sim.NewRand(1), Workers: 1, PerWorker: 10,
		Think:  100 * sim.Microsecond,
		Gen:    func(r *sim.Rand, seq uint64) []byte { return nil },
		Target: fixedServer(eng, 10*sim.Microsecond, false),
	}
	cl.Run(nil)
	eng.Run()
	// 10 ops: each 14us RTT + 9 think gaps of 100us >= 1.04ms total.
	if eng.Now() < sim.Time(1*sim.Millisecond) {
		t.Errorf("finished at %v, think time not honored", eng.Now())
	}
}

func TestClosedLoopErrorClassifier(t *testing.T) {
	eng := sim.NewEngine()
	n := 0
	cl := &ClosedLoop{
		Eng: eng, Rand: sim.NewRand(1), Workers: 1, PerWorker: 10,
		Gen: func(r *sim.Rand, seq uint64) []byte { return []byte{byte(seq)} },
		IsError: func(resp []byte) bool {
			n++
			return resp[0]%2 == 0
		},
		Target: fixedServer(eng, 1, false),
	}
	cl.Run(nil)
	eng.Run()
	if st := cl.Stats(); st.Errors != 5 {
		t.Errorf("errors = %d, want 5", st.Errors)
	}
}

func TestOpenLoopOfferedRate(t *testing.T) {
	eng := sim.NewEngine()
	ol := &OpenLoop{
		Eng: eng, Rand: sim.NewRand(7), Rate: 100000, Duration: 50 * sim.Millisecond,
		Gen:    func(r *sim.Rand, seq uint64) []byte { return nil },
		Target: fixedServer(eng, 5*sim.Microsecond, false),
	}
	finished := false
	ol.Run(func() { finished = true })
	eng.Run()
	st := ol.Stats()
	if !finished {
		t.Fatal("never finished")
	}
	// ~100k/s over 50ms = ~5000 requests, Poisson noise ~±3 sigma.
	if st.Sent < 4600 || st.Sent > 5400 {
		t.Errorf("sent = %d, want ~5000", st.Sent)
	}
	if st.Completed != st.Sent {
		t.Errorf("completed %d != sent %d", st.Completed, st.Sent)
	}
}

func TestOpenLoopQueueingUnderOverload(t *testing.T) {
	// Serialized 20us server = 50k ops/s capacity; offer 100k. Latency
	// must blow up far beyond the unloaded 24us.
	eng := sim.NewEngine()
	ol := &OpenLoop{
		Eng: eng, Rand: sim.NewRand(7), Rate: 100000, Duration: 20 * sim.Millisecond,
		Gen:    func(r *sim.Rand, seq uint64) []byte { return nil },
		Target: fixedServer(eng, 20*sim.Microsecond, true),
	}
	ol.Run(nil)
	eng.Run()
	st := ol.Stats()
	if st.Latency.P99() < 500*sim.Microsecond {
		t.Errorf("p99 = %v under 2x overload; queueing model broken", st.Latency.P99())
	}
	// Throughput pinned at capacity.
	if tput := st.Throughput(); tput > 60e3 {
		t.Errorf("throughput %.0f exceeds server capacity", tput)
	}
}

func TestOpenLoopDeterminism(t *testing.T) {
	run := func() (uint64, sim.Duration) {
		eng := sim.NewEngine()
		ol := &OpenLoop{
			Eng: eng, Rand: sim.NewRand(42), Rate: 50000, Duration: 10 * sim.Millisecond,
			Gen:    func(r *sim.Rand, seq uint64) []byte { return nil },
			Target: fixedServer(eng, 10*sim.Microsecond, true),
		}
		ol.Run(nil)
		eng.Run()
		return ol.Stats().Sent, ol.Stats().Latency.P99()
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Errorf("non-deterministic: (%d,%v) vs (%d,%v)", s1, p1, s2, p2)
	}
}

func TestStatsThroughputZeroSpan(t *testing.T) {
	var s Stats
	if s.Throughput() != 0 {
		t.Error("zero-span throughput not 0")
	}
}
