package netsim

import (
	"reflect"
	"testing"

	"nocpu/internal/chaos"
	"nocpu/internal/core"
	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/sim"
)

// fakeKV is an in-memory target. It answers after delay (0: inside the
// send call), serially through one server when serialize is set. A
// test's script decides per request what to answer (serve is the honest
// store) or, returning false, swallows the request.
type fakeKV struct {
	eng       *sim.Engine
	delay     sim.Duration
	serialize bool
	script    func(kvs.Request) (kvs.Response, bool)
	data      map[string][]byte
	arrivals  []sim.Time
	requests  []kvs.Request
	srv       *sim.Server
}

func newFakeKV(eng *sim.Engine, delay sim.Duration) *fakeKV {
	f := &fakeKV{eng: eng, delay: delay, data: map[string][]byte{}, srv: sim.NewServer(eng)}
	f.script = f.serve
	return f
}

func (f *fakeKV) serve(req kvs.Request) (kvs.Response, bool) {
	if req.Op == kvs.OpPut {
		f.data[req.Key] = req.Value
		return kvs.Response{Status: kvs.StatusOK}, true
	}
	if v, ok := f.data[req.Key]; ok {
		return kvs.Response{Status: kvs.StatusOK, Value: v}, true
	}
	return kvs.Response{Status: kvs.StatusNotFound}, true
}

func (f *fakeKV) Send(p []byte, reply func([]byte)) {
	req, err := kvs.DecodeRequest(p)
	if err != nil {
		panic(err)
	}
	f.arrivals = append(f.arrivals, f.eng.Now())
	f.requests = append(f.requests, req)
	resp, answer := f.script(req)
	if !answer {
		return
	}
	b := kvs.EncodeResponse(resp)
	switch {
	case f.serialize:
		f.srv.Submit(f.delay, answer1{b, reply})
	case f.delay == 0:
		reply(b)
	default:
		f.eng.After(f.delay, func() { reply(b) })
	}
}

// answer1 is a queued job's completion: the reply.
type answer1 struct {
	resp  []byte
	reply func([]byte)
}

func (a answer1) Fire() { a.reply(a.resp) }

// keys is a test's key pool.
func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

func TestClosedLoopCompletesAll(t *testing.T) {
	eng := sim.NewEngine()
	st := Run(eng, newFakeKV(eng, 10*sim.Microsecond), Spec{
		Workers: 4, PerWorker: 25, Keys: keys(4), Pick: Sequential,
	})
	if !(st.Sent == 100 && st.Completed == 100) {
		t.Fatalf("sent=%d done=%d", st.Sent, st.Completed)
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
	st := Run(eng, newFakeKV(eng, 10*sim.Microsecond), Spec{
		Workers: 4, PerWorker: 1000, Keys: keys(4), Rand: sim.NewRand(1),
	})
	if tput := st.Throughput(); tput < 280e3 || tput > 290e3 {
		t.Errorf("throughput = %.0f, want ~285k", tput)
	}
}

// Replies are tallied by kvs status: each answer lands in one counter,
// and the derived counts agree with what an experiment reads off them.
func TestClosedLoopErrorClassifier(t *testing.T) {
	status := func(s kvs.Status) kvs.Response { return kvs.Response{Status: s} }
	for _, tc := range []struct {
		name   string
		resp   kvs.Response
		errors uint64 // of 10 replies
		served uint64
		fenced uint64
		ambig  uint64
	}{
		{"ok", status(kvs.StatusOK), 0, 10, 0, 0},
		{"not found", status(kvs.StatusNotFound), 10, 10, 0, 0},
		{"shed", status(kvs.StatusShed), 10, 0, 10, 0},
		{"fenced", status(kvs.StatusFenced), 10, 0, 10, 0},
		{"unavailable", status(kvs.StatusUnavailable), 10, 0, 0, 10},
		{"garbled: an unknown status", status(kvs.StatusFenced + 1), 10, 0, 0, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f := newFakeKV(eng, sim.Microsecond)
			f.script = func(kvs.Request) (kvs.Response, bool) { return tc.resp, true }
			st := Run(eng, f, Spec{Workers: 1, PerWorker: 10, Keys: keys(1), Pick: Sequential})
			if st.Completed != 10 || st.Errors() != tc.errors || st.Served() != tc.served ||
				st.Fenced() != tc.fenced || st.Ambiguous() != tc.ambig {
				t.Errorf("completed %d errors %d served %d fenced %d ambiguous %d",
					st.Completed, st.Errors(), st.Served(), st.Fenced(), st.Ambiguous())
			}
		})
	}
}

// A Mixed load draws each op's kind after its key: about GetShare of
// the ops are gets, and the puts carry ValueSize bytes.
func TestMixedGetShare(t *testing.T) {
	eng := sim.NewEngine()
	f := newFakeKV(eng, sim.Microsecond)
	st := Run(eng, f, Spec{
		Workers: 4, PerWorker: 250, Keys: keys(8), Rand: sim.NewRand(5),
		Ops: Mixed, GetShare: 0.5, ValueSize: 32,
	})
	if st.Gets+st.Puts != 1000 || st.Gets < 450 || st.Gets > 550 {
		t.Errorf("gets=%d puts=%d, want about half of 1000 gets", st.Gets, st.Puts)
	}
	for _, r := range f.requests {
		if r.Op == kvs.OpPut && len(r.Value) != 32 {
			t.Fatalf("put carries %d bytes, want 32", len(r.Value))
		}
	}
}

func TestOpenLoopOfferedRate(t *testing.T) {
	eng := sim.NewEngine()
	st := Run(eng, newFakeKV(eng, 5*sim.Microsecond), Spec{
		Rate: 100000, Window: 50 * sim.Millisecond, Keys: keys(4), Rand: sim.NewRand(7),
	})
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
	f := newFakeKV(eng, 20*sim.Microsecond)
	f.serialize = true
	st := Run(eng, f, Spec{Rate: 100000, Window: 20 * sim.Millisecond, Keys: keys(4), Rand: sim.NewRand(7)})
	if st.Latency.P99() < 500*sim.Microsecond {
		t.Errorf("p99 = %v under 2x overload; queueing model broken", st.Latency.P99())
	}
	// Throughput pinned at capacity.
	if tput := st.Throughput(); tput > 60e3 {
		t.Errorf("throughput %.0f exceeds server capacity", tput)
	}
}

// Each request carries its absolute deadline, and a reply served by it
// counts InTime: all of them when the round trip fits, none when the
// deadline is below the service time.
func TestOpenLoopDeadline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		deadline sim.Duration
		allLate  bool
	}{
		// 50us service + 2us wire each way fits a 100us deadline.
		{"in time", 100 * sim.Microsecond, false},
		{"late", 10 * sim.Microsecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f := newFakeKV(eng, 50*sim.Microsecond)
			st := Run(eng, f, Spec{
				Rate: 100000, Window: sim.Millisecond, Deadline: tc.deadline, Keys: keys(4), Rand: sim.NewRand(3),
			})
			if st.Sent == 0 || st.Completed != st.Sent || st.Served() != st.Sent {
				t.Fatalf("sent %d completed %d served %d: every request must resolve served", st.Sent, st.Completed, st.Served())
			}
			if want := map[bool]uint64{false: st.Sent, true: 0}[tc.allLate]; st.InTime != want {
				t.Errorf("in time = %d of %d, want %d", st.InTime, st.Sent, want)
			}
			for i, r := range f.requests {
				// A request reaches the target one wire latency after it was sent.
				if sent := f.arrivals[i].Add(-WireLatency); r.Deadline != uint64(sent.Add(tc.deadline)) {
					t.Fatalf("request %d stamped deadline %d, want %d", i, r.Deadline, sent.Add(tc.deadline))
				}
			}
		})
	}
}

// The same Spec draws the same arrivals and keys: a run is a function of
// its seed, with or without a deadline.
func TestOpenLoopDeterminism(t *testing.T) {
	for _, deadline := range []sim.Duration{0, sim.Millisecond} {
		run := func() (Stats, sim.Duration, []kvs.Request) {
			eng := sim.NewEngine()
			f := newFakeKV(eng, 10*sim.Microsecond)
			f.serialize = true
			st := Run(eng, f, Spec{
				Rate: 50000, Window: 10 * sim.Millisecond, Deadline: deadline, Keys: keys(8), Rand: sim.NewRand(42),
			})
			p99 := st.Latency.P99()
			st.Latency = nil
			return st, p99, f.requests
		}
		s1, p1, r1 := run()
		s2, p2, r2 := run()
		if s1 != s2 || p1 != p2 || !reflect.DeepEqual(r1, r2) {
			t.Errorf("deadline %v: non-deterministic: %+v p99 %v vs %+v p99 %v", deadline, s1, p1, s2, p2)
		}
	}
}

func TestStatsThroughputZeroSpan(t *testing.T) {
	var s Stats
	if s.Throughput() != 0 {
		t.Error("zero-span throughput not 0")
	}
}

// ackLog records the issue time of every acknowledged put.
type ackLog []sim.Time

func (a *ackLog) Acked(issued sim.Time) { *a = append(*a, issued) }

// A timed op resolves exactly once — by its reply or by its timeout —
// and its worker moves on: after a timeout at once, after a refusal one
// Backoff later. The first reply counts even when it lands after the
// timeout, but starts no second follow-up op.
func TestTimedOps(t *testing.T) {
	for _, tc := range []struct {
		name      string
		workers   int
		window    sim.Duration
		timeout   sim.Duration
		delay     sim.Duration
		answer    kvs.Status
		swallow   bool
		puts      uint64
		timeouts  uint64
		acks      uint64
		refusals  bool // every op refused, each followed by one Backoff
		lateIssue bool // acks carry their op's issue time, one per timeout
	}{
		// Each worker issues at t=0,1,2,3,4ms; at 5ms it sees Stop.
		{name: "timeout", workers: 2, window: 5 * sim.Millisecond, timeout: sim.Millisecond,
			swallow: true, puts: 10, timeouts: 10},
		// One op per timeout, issued at t=0..9ms; a late ack that issued a
		// follow-up would show up as extra puts.
		{name: "late ack", workers: 1, window: 10 * sim.Millisecond, timeout: sim.Millisecond,
			delay: 1500 * sim.Microsecond, puts: 10, timeouts: 10, acks: 10, lateIssue: true},
		{name: "backoff inline", workers: 1, window: sim.Millisecond, timeout: 10 * sim.Millisecond,
			answer: kvs.StatusUnavailable, refusals: true},
		{name: "backoff delayed", workers: 1, window: sim.Millisecond, timeout: 10 * sim.Millisecond,
			delay: 30 * sim.Microsecond, answer: kvs.StatusUnavailable, refusals: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f := newFakeKV(eng, tc.delay)
			f.script = func(req kvs.Request) (kvs.Response, bool) {
				if tc.swallow || tc.answer != kvs.StatusOK {
					return kvs.Response{Status: tc.answer}, !tc.swallow
				}
				return f.serve(req)
			}
			var acked ackLog
			led := chaos.NewLedger()
			c := Start(eng, f, Spec{
				Workers: tc.workers, Stop: eng.Now().Add(tc.window), Timeout: tc.timeout,
				Keys: keys(tc.workers), Pick: Owned, KeysPer: 1, Ops: Versions, Ledger: led, Acks: &acked,
			})
			c.Wait()
			eng.RunFor(2 * sim.Millisecond) // deliver the last late replies
			st := c.Stats()
			if !c.Done() {
				t.Fatal("workers still running after Wait")
			}
			if tc.refusals {
				if len(f.arrivals) < 3 {
					t.Fatalf("only %d ops issued", len(f.arrivals))
				}
				for i := 1; i < len(f.arrivals); i++ {
					if gap := f.arrivals[i].Sub(f.arrivals[i-1]); gap != tc.delay+Backoff {
						t.Errorf("op %d followed its predecessor by %v, want %v", i, gap, tc.delay+Backoff)
					}
				}
				if st.Refused != st.Puts || st.Timeouts != 0 || st.Ambiguous() != st.Puts {
					t.Errorf("puts=%d refused=%d timeouts=%d ambiguous=%d, want every op refused",
						st.Puts, st.Refused, st.Timeouts, st.Ambiguous())
				}
				return
			}
			if st.Puts != tc.puts || st.Timeouts != tc.timeouts || st.Refused != 0 {
				t.Errorf("puts=%d timeouts=%d refused=%d, want %d/%d/0", st.Puts, st.Timeouts, st.Refused, tc.puts, tc.timeouts)
			}
			if rep := led.Report(); rep.Attempts != tc.puts || rep.Acks != tc.acks {
				t.Errorf("ledger saw %d attempts, %d acks, want %d/%d", rep.Attempts, rep.Acks, tc.puts, tc.acks)
			}
			if uint64(len(acked)) != tc.acks || tc.lateIssue && acked[3] != sim.Time(3*sim.Millisecond) {
				t.Errorf("Acks saw issue times %v, want %d", acked, tc.acks)
			}
		})
	}
}

// The sweep: a key that never gets a definitive answer is unroutable
// (R3) and fails Clean; a malformed OK value is a never-issued read
// (G2), not a retry; healthy keys are read once each.
func TestReadback(t *testing.T) {
	sweeping := false
	eng := sim.NewEngine()
	f := newFakeKV(eng, 20*sim.Microsecond)
	pool := keys(4)
	f.script = func(req kvs.Request) (kvs.Response, bool) {
		switch {
		case sweeping && req.Key == pool[1]:
			return kvs.Response{Status: kvs.StatusUnavailable}, true
		case sweeping && req.Key == pool[2]:
			return kvs.Response{}, false
		case sweeping && req.Key == pool[3]:
			return kvs.Response{Status: kvs.StatusOK, Value: []byte{1, 2, 3}}, true
		}
		return f.serve(req)
	}
	led := chaos.NewLedger()
	c := Start(eng, f, Spec{
		Workers: 4, Stop: eng.Now().Add(sim.Millisecond), Timeout: 10 * sim.Millisecond,
		Keys: pool, Pick: Owned, KeysPer: 1, Ops: Versions, Ledger: led,
	})
	c.Wait()
	if rep := led.Report(); rep.Acks == 0 || rep.Acks != rep.Attempts {
		t.Fatalf("healthy workload: %d/%d acked", rep.Acks, rep.Attempts)
	}
	sweeping = true
	c.Readback()
	rep := led.Report()
	if want := []string{pool[1], pool[2]}; !reflect.DeepEqual(rep.Unroutable, want) {
		t.Errorf("Unroutable = %v, want %v", rep.Unroutable, want)
	}
	if rep.G2Dups != 1 || rep.G1Lost != 0 {
		t.Errorf("G1=%d G2=%d, want only the malformed value flagged (0/1): %v", rep.G1Lost, rep.G2Dups, rep.Violations)
	}
	if rep.Reads != 2 {
		t.Errorf("ledger judged %d reads, want 2 (the healthy key and the malformed one)", rep.Reads)
	}
	if rep.Clean(0) {
		t.Error("Clean() true despite unroutable keys")
	}
}

// An Alternate load walks a shared pool, alternating versioned puts with
// gets, and records every op in the History: an honest store's history
// is linearizable, and a get whose value is no version is garbled: it
// counts as an error.
func TestAlternateRecordsHistory(t *testing.T) {
	eng := sim.NewEngine()
	f := newFakeKV(eng, 5*sim.Microsecond)
	hist := linearize.NewHistory()
	st := Run(eng, f, Spec{
		Workers: 2, Stop: eng.Now().Add(sim.Millisecond), Timeout: sim.Millisecond,
		Keys: keys(3), Pick: Walk, KeysPer: 1, Ops: Alternate, Ledger: chaos.NewLedger(), History: hist,
	})
	if res := linearize.Check(hist); !res.OK || st.Puts == 0 || st.Gets == 0 || st.Ambiguous() != 0 {
		t.Fatalf("history linearizable=%v puts=%d gets=%d ambiguous=%d", res.OK, st.Puts, st.Gets, st.Ambiguous())
	}
	// Worker 0 opens with a put of key a, worker 1 with a get of key b,
	// and each steps one key along the pool per op.
	for i, want := range []kvs.Request{{Op: kvs.OpPut, Key: "a"}, {Op: kvs.OpGet, Key: "b"}, {Op: kvs.OpGet, Key: "b"}, {Op: kvs.OpPut, Key: "c"}} {
		if got := f.requests[i]; got.Op != want.Op || got.Key != want.Key {
			t.Errorf("op %d = %v %s, want %v %s", i, got.Op, got.Key, want.Op, want.Key)
		}
	}
	f.script = func(req kvs.Request) (kvs.Response, bool) {
		if req.Op == kvs.OpGet {
			return kvs.Response{Status: kvs.StatusOK, Value: []byte{1, 2, 3}}, true
		}
		return kvs.Response{Status: kvs.StatusOK}, true
	}
	st = Run(eng, f, Spec{
		Workers: 2, Stop: eng.Now().Add(100 * sim.Microsecond), Timeout: sim.Millisecond,
		Keys: keys(1), Pick: Walk, KeysPer: 1, Ops: Alternate, History: linearize.NewHistory(),
	})
	if st.Status[kvs.StatusError] != st.Gets || st.Gets == 0 {
		t.Errorf("%d of %d gets of a malformed value read as garbled", st.Status[kvs.StatusError], st.Gets)
	}
}

// A real store, built through core: a closed loop of gets over
// preloaded keys completes every op without an error.
func TestWorkloadThroughputClosedLoop(t *testing.T) {
	sys, edge := kvsMachine(t)
	pool := make([]string, 50)
	for i := range pool {
		pool[i] = "k" + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	Run(sys.Eng, edge, Spec{Workers: 1, PerWorker: 50, Keys: pool, Pick: Sequential, Ops: Puts, ValueSize: 128})
	st := Run(sys.Eng, edge, Spec{Workers: 8, PerWorker: 100, Keys: pool, Rand: sim.NewRand(1)})
	if st.Completed != 800 {
		t.Fatalf("completed %d of 800", st.Completed)
	}
	if st.Errors() != 0 {
		t.Fatalf("errors: %d", st.Errors())
	}
	if st.Throughput() < 1000 {
		t.Errorf("throughput %.0f ops/s suspiciously low", st.Throughput())
	}
	if st.Latency.P50() <= 0 {
		t.Error("no latency recorded")
	}
}

// An open loop well under a real store's capacity completes everything
// it sent.
func TestWorkloadOpenLoop(t *testing.T) {
	sys, edge := kvsMachine(t)
	Run(sys.Eng, edge, Spec{Workers: 1, PerWorker: 1, Keys: []string{"hot"}, Pick: Sequential, Ops: Puts, ValueSize: 1})
	st := Run(sys.Eng, edge, Spec{
		Rate: 20000, Window: 20 * sim.Millisecond, Keys: []string{"hot"}, Rand: sim.NewRand(2),
	})
	if st.Completed != st.Sent || st.Sent < 300 || st.Errors() != 0 {
		t.Fatalf("open loop: sent=%d done=%d errors=%d", st.Sent, st.Completed, st.Errors())
	}
}

// kvsMachine boots a decentralized machine with a ready KVS app 1 and
// returns its NIC edge.
func kvsMachine(t *testing.T) (*core.System, Edge) {
	t.Helper()
	sys, err := core.New(core.Options{Seed: 1, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CreateFile("kv.dat", nil); err != nil {
		t.Fatal(err)
	}
	store := sys.NewKVS(core.KVSOptions{App: 1, File: "kv.dat"})
	if err := sys.WaitReady(store); err != nil {
		t.Fatal(err)
	}
	return sys, Edge{NIC: sys.NIC(), App: store.AppID()}
}
