package exp

import (
	"reflect"
	"testing"

	"nocpu/internal/chaos"
	"nocpu/internal/kvs"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// fakeKV is an in-memory target for the campaign client. A test's
// script decides per request what to answer (serve is the honest store)
// or, returning false, swallows the request.
type fakeKV struct {
	eng      *sim.Engine
	data     map[string][]byte
	delay    sim.Duration // reply latency; 0 replies inside the send call
	script   func(kvs.Request) (kvs.Response, bool)
	arrivals []sim.Time
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

func (f *fakeKV) target() netsim.Target {
	return func(p []byte, reply func([]byte)) {
		req, err := kvs.DecodeRequest(p)
		if err != nil {
			panic(err)
		}
		f.arrivals = append(f.arrivals, f.eng.Now())
		resp, answer := f.script(req)
		if !answer {
			return
		}
		if f.delay == 0 {
			reply(kvs.EncodeResponse(resp))
			return
		}
		f.eng.Schedule(f.delay, func() { reply(kvs.EncodeResponse(resp)) })
	}
}

func newFakeClient(f *fakeKV, workers int, window, timeout, backoff sim.Duration) *campaignClient {
	f.eng, f.data = sim.NewEngine(), make(map[string][]byte)
	if f.script == nil {
		f.script = f.serve
	}
	return &campaignClient{
		eng: f.eng, send: f.target(), led: chaos.NewLedger(),
		workers: workers, timeout: timeout, backoff: backoff,
		stopAt: f.eng.Now().Add(window),
		key:    func(w, i int) string { return keyName(w) },
	}
}

// An op that never answers times out, the worker moves on, and the
// workload drains.
func TestCampaignClientTimeout(t *testing.T) {
	f := &fakeKV{script: func(kvs.Request) (kvs.Response, bool) { return kvs.Response{}, false }}
	c := newFakeClient(f, 2, 5*sim.Millisecond, sim.Millisecond, 200*sim.Microsecond)
	c.start()
	c.wait()
	if c.running != 0 {
		t.Fatalf("%d workers still running after wait", c.running)
	}
	// Each worker issues at t=0,1,2,3,4ms; at 5ms it sees stopAt.
	if c.puts != 10 || c.tmouts != 10 || c.errs != 0 {
		t.Errorf("puts=%d timeouts=%d errs=%d, want 10/10/0", c.puts, c.tmouts, c.errs)
	}
	if rep := c.led.Report(); rep.Attempts != 10 || rep.Acks != 0 {
		t.Errorf("ledger saw %d attempts, %d acks, want 10/0", rep.Attempts, rep.Acks)
	}
}

// An OK that lands after the client-side timeout still counts as an ack
// (the client was told the write succeeded), but the op was already
// resolved: it must not start a second follow-up op.
func TestCampaignClientLateAck(t *testing.T) {
	f := &fakeKV{delay: 1500 * sim.Microsecond}
	c := newFakeClient(f, 1, 10*sim.Millisecond, sim.Millisecond, 200*sim.Microsecond)
	var acked []sim.Time
	c.onAck = func(issued sim.Time) { acked = append(acked, issued) }
	c.start()
	c.wait()
	f.eng.RunFor(2 * sim.Millisecond) // deliver the last late replies
	// One op per timeout, issued at t=0..9ms; a late ack that issued a
	// follow-up would show up as extra puts.
	if c.puts != 10 || c.tmouts != 10 {
		t.Errorf("puts=%d timeouts=%d, want 10/10", c.puts, c.tmouts)
	}
	if rep := c.led.Report(); rep.Acks != 10 {
		t.Errorf("ledger acks = %d, want every late OK counted (10)", rep.Acks)
	}
	if len(acked) != 10 || acked[3] != sim.Time(3*sim.Millisecond) {
		t.Errorf("onAck saw issue times %v, want one per op at 0..9ms", acked)
	}
}

// A refusal is followed by exactly one backoff before the next op,
// including when the target answers inside the send call.
func TestCampaignClientBackoff(t *testing.T) {
	for _, delay := range []sim.Duration{0, 30 * sim.Microsecond} {
		f := &fakeKV{delay: delay, script: func(kvs.Request) (kvs.Response, bool) {
			return kvs.Response{Status: kvs.StatusUnavailable}, true
		}}
		const backoff = 200 * sim.Microsecond
		c := newFakeClient(f, 1, sim.Millisecond, 10*sim.Millisecond, backoff)
		c.start()
		c.wait()
		if len(f.arrivals) < 3 {
			t.Fatalf("delay %v: only %d ops issued", delay, len(f.arrivals))
		}
		for i := 1; i < len(f.arrivals); i++ {
			if gap := f.arrivals[i].Sub(f.arrivals[i-1]); gap != delay+backoff {
				t.Errorf("delay %v: op %d followed its predecessor by %v, want %v", delay, i, gap, delay+backoff)
			}
		}
		if c.errs != c.puts || c.tmouts != 0 || c.maybes != c.puts {
			t.Errorf("delay %v: puts=%d errs=%d timeouts=%d maybes=%d, want every op refused",
				delay, c.puts, c.errs, c.tmouts, c.maybes)
		}
	}
}

// The sweep: a key that never gets a definitive answer is unroutable
// (R3) and fails Clean; a malformed OK value is a never-issued read
// (G2), not a retry; healthy keys are read once each.
func TestCampaignClientReadback(t *testing.T) {
	sweeping := false
	f := &fakeKV{delay: 20 * sim.Microsecond}
	f.script = func(req kvs.Request) (kvs.Response, bool) {
		switch {
		case sweeping && req.Key == keyName(1):
			return kvs.Response{Status: kvs.StatusUnavailable}, true
		case sweeping && req.Key == keyName(2):
			return kvs.Response{}, false
		case sweeping && req.Key == keyName(3):
			return kvs.Response{Status: kvs.StatusOK, Value: []byte{1, 2, 3}}, true
		}
		return f.serve(req)
	}
	c := newFakeClient(f, 4, sim.Millisecond, 10*sim.Millisecond, 200*sim.Microsecond)
	c.start()
	c.wait()
	if rep := c.led.Report(); rep.Acks == 0 || rep.Acks != rep.Attempts {
		t.Fatalf("healthy workload: %d/%d acked", rep.Acks, rep.Attempts)
	}
	sweeping = true
	c.readback()
	rep := c.led.Report()
	if want := []string{keyName(1), keyName(2)}; !reflect.DeepEqual(rep.Unroutable, want) {
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
