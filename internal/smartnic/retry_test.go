package smartnic

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartssd"
)

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{Timeout: 3 * sim.Millisecond, MaxTimeout: 24 * sim.Millisecond, MaxRetries: 5}
	want := []sim.Duration{3, 6, 12, 24, 24, 24}
	for i, w := range want {
		if got := p.timeoutFor(i); got != w*sim.Millisecond {
			t.Errorf("timeoutFor(%d) = %v, want %v", i, got, w*sim.Millisecond)
		}
	}
	alt := p.withBase(sim.Millisecond)
	if got := alt.timeoutFor(0); got != sim.Millisecond {
		t.Errorf("withBase timeoutFor(0) = %v", got)
	}
	if alt.MaxRetries != p.MaxRetries {
		t.Errorf("withBase changed MaxRetries")
	}
}

// alloc issues one AllocShared and advances until its callback fires.
func (m *machine) alloc(t *testing.T, rt *Runtime, bytes uint64) (uint64, error) {
	t.Helper()
	var va uint64
	var rerr error
	done := false
	rt.AllocShared(mcID, bytes, func(v uint64, err error) { va, rerr, done = v, err, true })
	deadline := m.eng.Now().Add(sim.Second)
	for !done && m.eng.Now() < deadline {
		m.eng.RunFor(100 * sim.Microsecond)
	}
	if !done {
		t.Fatal("alloc callback never fired (retry layer hung)")
	}
	return va, rerr
}

// bootApp loads a test app and returns its runtime.
func (m *machine) bootApp(t *testing.T, id msg.AppID) *Runtime {
	t.Helper()
	var rt *Runtime
	app := &testApp{id: id, onBoot: func(r *Runtime) { rt = r }}
	m.nic.AddApp(app)
	m.run()
	if rt == nil {
		t.Fatal("app did not boot")
	}
	return rt
}

// TestRetryThroughMessageLoss drops the first AllocReq on the bus; the
// request must still succeed via the timeout retransmission, invisibly to
// the caller except for added latency.
func TestRetryThroughMessageLoss(t *testing.T) {
	m := newMachine(t)
	plane := faultinject.New(1)
	m.bus.SetFaultPlane(plane)
	rt := m.bootApp(t, 1)

	plane.Add(faultinject.Rule{
		Layer: faultinject.LayerBus, Kind: msg.KindAllocReq, Op: faultinject.Drop, Count: 1,
	})
	va, err := m.alloc(t, rt, 64<<10)
	if err != nil {
		t.Fatalf("alloc failed despite retry layer: %v", err)
	}
	if va == 0 {
		t.Fatal("zero VA")
	}
	st := m.nic.RetryStats()
	if st.Retries == 0 {
		t.Error("no retry recorded for a dropped request")
	}
	if st.Exhausted != 0 {
		t.Errorf("exhausted = %d, want 0", st.Exhausted)
	}
	if got := plane.Stats().Dropped; got != 1 {
		t.Errorf("plane dropped %d messages, want 1", got)
	}
}

// TestRetryDroppedResponseIsIdempotent drops the first AllocResp instead:
// the controller has already allocated, so the retransmitted request must
// be answered by idempotent replay — same VA, no double allocation.
func TestRetryDroppedResponseIsIdempotent(t *testing.T) {
	m := newMachine(t)
	plane := faultinject.New(2)
	m.bus.SetFaultPlane(plane)
	rt := m.bootApp(t, 1)

	plane.Add(faultinject.Rule{
		Layer: faultinject.LayerBus, Kind: msg.KindAllocResp, Op: faultinject.Drop, Count: 1,
	})
	va, err := m.alloc(t, rt, 64<<10)
	if err != nil {
		t.Fatalf("alloc failed: %v", err)
	}
	// A second, genuine allocation must get a fresh region (the replay
	// cache must not leak into new requests).
	va2, err := m.alloc(t, rt, 64<<10)
	if err != nil {
		t.Fatalf("second alloc failed: %v", err)
	}
	if va2 == va {
		t.Errorf("second alloc returned the same VA %#x (replayed stale response)", va)
	}
	if st := m.mc.Stats(); st.Allocs != 2 {
		t.Errorf("controller performed %d allocs, want 2 (dup request must replay, not re-allocate)", st.Allocs)
	}
}

// TestRetryBudgetExhaustionTyped blackholes every AllocReq: the caller
// must get a typed TimeoutError after MaxRetries+1 attempts, within the
// deterministic backoff bound, and never hang.
func TestRetryBudgetExhaustionTyped(t *testing.T) {
	m := newMachine(t)
	plane := faultinject.New(3)
	m.bus.SetFaultPlane(plane)
	rt := m.bootApp(t, 1)

	plane.Add(faultinject.Rule{
		Layer: faultinject.LayerBus, Kind: msg.KindAllocReq, Op: faultinject.Drop,
	})
	start := m.eng.Now()
	_, err := m.alloc(t, rt, 64<<10)
	if err == nil {
		t.Fatal("alloc succeeded with every request dropped")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %T %q is not a TimeoutError", err, err)
	}
	if te.Attempts != rt.Retry.MaxRetries+1 {
		t.Errorf("attempts = %d, want %d", te.Attempts, rt.Retry.MaxRetries+1)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error text %q missing 'timed out'", err)
	}
	// Bound: sum of the capped exponential schedule, plus scheduling slop.
	var bound sim.Duration
	for i := 0; i <= rt.Retry.MaxRetries; i++ {
		bound += rt.Retry.timeoutFor(i)
	}
	if elapsed := m.eng.Now().Sub(start); elapsed > bound+sim.Millisecond {
		t.Errorf("failure took %v, beyond backoff bound %v", elapsed, bound)
	}
	if st := m.nic.RetryStats(); st.Exhausted != 1 {
		t.Errorf("exhausted = %d, want 1", st.Exhausted)
	}
}

// TestNackFastRetry sends an alloc to a device ID that does not exist:
// the bus NACKs (unknown destination) instead of silently dropping, and
// the retrier's NACK fast path resends ahead of the full timeout,
// ultimately failing typed with the NACK reason attached — and much
// sooner than blind timeouts would.
func TestNackFastRetry(t *testing.T) {
	m := newMachine(t)
	rt := m.bootApp(t, 1)

	start := m.eng.Now()
	_, oerr := func() (uint64, error) {
		var va uint64
		var rerr error
		done := false
		rt.AllocShared(msg.DeviceID(99), 64<<10, func(v uint64, err error) { va, rerr, done = v, err, true })
		deadline := m.eng.Now().Add(sim.Second)
		for !done && m.eng.Now() < deadline {
			m.eng.RunFor(100 * sim.Microsecond)
		}
		if !done {
			t.Fatal("alloc callback never fired")
		}
		return va, rerr
	}()
	if oerr == nil {
		t.Fatal("alloc to nonexistent device succeeded")
	}
	var te *TimeoutError
	if !errors.As(oerr, &te) {
		t.Fatalf("error %T %q is not a TimeoutError", oerr, oerr)
	}
	if te.LastNack == "" || !strings.Contains(oerr.Error(), "nack") {
		t.Errorf("error %q does not carry the NACK reason", oerr)
	}
	st := m.nic.RetryStats()
	if st.NackFast == 0 {
		t.Error("NACK fast-path retries not recorded")
	}
	if st.NackFast != st.Retries {
		t.Errorf("retries = %d, nack-fast = %d: unknown-destination retries should all be NACK-driven", st.Retries, st.NackFast)
	}
	// NACK-driven failure must beat the blind-timeout schedule.
	var blind sim.Duration
	for i := 0; i <= rt.Retry.MaxRetries; i++ {
		blind += rt.Retry.timeoutFor(i)
	}
	if elapsed := m.eng.Now().Sub(start); elapsed >= blind {
		t.Errorf("NACK path took %v, not faster than blind timeouts (%v)", elapsed, blind)
	}
}

// The tests below pin what every control request gets from the one call
// mechanism: each was a property of fifteen hand-written copies before.

// TestFirstResponseWins: two providers answer one discovery, and a
// delayed AllocResp arrives after the retransmission was already
// answered. The continuation runs once; the later answer finds nothing
// pending and is dropped.
func TestFirstResponseWins(t *testing.T) {
	m := newMachineWithSSD(t, smartssd.Config{}) // a second volume: both answer "file+create:"
	rt := m.bootApp(t, 1)
	answers := 0
	rt.Discover("file+create:x.dat", func(provider msg.DeviceID, _ string, err error) {
		if err != nil || provider == 0 {
			t.Errorf("discover = dev%d, %v", provider, err)
		}
		answers++
	})
	m.eng.Run()
	if answers != 1 {
		t.Fatalf("discovery continuation ran %d times for two responders, want 1", answers)
	}

	plane := faultinject.New(4)
	m.bus.SetFaultPlane(plane)
	plane.Add(faultinject.Rule{
		Layer: faultinject.LayerBus, Kind: msg.KindAllocResp, Op: faultinject.Delay,
		Delay: 2 * rt.Retry.Timeout, Count: 1,
	})
	allocs := 0
	rt.AllocShared(mcID, 64<<10, func(va uint64, err error) {
		if err != nil || va == 0 {
			t.Errorf("alloc = %#x, %v", va, err)
		}
		allocs++
	})
	m.eng.Run() // past the delayed original's arrival
	if allocs != 1 {
		t.Fatalf("alloc continuation ran %d times (replayed answer plus delayed original), want 1", allocs)
	}
	if st := m.nic.RetryStats(); st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
	if len(m.nic.pending) != 0 || len(m.nic.inflight) != 0 {
		t.Errorf("tables not empty: %d pending, %d inflight", len(m.nic.pending), len(m.nic.inflight))
	}
}

// TestResponseAfterBudgetIsDropped delays every AllocResp past the whole
// retry budget: the caller gets one typed failure with the full attempt
// count, and the answers that straggle in afterwards reach nobody.
func TestResponseAfterBudgetIsDropped(t *testing.T) {
	m := newMachine(t)
	plane := faultinject.New(5)
	m.bus.SetFaultPlane(plane)
	rt := m.bootApp(t, 1)
	rt.Retry = RetryPolicy{Timeout: sim.Millisecond, MaxRetries: 2}
	plane.Add(faultinject.Rule{
		Layer: faultinject.LayerBus, Kind: msg.KindAllocResp, Op: faultinject.Delay, Delay: 20 * sim.Millisecond,
	})
	var errs []error
	rt.AllocShared(mcID, 64<<10, func(va uint64, err error) { errs = append(errs, err) })
	m.eng.Run()
	if len(errs) != 1 {
		t.Fatalf("continuation ran %d times, want 1", len(errs))
	}
	var te *TimeoutError
	if !errors.As(errs[0], &te) || te.Attempts != rt.Retry.MaxRetries+1 {
		t.Fatalf("err = %v, want a TimeoutError after %d attempts", errs[0], rt.Retry.MaxRetries+1)
	}
	if te.Op != "alloc of 65536 bytes" || te.Dst != mcID {
		t.Errorf("failure names %q to %v", te.Op, te.Dst)
	}
	if got := plane.Stats().Delayed; got != 3 {
		t.Errorf("%d responses were delayed, want all 3 to have arrived late", got)
	}
}

// TestResetAbortsCalls crashes the NIC with one call waiting out its
// response timeout and one waiting out a post-NACK delay. Neither timer
// survives, neither continuation ever runs, and the only thing that left
// the event queue is those two timers.
func TestResetAbortsCalls(t *testing.T) {
	m := newMachine(t)
	plane := faultinject.New(6)
	m.bus.SetFaultPlane(plane)
	rt := m.bootApp(t, 1)
	plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Kind: msg.KindAllocReq, Dst: mcID, Op: faultinject.Drop})
	idle := m.eng.Pending()

	ran := 0
	rt.AllocShared(mcID, 64<<10, func(uint64, error) { ran++ })             // request lost: timeout pending
	rt.AllocShared(msg.DeviceID(99), 64<<10, func(uint64, error) { ran++ }) // NACKed: delay pending
	m.eng.RunFor(100 * sim.Microsecond)
	if st := m.nic.RetryStats(); st.NackFast != 1 {
		t.Fatalf("nack-fast = %d, want the second call in its post-NACK delay", st.NackFast)
	}
	if got := m.eng.Pending(); got != idle+2 {
		t.Fatalf("%d events queued, want the two call timers over %d", got, idle)
	}
	m.nic.onReset()
	if got := m.eng.Pending(); got != idle {
		t.Errorf("%d events queued after reset, want %d: only the stopped timers may leave", got, idle)
	}
	if len(m.nic.pending) != 0 || len(m.nic.inflight) != 0 {
		t.Errorf("tables not empty: %d pending, %d inflight", len(m.nic.pending), len(m.nic.inflight))
	}
	before := m.nic.RetryStats()
	m.eng.RunFor(sim.Second)
	if ran != 0 {
		t.Errorf("%d continuations of the dead incarnation ran", ran)
	}
	if after := m.nic.RetryStats(); after != before {
		t.Errorf("retry stats moved after reset: %+v -> %+v", before, after)
	}
}

// TestKeyTakeover issues a second call on a key that is still pending.
// The response belongs to the second; the first runs out its budget, and
// its failure must not unregister the second.
func TestKeyTakeover(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", []byte("x"))
	plane := faultinject.New(7)
	m.bus.SetFaultPlane(plane)
	m.bootApp(t, 1)
	// The answer is slower than the first call's whole NACK-driven failure.
	plane.Add(faultinject.Rule{
		Layer: faultinject.LayerBus, Kind: msg.KindOpenResp, Op: faultinject.Delay, Delay: 2 * sim.Millisecond, Count: 1,
	})
	pol := RetryPolicy{Timeout: 400 * sim.Microsecond, MaxRetries: 2}
	req := &msg.OpenReq{Service: "file:kv.dat", App: 1}
	key := keyOf(msg.Envelope{Msg: &msg.OpenResp{Service: req.Service, App: req.App}})

	var firstErr error
	var second *msg.OpenResp
	m.nic.call(pol, msg.DeviceID(99), req, key, rawAnswer(func(_ msg.DeviceID, _ msg.Message, err error) { firstErr = err }))
	m.nic.call(DefaultRetryPolicy, ssdID, req, key, rawAnswer(func(_ msg.DeviceID, resp msg.Message, err error) {
		if err != nil {
			t.Errorf("second call: %v", err)
			return
		}
		second = resp.(*msg.OpenResp)
	}))
	m.eng.RunFor(sim.Millisecond)
	var te *TimeoutError
	if !errors.As(firstErr, &te) || te.LastNack == "" {
		t.Fatalf("first call: %v, want it NACKed to exhaustion by now", firstErr)
	}
	if m.nic.pending[key] == nil {
		t.Fatal("the first call's failure unregistered the second call")
	}
	m.eng.Run()
	if second == nil || !second.OK {
		t.Fatalf("second call's response = %+v", second)
	}
}

// answered is what a typed continuation was given, and how often.
type answered struct {
	va       uint64
	provider msg.DeviceID
	service  string
	err      error
	runs     int
}

// TestTypedAnswers feeds each typed continuation a provider's refusal and
// then a spent retry budget. A refusal reads as it did when each request
// wrapped its caller's callback in a closure of its own; a timeout gives
// the callback its *TimeoutError with zero values beside it (va 0,
// provider 0, an empty service).
func TestTypedAnswers(t *testing.T) {
	m := newMachine(t)
	plane := faultinject.New(7)
	m.bus.SetFaultPlane(plane)
	rt := m.bootApp(t, 1)
	const gone = msg.DeviceID(99) // no such device: the bus NACKs, nobody answers
	errTo := func(a *answered) func(error) { return func(err error) { a.err = err; a.runs++ } }
	cases := []struct {
		name  string
		issue func(a *answered)
		// refusal is the !OK answer fed to the pending call; nil for a
		// request no provider refuses.
		refusal msg.Envelope
		want    string
	}{
		{"discover", func(a *answered) {
			rt.Discover("nosuch:service", func(p msg.DeviceID, svc string, err error) {
				a.provider, a.service, a.err = p, svc, err
				a.runs++
			})
		}, msg.Envelope{}, ""},
		{"alloc", func(a *answered) {
			rt.alloc(gone, 0x4000_0000, 4096, false, func(va uint64, err error) { a.va, a.err = va, err; a.runs++ })
		}, msg.Envelope{Src: gone, Msg: &msg.AllocResp{App: 1, VA: 0x4000_0000, Reason: "quota exceeded"}},
			"smartnic: alloc failed: quota exceeded"},
		{"free", func(a *answered) { rt.Free(gone, 0x5000_0000, 4096, errTo(a)) },
			msg.Envelope{Src: gone, Msg: &msg.FreeResp{App: 1, VA: 0x5000_0000, Reason: "no such region"}},
			"smartnic: free failed: no such region"},
		{"grant", func(a *answered) { rt.Grant(0x6000_0000, 4096, ssdID, errTo(a)) },
			msg.Envelope{Src: msg.BusID, Msg: &msg.GrantResp{App: 1, VA: 0x6000_0000, Target: ssdID, Reason: "not the owner"}},
			"smartnic: grant to dev2 denied: not the owner"},
		{"load", func(a *answered) { rt.Load(gone, "img", 7, []byte{1}, errTo(a)) },
			msg.Envelope{Src: gone, Msg: &msg.LoadResp{Image: "img", Reason: "bad token"}},
			`smartnic: load of "img" refused: bad token`},
		{"close", func(a *answered) { rt.closeAt(gone, &msg.CloseReq{ConnID: 4}, errTo(a)) },
			msg.Envelope{Src: gone, Msg: &msg.CloseResp{ConnID: 4}},
			"smartnic: close refused"},
	}
	for _, tc := range cases {
		if tc.refusal.Msg == nil {
			continue
		}
		var a answered
		tc.issue(&a)
		m.nic.onResponse(tc.refusal)
		m.eng.Run() // the bus's NACK or own answer finds nothing pending
		if a.runs != 1 || a.err == nil || a.err.Error() != tc.want || a.va != 0 {
			t.Errorf("%s refused: ran %d times with va %#x, %v; want once with 0, %q", tc.name, a.runs, a.va, a.err, tc.want)
		}
	}

	rt.Retry = RetryPolicy{Timeout: 400 * sim.Microsecond, MaxRetries: 1}
	rt.DiscoverTimeout = 400 * sim.Microsecond
	plane.Add(faultinject.Rule{Layer: faultinject.LayerBus, Kind: msg.KindGrantReq, Op: faultinject.Drop})
	for _, tc := range cases {
		var a answered
		tc.issue(&a)
		m.eng.Run()
		var te *TimeoutError
		if a.runs != 1 || !errors.As(a.err, &te) || a.va != 0 || a.provider != 0 || a.service != "" {
			t.Errorf("%s timed out: ran %d times with va %#x, provider %v, service %q, %v; want once with a *TimeoutError and zeros",
				tc.name, a.runs, a.va, a.provider, a.service, a.err)
		}
	}
	if len(m.nic.pending) != 0 || len(m.nic.inflight) != 0 {
		t.Errorf("tables not empty: %d pending, %d inflight", len(m.nic.pending), len(m.nic.inflight))
	}
}

// zeroMessage decodes an all-zero body of the right length for kind k.
func zeroMessage(k msg.Kind) msg.Message {
	for n := 0; n <= 256; n++ {
		frame := msg.Envelope{Msg: &msg.HelloAck{}}.Encode() // an empty body: the bare header
		binary.LittleEndian.PutUint16(frame[4:], uint16(k))
		binary.LittleEndian.PutUint32(frame[6:], uint32(n))
		if env, err := msg.Decode(append(frame, make([]byte, n)...)); err == nil {
			return env.Msg
		}
	}
	return nil
}

// TestEveryResponseKindIsWired walks every wire kind: onResponse is
// registered for it if and only if keyOf has an arm for it, so a new
// response kind cannot be half-wired.
func TestEveryResponseKindIsWired(t *testing.T) {
	registered := map[msg.Kind]bool{}
	for _, k := range responseKinds {
		if registered[k] {
			t.Errorf("%v listed twice", k)
		}
		registered[k] = true
	}
	seen := 0
	for k := msg.Kind(1); !strings.HasPrefix(k.String(), "kind("); k++ {
		m := zeroMessage(k)
		if m == nil {
			t.Fatalf("no zero message for %v", k)
		}
		key := keyOf(msg.Envelope{Msg: m})
		hasArm := key != callKey{}
		if hasArm && key.kind != k {
			t.Errorf("keyOf(%v).kind = %v", k, key.kind)
		}
		if hasArm != registered[k] {
			t.Errorf("%v: keyOf arm %v, onResponse registered %v", k, hasArm, registered[k])
		}
		if registered[k] {
			seen++
		}
	}
	if seen != len(responseKinds) {
		t.Errorf("walked %d of %d registered kinds", seen, len(responseKinds))
	}
}

// controlBed is an untraced testbed with one app booted and kv.dat on the
// SSD, and the round trips the guards and the benchmark below drive on it.
type controlBed struct {
	m  *machine
	rt *Runtime
	va uint64 // a live region, for grant
}

func newControlBed(t testing.TB) *controlBed {
	t.Helper()
	b := &controlBed{m: buildMachine(t, 0, nil)}
	b.m.createFile(t, "kv.dat", nil)
	b.m.nic.AddApp(&testApp{id: 1, onBoot: func(rt *Runtime) { b.rt = rt }})
	b.m.eng.Run()
	b.rt.AllocShared(mcID, 64<<10, func(va uint64, err error) { b.va = va })
	b.m.eng.Run()
	if b.va == 0 {
		t.Fatal("no region to grant")
	}
	return b
}

func (b *controlBed) allocFree(t testing.TB) {
	b.rt.AllocShared(mcID, 64<<10, func(va uint64, err error) {
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		b.rt.Free(mcID, va, 64<<10, func(err error) {
			if err != nil {
				t.Fatalf("free: %v", err)
			}
		})
	})
	b.m.eng.Run()
}

func (b *controlBed) discover(t testing.TB) {
	b.rt.Discover("file+create:x.dat", func(_ msg.DeviceID, _ string, err error) {
		if err != nil {
			t.Fatalf("discover: %v", err)
		}
	})
	b.m.eng.Run()
}

// grant re-grants the same region: the bus re-authorizes and re-acks.
func (b *controlBed) grant(t testing.TB) {
	b.rt.Grant(b.va, 64<<10, ssdID, func(err error) {
		if err != nil {
			t.Fatalf("grant: %v", err)
		}
	})
	b.m.eng.Run()
}

// cycle is one op of the benchmark's machine1_ctrl_churn workload:
// discover kv.dat, allocate a region, grant it to the SSD and free it,
// each step started from the previous one's continuation, so every call
// but the first may take the record the one before it just gave back.
func (b *controlBed) cycle(t testing.TB) {
	const bytes = 64 << 10
	b.rt.Discover("file:kv.dat", func(provider msg.DeviceID, _ string, err error) {
		if err != nil {
			t.Fatalf("discover: %v", err)
		}
		b.rt.AllocShared(mcID, bytes, func(va uint64, err error) {
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			b.rt.Grant(va, bytes, provider, func(err error) {
				if err != nil {
					t.Fatalf("grant: %v", err)
				}
				b.rt.Free(mcID, va, bytes, func(err error) {
					if err != nil {
						t.Fatalf("free: %v", err)
					}
				})
			})
		})
	})
	b.m.eng.Run()
}

// TestControlCallAllocs pins the host cost of a steady-state AllocShared +
// Free round trip through the whole control plane (client call, bus route
// and IOMMU programming, memctrl): 7 — the client's two messages,
// memctrl's region frames and two responses, and the test's own two
// callbacks. No continuation is allocated: a call holds its caller's
// callback as its typed answer. The call, hop and memctrl request records
// come off their owners' free lists. With a closure around each callback,
// a region record and a wire copy of the frames it read 11; allocated per
// use the records made that 19, with a closure per bus stage and per
// memctrl request 34, and with a retrier, an op label, a send closure, an
// onFail closure and an After handle per client request on top of that 46.
func TestControlCallAllocs(t *testing.T) {
	b := newControlBed(t)
	b.allocFree(t)
	n := testing.AllocsPerRun(200, func() { b.allocFree(t) })
	t.Logf("alloc+free round trip: %v allocations", n)
	if n > 8 {
		t.Errorf("alloc+free round trip allocates %v times, want <= 8", n)
	}
}

// TestControlCycleAllocs pins the host cost of the churn workload's cycle
// (discover → alloc → grant → free, controlBed.cycle): 16 — ten message
// bodies, the region's frames, the bus's grant list and the test's four
// callbacks, and no continuation. With a closure around each of the four
// callbacks, a region record and two wire copies of its frames it read
// 23; where the call, hop, grantAck and memctrl request records were
// allocated per use, and discovery allocated a file handle to answer a
// query, 46.
func TestControlCycleAllocs(t *testing.T) {
	b := newControlBed(t)
	b.cycle(t)
	n := testing.AllocsPerRun(200, func() { b.cycle(t) })
	t.Logf("discover+alloc+grant+free cycle: %v allocations", n)
	if n > 17 {
		t.Errorf("the control cycle allocates %v times, want <= 17", n)
	}
}

// BenchmarkControlCall is one control round trip on the testbed: client
// call, bus, provider and back; cycle is the churn workload's whole op.
func BenchmarkControlCall(b *testing.B) {
	bed := newControlBed(b)
	for _, bc := range []struct {
		name string
		op   func(testing.TB)
	}{{"alloc_free", bed.allocFree}, {"discover", bed.discover}, {"grant", bed.grant}, {"cycle", bed.cycle}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.op(b)
			}
		})
	}
}
