package virtio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

// The queue's state lives in records: one per descriptor pair on each
// side, one for the reap loop, one for the poll loop. These tests pin that
// a record serves one request at a time, generation after generation, and
// that nothing a peer writes into the ring can reach a record that is
// still in use.

// poke writes b at va in the shared region, behind both devices' backs —
// what a hostile or broken peer leaves in memory.
func (w *qworld) poke(t testing.TB, va iommu.VirtAddr, b []byte) {
	t.Helper()
	for len(b) > 0 {
		pa, _, err := w.drvMMU.Translate(testPASID, va, iommu.AccessWrite)
		if err != nil {
			t.Fatal(err)
		}
		n := min(len(b), physmem.PageSize-int(uint64(va)%physmem.PageSize))
		if err := w.mem.Write(pa, b[:n]); err != nil {
			t.Fatal(err)
		}
		va, b = va+iommu.VirtAddr(n), b[n:]
	}
}

// peek reads n bytes at va the same way.
func (w *qworld) peek(t testing.TB, va iommu.VirtAddr, n int) []byte {
	t.Helper()
	out := make([]byte, n)
	for b := out; len(b) > 0; {
		pa, _, err := w.drvMMU.Translate(testPASID, va, iommu.AccessRead)
		if err != nil {
			t.Fatal(err)
		}
		k := min(len(b), physmem.PageSize-int(uint64(va)%physmem.PageSize))
		if err := w.mem.ReadInto(pa, b[:k]); err != nil {
			t.Fatal(err)
		}
		va, b = va+iommu.VirtAddr(k), b[k:]
	}
	return out
}

func le16(v uint16) []byte { return binary.LittleEndian.AppendUint16(nil, v) }

// pokeChain writes a well-formed descriptor pair at head whose request
// cell holds req.
func (w *qworld) pokeChain(t testing.TB, head uint16, req []byte) {
	t.Helper()
	var d [2 * descSize]byte
	putDesc(d[:descSize], desc{Addr: uint64(w.lay.cellVA(head)), Len: uint32(len(req)), Flags: flagNext, Next: head + 1})
	putDesc(d[descSize:], desc{Addr: uint64(w.lay.cellVA(head + 1)), Len: uint32(w.lay.CellSize), Flags: flagWrite})
	w.poke(t, w.lay.descVA(head), d[:])
	w.poke(t, w.lay.cellVA(head), req)
}

// busyRecords names every DMA record of the endpoint that is still in
// flight.
func (e *Endpoint) busyRecords() []string {
	var busy []string
	if e.pollDMA.Pending() {
		busy = append(busy, "poll")
	}
	for _, s := range e.pairs {
		if s == nil {
			continue
		}
		for name, op := range map[string]*interconnect.DMA{"resp": &s.respW, "elem": &s.elemW, "idx": &s.idxW} {
			if op.Pending() {
				busy = append(busy, fmt.Sprintf("pair %d %s", s.head, name))
			}
		}
	}
	return busy
}

// TestRoundTripAllocs pins what one request costs the host in steady
// state: the buffer the service receives (and here hands back as the
// response), the buffer the completion receives, and one doorbell record
// each way. SubmitOp and Complete take the buffer they are given, and every
// ring field moves through a record. (6 while both copied what they were
// given.)
func TestRoundTripAllocs(t *testing.T) {
	w := newQWorld(t, 16, 256)
	ep, err := NewEndpoint(w.epPrt, testPASID, w.lay, 0, echoService{})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	req := bytes.Repeat([]byte{0x5a}, 100)
	completed := 0
	cb := completion(func(resp []byte, err error) {
		if err != nil || len(resp) != len(req) {
			t.Fatalf("resp %d bytes: %v", len(resp), err)
		}
		completed++
	})
	one := func() {
		if err := drv.SubmitOp(req, cb); err != nil {
			t.Fatal(err)
		}
		w.eng.Run()
	}
	for i := 0; i < drv.Capacity()+1; i++ {
		one() // build the pair records
	}
	n := testing.AllocsPerRun(500, one)
	t.Logf("echo round trip: %v allocations", n)
	if n > 5 {
		t.Errorf("echo round trip allocates %v times, want <= 5", n)
	}
	if completed == 0 || drv.InFlight() != 0 {
		t.Fatalf("completed=%d inflight=%d", completed, drv.InFlight())
	}
}

// echoService answers each request with the request buffer itself.
type echoService struct{}

func (echoService) Serve(req []byte, r Responder) { r.Complete(req) }

func BenchmarkQueueRoundTrip(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"4KiB", 4096}} {
		b.Run(size.name, func(b *testing.B) {
			w := newQWorld(b, 16, 4096)
			drv, _ := w.echoPair(b)
			req := make([]byte, size.n)
			cb := func(resp []byte, err error) {
				if err != nil || len(resp) != len(req) {
					b.Fatalf("resp %d bytes: %v", len(resp), err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := submit(drv, req, cb); err != nil {
					b.Fatal(err)
				}
				w.eng.Run()
			}
		})
	}
}

// TestEndpointRejectsBusyHead: the avail ring names one head twice while
// its handler is still running. The chain must not be dispatched a second
// time, and the pair's record must not be handed out again: the queue
// fails as a corrupt ring.
func TestEndpointRejectsBusyHead(t *testing.T) {
	w := newQWorld(t, 8, 64)
	calls := 0
	var finish func([]byte)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		calls++
		finish = done // answer later
	})
	if err != nil {
		t.Fatal(err)
	}
	var epErr error
	ep.OnError = func(err error) { epErr = err }

	w.pokeChain(t, 2, []byte("once"))
	w.poke(t, w.lay.availRingVA(0), le16(2))
	w.poke(t, w.lay.availRingVA(1), le16(2))
	w.poke(t, w.lay.availIdxVA(), le16(2))
	w.fab.Ring(ep.ReqBell, 2)
	w.eng.Run()

	if calls != 1 {
		t.Errorf("handler ran %d times for one pair", calls)
	}
	if !ep.Dead() || epErr == nil || !strings.Contains(epErr.Error(), "corrupt") {
		t.Fatalf("dead=%v err=%v, want a corrupt-ring failure", ep.Dead(), epErr)
	}
	finish([]byte("late")) // the handler's answer to a dead queue is dropped
	w.eng.Run()
	if st := ep.Stats(); st.Processed != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v", st)
	}
	if busy := ep.busyRecords(); len(busy) != 0 {
		t.Errorf("records still in flight: %v", busy)
	}
}

// An odd head does not start a pair; it would alias its neighbour's
// record.
func TestEndpointRejectsOddHead(t *testing.T) {
	w := newQWorld(t, 8, 64)
	_, ep := w.echoPair(t)
	w.pokeChain(t, 2, []byte("x"))
	w.poke(t, w.lay.availRingVA(0), le16(3))
	w.poke(t, w.lay.availIdxVA(), le16(1))
	w.fab.Ring(ep.ReqBell, 1)
	w.eng.Run()
	if !ep.Dead() || ep.Stats().Processed != 0 {
		t.Fatalf("dead=%v stats=%+v", ep.Dead(), ep.Stats())
	}
}

// TestDriverRejectsUsedBeforePublished: the used ring names a pair whose
// publication writes are still on the port (the entry was planted before
// the request was even submitted). Believing it would complete the
// request with garbage and free a record the port still holds.
func TestDriverRejectsUsedBeforePublished(t *testing.T) {
	w := newQWorld(t, 8, 64)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}

	// The next Submit will take the last free pair.
	head := drv.freePairs[len(drv.freePairs)-1]
	var elem [usedElemSize]byte
	putUsedElem(elem[:], uint32(head), 4)
	w.poke(t, w.lay.usedRingVA(0), elem[:])
	w.poke(t, w.lay.usedIdxVA(), le16(1))
	w.fab.Ring(drv.RespBell, 1)

	// Submit while the reap loop's element read is on the port: the four
	// publication writes queue behind it.
	var cbErr error
	called := 0
	submitted := false
	for !submitted {
		if !w.eng.Step() {
			t.Fatal("reap loop never reached the used element")
		}
		if drv.reaping && drv.reapAt == reapElem {
			if err := submit(drv, []byte("real"), func(resp []byte, err error) { called++; cbErr = err }); err != nil {
				t.Fatal(err)
			}
			submitted = true
		}
	}
	w.eng.Run()

	if !drv.Dead() || called != 1 || cbErr == nil || !strings.Contains(cbErr.Error(), "corrupt used entry") {
		t.Fatalf("dead=%v, request completed %d times with err=%v, want once with a corrupt-ring failure", drv.Dead(), called, cbErr)
	}
	if drv.pairs[head/2].publishing() || drv.reapDMA.Pending() {
		t.Error("records still in flight after the run")
	}
}

func TestDriverFailCompletesInHeadOrder(t *testing.T) {
	w := newQWorld(t, 16, 64)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	var order []uint16
	for i := 0; i < 5; i++ {
		head := drv.freePairs[len(drv.freePairs)-1]
		if err := submit(drv, []byte{byte(i)}, func(resp []byte, err error) {
			if err == nil || resp != nil {
				t.Errorf("head %d: resp=%v err=%v", head, resp, err)
			}
			order = append(order, head)
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.eng.Run()
	if drv.InFlight() != 5 {
		t.Fatalf("inflight = %d", drv.InFlight())
	}
	drv.Abort(errSelfTest)
	drv.Abort(errSelfTest)
	if fmt.Sprint(order) != "[6 8 10 12 14]" || drv.Stats().Errors != 1 || drv.InFlight() != 0 {
		t.Errorf("order=%v errors=%d inflight=%d, want ascending heads, one failure", order, drv.Stats().Errors, drv.InFlight())
	}
}

func TestQuiesceWithWritesInFlight(t *testing.T) {
	w := newQWorld(t, 8, 64)
	drv, ep := w.echoPair(t)
	fired := 0
	for i := 0; i < 2; i++ {
		if err := submit(drv, []byte{1, 2, 3}, func([]byte, error) { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	// All eight publication writes are on the port.
	drv.Quiesce()
	w.eng.Run()
	if fired != 0 {
		t.Errorf("%d completions of a quiesced driver fired", fired)
	}
	if drv.Stats().Kicks != 0 || ep.Stats().Processed != 0 || drv.InFlight() != 0 {
		t.Errorf("drv=%+v ep=%+v inflight=%d", drv.Stats(), ep.Stats(), drv.InFlight())
	}
	for _, s := range drv.pairs {
		if s != nil && s.publishing() {
			t.Errorf("pair %d: publication writes never completed", s.head)
		}
	}
}

// stepToResponseRead steps the engine until the driver's reap loop has the
// response-cell read on the port.
func (w *qworld) stepToResponseRead(t *testing.T, drv *Driver) {
	t.Helper()
	for !(drv.reaping && drv.reapAt == reapResp && drv.reapDMA.Pending()) {
		if !w.eng.Step() {
			t.Fatal("reap loop never reached the response cell")
		}
	}
}

// A reset cancels no DMA: the response read of a request that Quiesce has
// disowned still completes, and must complete into nothing.
func TestQuiesceWithResponseInFlight(t *testing.T) {
	w := newQWorld(t, 8, 64)
	drv, _ := w.echoPair(t)
	fired := 0
	for i := 0; i < 2; i++ {
		if err := submit(drv, []byte{1, 2, 3}, func([]byte, error) { fired++ }); err != nil {
			t.Fatal(err)
		}
	}
	w.stepToResponseRead(t, drv)
	free := len(drv.freePairs)
	drv.Quiesce()
	w.eng.Run()
	if fired != 0 {
		t.Errorf("%d completions of a quiesced driver fired", fired)
	}
	if st := drv.Stats(); st.Completed != 0 || drv.InFlight() != 0 || len(drv.freePairs) != free {
		t.Errorf("stats=%+v inflight=%d free pairs %d -> %d", st, drv.InFlight(), free, len(drv.freePairs))
	}
	if drv.reaping || drv.reapDMA.Pending() {
		t.Errorf("reap loop still running: reaping=%v pending=%v", drv.reaping, drv.reapDMA.Pending())
	}
}

// The same for fail: the request was completed with the queue's error
// when the queue died, and the response that lands afterwards is not a
// second completion.
func TestFailWithResponseInFlight(t *testing.T) {
	w := newQWorld(t, 8, 64)
	drv, _ := w.echoPair(t)
	var errs []error
	for i := 0; i < 2; i++ {
		if err := submit(drv, []byte{1, 2, 3}, func(resp []byte, err error) {
			if resp != nil {
				t.Errorf("failed request completed with %x", resp)
			}
			errs = append(errs, err)
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.stepToResponseRead(t, drv)
	drv.Abort(errSelfTest)
	w.eng.Run()
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Errorf("completions = %v, want each request failed once", errs)
	}
	if st := drv.Stats(); st.Completed != 0 || st.Errors != 1 || drv.InFlight() != 0 {
		t.Errorf("stats=%+v inflight=%d", st, drv.InFlight())
	}
	if drv.reaping || drv.reapDMA.Pending() {
		t.Errorf("reap loop still running: reaping=%v pending=%v", drv.reaping, drv.reapDMA.Pending())
	}
}

func TestHandlerCompletingTwicePanics(t *testing.T) {
	w := newQWorld(t, 8, 64)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		done(req)
		done(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	_ = submit(drv, []byte{1}, func([]byte, error) {})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "completed twice") {
			t.Errorf("recovered %v, want the completed-twice panic", r)
		}
	}()
	w.eng.Run()
}

// A done kept from an earlier generation of a pair and called while the
// endpoint is still reading the pair's next chain is a second completion
// of the old request, not the first of the new one.
func TestStaleDoneWhileChainIsReadPanics(t *testing.T) {
	w := newQWorld(t, 2, 64)
	var stale func([]byte)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		stale = done
		done(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	for gen := 0; gen < 2; gen++ {
		if err := submit(drv, []byte{byte(gen)}, func([]byte, error) {}); err != nil {
			t.Fatal(err)
		}
		if gen == 0 {
			w.eng.Run()
		}
	}
	for ep.pairs[0].state != pairTaken {
		if !w.eng.Step() {
			t.Fatal("the pair's second chain was never taken")
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "completed twice") {
			t.Errorf("recovered %v, want the completed-twice panic", r)
		}
	}()
	stale([]byte("again"))
}

// TestUsedElementBehindIndex: the used element's page is not mapped on the
// endpoint, so its write leaves the port's FIFO for the fault-retry path
// and lands after the used index. Until it has, the pair's record is not
// free: a head published again in that window is refused, not handed a
// record the port still holds.
func TestUsedElementBehindIndex(t *testing.T) {
	w := newQWorld(t, 512, 64)
	drv, ep := w.echoPair(t)
	// Used slot 383 is the first on the page after the used index.
	const slot = 383
	page := w.lay.usedRingVA(slot).Page()
	if page == w.lay.usedIdxVA().Page() {
		t.Fatal("layout changed: slot shares the index's page")
	}
	ep.usedIdx, drv.usedSeen = slot, slot
	frame, _, ok := w.epMMU.Lookup(testPASID, page)
	if !ok {
		t.Fatal("used ring not mapped")
	}
	if err := w.epMMU.Unmap(testPASID, page); err != nil {
		t.Fatal(err)
	}
	faults := 0
	w.epPrt.SetFaultHandler(func(f *iommu.Fault, retry func(), fail func(error)) {
		faults++
		w.eng.After(50*sim.Microsecond, func() {
			if err := w.epMMU.Map(testPASID, page, frame, iommu.PermRW); err != nil {
				fail(err)
				return
			}
			retry()
		})
	})
	var epErr error
	ep.OnError = func(err error) { epErr = err }

	head := drv.freePairs[len(drv.freePairs)-1]
	if err := submit(drv, []byte("abc"), func([]byte, error) {}); err != nil {
		t.Fatal(err)
	}
	s := func() *endpointPair { return ep.pairs[head/2] }
	for s() == nil || s().state != pairPublished {
		if !w.eng.Step() {
			t.Fatalf("index never overtook the element (faults=%d)", faults)
		}
	}
	if !s().elemW.Pending() || ep.Stats().Processed != 1 {
		t.Fatalf("elem pending=%v stats=%+v", s().elemW.Pending(), ep.Stats())
	}
	// The same head again, while the element is still on its way.
	w.poke(t, w.lay.availRingVA(1), le16(head))
	w.poke(t, w.lay.availIdxVA(), le16(2))
	w.fab.Ring(ep.ReqBell, 2)
	w.eng.Run()

	if !ep.Dead() || epErr == nil || !strings.Contains(epErr.Error(), "corrupt") {
		t.Fatalf("dead=%v err=%v, want a corrupt-ring failure", ep.Dead(), epErr)
	}
	if faults != 1 || s().state != pairFree || ep.Stats().Processed != 1 {
		t.Errorf("faults=%d state=%d stats=%+v", faults, s().state, ep.Stats())
	}
	if busy := ep.busyRecords(); len(busy) != 0 {
		t.Errorf("records still in flight: %v", busy)
	}
}

// TestMaxInflightParksAndResumes: at the bound the poll loop stops
// without a DMA in flight, and the completion that frees a slot restarts
// it.
func TestMaxInflightParksAndResumes(t *testing.T) {
	w := newQWorld(t, 16, 64)
	var waiting []func()
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		waiting = append(waiting, func() { done(req) })
	})
	if err != nil {
		t.Fatal(err)
	}
	ep.MaxInflight = 2
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	var got []byte
	for i := 0; i < 5; i++ {
		_ = submit(drv, []byte{byte(i)}, func(resp []byte, err error) { got = append(got, resp...) })
	}
	w.eng.Run()
	if len(waiting) != 2 || ep.polling || ep.pollDMA.Pending() || ep.inflight != 2 {
		t.Fatalf("parked with %d dispatched, polling=%v inflight=%d", len(waiting), ep.polling, ep.inflight)
	}
	for len(waiting) > 0 {
		next := waiting[0]
		waiting = waiting[1:]
		next()
		w.eng.Run()
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4}) || ep.Stats().Processed != 5 {
		t.Errorf("got %v, stats %+v", got, ep.Stats())
	}
}

// TestPairReuseAcrossGenerations drives one pair (a ring of two entries)
// through generation after generation with a different response length
// each time, including none and one cut to the cell. Every completion
// must see its own generation's bytes, and what the handler and the
// completions were given must still be theirs afterwards: both sides may
// keep it (the SSD holds a request's data across flash programs). Submit
// and done take the buffer they are handed and let go of it once it has
// been moved: scribbling over both after the completion changes nothing.
func TestPairReuseAcrossGenerations(t *testing.T) {
	const cell = 64
	w := newQWorld(t, 2, cell)
	lens := []int{10, 0, 500, 3, cell, 1}
	respFor := func(gen int) []byte {
		b := make([]byte, lens[gen])
		for i := range b {
			b[i] = byte(gen*31 + i)
		}
		return b
	}
	var keptReqs, handedResps [][]byte
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		keptReqs = append(keptReqs, req)
		resp := respFor(int(req[0]))
		handedResps = append(handedResps, resp)
		done(resp)
	})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell

	reqFor := func(gen int) []byte {
		req := make([]byte, 1+gen)
		req[0] = byte(gen)
		for i := 1; i < len(req); i++ {
			req[i] = byte(gen + i)
		}
		return req
	}
	var keptResps [][]byte
	for gen := range lens {
		req := reqFor(gen)
		if err := submit(drv, req, func(resp []byte, err error) {
			if err != nil {
				t.Fatalf("gen %d: %v", gen, err)
			}
			keptResps = append(keptResps, resp)
		}); err != nil {
			t.Fatal(err)
		}
		w.eng.Run()
		clear(req) // moved long ago: the queue holds neither buffer now
		clear(handedResps[gen])
	}
	if len(keptResps) != len(lens) || drv.pairs[0] == nil || ep.pairs[0] == nil {
		t.Fatalf("%d completions", len(keptResps))
	}
	for gen := range lens {
		want := respFor(gen)
		if len(want) > cell {
			want = want[:cell]
		}
		if !bytes.Equal(keptResps[gen], want) {
			t.Errorf("gen %d: completion holds %x, want %x", gen, keptResps[gen], want)
		}
		if wantReq := reqFor(gen); !bytes.Equal(keptReqs[gen], wantReq) {
			t.Errorf("gen %d: handler's request now reads %x, want %x", gen, keptReqs[gen], wantReq)
		}
	}
	if st := ep.Stats(); st.Processed != uint64(len(lens)) {
		t.Errorf("stats = %+v", st)
	}
}

// ringImageLen is the descriptor table plus the avail ring of the fuzz
// target's geometry.
const (
	fuzzEntries  = 8
	fuzzCell     = 64
	ringImageLen = fuzzEntries*descSize + 4 + 2*fuzzEntries
)

// ringImage runs n requests through a real driver against an endpoint
// that never answers and returns what the driver left in shared memory.
func ringImage(t testing.TB, n int) []byte {
	w := newQWorld(t, fuzzEntries, fuzzCell)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func([]byte, func([]byte)) {})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := submit(drv, []byte{byte(i), 1, 2}, func([]byte, error) {}); err != nil {
			t.Fatal(err)
		}
	}
	w.eng.Run()
	return w.peek(t, w.lay.Base, ringImageLen)
}

// FuzzEndpointRing hands the endpoint whatever a hostile driver could
// leave in the descriptor table and the avail ring, then rings its bell.
// The endpoint may serve it or fail the queue; it must not panic, must
// not process more entries than were published, and must not end with a
// record still in flight.
func FuzzEndpointRing(f *testing.F) {
	f.Add(ringImage(f, 1), uint8(1))
	f.Add(ringImage(f, 4), uint8(3))
	f.Add(ringImage(f, 4), uint8(0x80|2))
	// One head published twice, answered late: the duplicate-head case.
	dup := ringImage(f, 1)
	avail := dup[fuzzEntries*descSize:]
	copy(avail[6:8], avail[4:6]) // ring[1] = ring[0]
	binary.LittleEndian.PutUint16(avail[2:], 2)
	f.Add(dup, uint8(0x80|1))
	f.Add(bytes.Repeat([]byte{0xff}, ringImageLen), uint8(1))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, ring []byte, kicks uint8) {
		w := newQWorld(t, fuzzEntries, fuzzCell)
		image := make([]byte, ringImageLen)
		copy(image, ring)
		// Keep one execution short: at most 255 published entries.
		idxAt := fuzzEntries*descSize + 2
		image[idxAt+1] = 0
		published := uint64(image[idxAt])
		w.poke(t, w.lay.Base, image)

		late := kicks&0x80 != 0
		ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
			if late {
				w.eng.After(3*sim.Microsecond, func() { done(req) })
				return
			}
			done(req)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= int(kicks&7); i++ {
			w.eng.After(sim.Duration(i)*2*sim.Microsecond, func() { w.fab.Ring(ep.ReqBell, 0) })
		}
		w.eng.Run()

		st := ep.Stats()
		if !ep.Dead() && st.Processed > published {
			t.Errorf("processed %d of %d published entries", st.Processed, published)
		}
		if !ep.Dead() && (ep.inflight != 0 || ep.polling) {
			t.Errorf("live queue drained with inflight=%d polling=%v", ep.inflight, ep.polling)
		}
		if busy := ep.busyRecords(); len(busy) != 0 {
			t.Errorf("records still in flight: %v", busy)
		}
	})
}
