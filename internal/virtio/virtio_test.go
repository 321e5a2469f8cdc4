package virtio

import (
	"bytes"
	"testing"

	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

const testPASID = iommu.PASID(7)

type qworld struct {
	eng    *sim.Engine
	mem    *physmem.Memory
	fab    *interconnect.Fabric
	drvMMU *iommu.IOMMU
	epMMU  *iommu.IOMMU
	drvPrt *interconnect.Port
	epPrt  *interconnect.Port
	lay    Layout
}

// newQWorld maps a shared region into both devices' IOMMUs (standing in
// for the alloc+grant flow the bus performs in the full system). Memory is
// 1 MiB, enough for the largest ring here and cheap enough for the fuzz
// target to build a world per input.
func newQWorld(t testing.TB, entries uint16, cellSize int) *qworld {
	t.Helper()
	w := &qworld{
		eng: sim.NewEngine(),
		mem: physmem.MustNew(256 * physmem.PageSize),
	}
	w.fab = interconnect.NewFabric(w.eng, w.mem, interconnect.DefaultCosts)
	w.drvMMU = iommu.New("drv", w.mem, iommu.DefaultConfig)
	w.epMMU = iommu.New("ep", w.mem, iommu.DefaultConfig)
	w.drvPrt = w.fab.NewPort("drv", w.drvMMU)
	w.epPrt = w.fab.NewPort("ep", w.epMMU)

	base := iommu.VirtAddr(0x100000)
	w.lay = NewLayout(base, entries, cellSize)
	total := int(uint64(w.lay.DataVA)-uint64(base)) + w.lay.DataBytes()
	pages := (total + physmem.PageSize - 1) / physmem.PageSize

	for _, mmu := range []*iommu.IOMMU{w.drvMMU, w.epMMU} {
		if err := mmu.CreateContext(testPASID); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		f, err := w.mem.AllocFrames(1)
		if err != nil {
			t.Fatal(err)
		}
		va := base + iommu.VirtAddr(i*physmem.PageSize)
		for _, mmu := range []*iommu.IOMMU{w.drvMMU, w.epMMU} {
			if err := mmu.Map(testPASID, va, f, iommu.PermRW); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

// echoPair builds a connected driver/endpoint where the endpoint reverses
// the request bytes.
func (w *qworld) echoPair(t testing.TB) (*Driver, *Endpoint) {
	t.Helper()
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		out := make([]byte, len(req))
		for i, b := range req {
			out[len(req)-1-i] = b
		}
		done(out)
	})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	return drv, ep
}

// handler is a service that is a func, and completion a request's
// completion that is one: the callback forms, for tests. A handler's done
// is the pair's Complete.
type handler func(req []byte, done func(resp []byte))

func (h handler) Serve(req []byte, r Responder) { h(req, r.Complete) }

type completion func(resp []byte, err error)

func (f completion) RequestDone(resp []byte, err error) { f(resp, err) }

// newEndpoint and submit are NewEndpoint and SubmitOp for the callback
// forms.
func newEndpoint(port *interconnect.Port, pasid iommu.PASID, lay Layout, respBell interconnect.DoorbellAddr, h handler) (*Endpoint, error) {
	return NewEndpoint(port, pasid, lay, respBell, h)
}

func submit(d *Driver, req []byte, done func(resp []byte, err error)) error {
	return d.SubmitOp(req, completion(done))
}

func TestLayoutValidation(t *testing.T) {
	if err := (Layout{Base: 0, Entries: 3, CellSize: 64}).Validate(); err == nil {
		t.Error("non-power-of-two entries accepted")
	}
	if err := (Layout{Base: 0, Entries: 4, CellSize: 0}).Validate(); err == nil {
		t.Error("zero cell accepted")
	}
	if err := (Layout{Base: 1, Entries: 4, CellSize: 64}).Validate(); err == nil {
		t.Error("unaligned base accepted")
	}
	lay := NewLayout(0x1000, 8, 128)
	if err := lay.Validate(); err != nil {
		t.Error(err)
	}
	if lay.DataVA%physmem.PageSize != 0 {
		t.Error("data region not page aligned")
	}
	if RingBytes(8) != 8*16+align4(4+16)+align4(4+64) {
		t.Errorf("RingBytes(8) = %d", RingBytes(8))
	}
}

// CellSizeFromQuote is the inverse of SharedBytes: a client recovers the
// provider's cell size from the footprint it quoted, for every ring size a
// client asks for and the cell sizes the providers serve (the SSD's page
// plus headers, the accelerator's page plus 16, small test cells).
func TestCellSizeFromQuoteInvertsSharedBytes(t *testing.T) {
	for _, entries := range []uint16{4, 8, 64, 128, 256, 1024} {
		for _, cell := range []int{64, 128, 512, 4096, 4096 + 16, 4096 + 22, 2 * 4096} {
			if got := CellSizeFromQuote(SharedBytes(entries, cell), entries); got != cell {
				t.Errorf("entries %d: cell %d quoted as %d bytes reads back as %d", entries, cell, SharedBytes(entries, cell), got)
			}
		}
		// A quote with no room for data reads as one page per cell.
		if got := CellSizeFromQuote(SharedBytes(entries, 0), entries); got != physmem.PageSize {
			t.Errorf("entries %d: data-less quote reads as cell %d, want a page", entries, got)
		}
	}
}

func TestSingleRoundTrip(t *testing.T) {
	w := newQWorld(t, 16, 256)
	drv, ep := w.echoPair(t)
	var got []byte
	if err := submit(drv, []byte("abcdef"), func(resp []byte, err error) {
		if err != nil {
			t.Error(err)
		}
		got = resp
	}); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if !bytes.Equal(got, []byte("fedcba")) {
		t.Fatalf("resp = %q", got)
	}
	if drv.Stats().Completed != 1 || ep.Stats().Processed != 1 {
		t.Errorf("stats drv=%+v ep=%+v", drv.Stats(), ep.Stats())
	}
	if drv.InFlight() != 0 {
		t.Error("pending not drained")
	}
}

func TestManyConcurrentRequests(t *testing.T) {
	w := newQWorld(t, 64, 256)
	drv, _ := w.echoPair(t)
	const n = 200
	completed := 0
	var send func(i int)
	send = func(i int) {
		payload := []byte{byte(i), byte(i >> 8), byte(i * 3)}
		err := submit(drv, payload, func(resp []byte, err error) {
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			if resp[0] != byte(i*3) {
				t.Errorf("req %d: wrong payload", i)
			}
			completed++
		})
		if err != nil {
			// Queue full: retry after a little while.
			w.eng.After(10*sim.Microsecond, func() { send(i) })
		}
	}
	for i := 0; i < n; i++ {
		send(i)
	}
	w.eng.Run()
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	if drv.InFlight() != 0 || len(drv.freePairs) != drv.Capacity() {
		t.Error("descriptor leak")
	}
}

func TestQueueFullSynchronousError(t *testing.T) {
	w := newQWorld(t, 4, 128) // capacity 2
	drv, _ := w.echoPair(t)
	ok := 0
	for i := 0; i < 3; i++ {
		if err := submit(drv, []byte{1}, func([]byte, error) {}); err == nil {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d, want 2 (capacity)", ok)
	}
	w.eng.Run()
	// After completion, capacity is back.
	if err := submit(drv, []byte{1}, func([]byte, error) {}); err != nil {
		t.Errorf("post-drain submit failed: %v", err)
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	w := newQWorld(t, 8, 64)
	drv, _ := w.echoPair(t)
	if err := submit(drv, make([]byte, 65), func([]byte, error) {}); err == nil {
		t.Error("oversized request accepted")
	}
}

func TestResponseTruncatedToCell(t *testing.T) {
	w := newQWorld(t, 8, 64)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		done(make([]byte, 500)) // larger than the 64-byte cell
	})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	var got []byte
	_ = submit(drv, []byte{1}, func(resp []byte, err error) { got = resp })
	w.eng.Run()
	if len(got) != 64 {
		t.Errorf("resp len = %d, want 64 (truncated)", len(got))
	}
}

func TestAsyncHandler(t *testing.T) {
	w := newQWorld(t, 16, 128)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		// Simulate a 100us flash read before answering.
		w.eng.After(100*sim.Microsecond, func() { done([]byte{0xAA}) })
	})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	var doneAt sim.Time
	_ = submit(drv, []byte{1}, func(resp []byte, err error) { doneAt = w.eng.Now() })
	w.eng.Run()
	if doneAt < sim.Time(100*sim.Microsecond) {
		t.Errorf("completed at %v, before handler delay", doneAt)
	}
}

func TestHandlerPipelining(t *testing.T) {
	// With async handlers, multiple requests must overlap: total time for
	// 8 requests with 100us handlers must be far less than 800us.
	w := newQWorld(t, 32, 128)
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		w.eng.After(100*sim.Microsecond, func() { done(req) })
	})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	done := 0
	for i := 0; i < 8; i++ {
		_ = submit(drv, []byte{byte(i)}, func([]byte, error) { done++ })
	}
	w.eng.Run()
	if done != 8 {
		t.Fatalf("done = %d", done)
	}
	if w.eng.Now() > sim.Time(300*sim.Microsecond) {
		t.Errorf("8 overlapping 100us requests took %v — no pipelining", w.eng.Now())
	}
}

func TestMaxInflightBounds(t *testing.T) {
	w := newQWorld(t, 64, 128)
	peak := 0
	cur := 0
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {
		cur++
		if cur > peak {
			peak = cur
		}
		w.eng.After(50*sim.Microsecond, func() { cur--; done(req) })
	})
	if err != nil {
		t.Fatal(err)
	}
	ep.MaxInflight = 4
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	done := 0
	for i := 0; i < 20; i++ {
		_ = submit(drv, []byte{byte(i)}, func([]byte, error) { done++ })
	}
	w.eng.Run()
	if done != 20 {
		t.Fatalf("done = %d", done)
	}
	if peak > 4 {
		t.Errorf("peak inflight %d exceeds MaxInflight 4", peak)
	}
}

func TestKickBatching(t *testing.T) {
	w := newQWorld(t, 32, 128)
	drv, ep := w.echoPair(t)
	drv.KickBatch = 4
	drv.FlushAfter = 500 * sim.Microsecond
	done := 0
	for i := 0; i < 3; i++ {
		_ = submit(drv, []byte{1}, func([]byte, error) { done++ })
	}
	// Before the batch fills or the flush timer fires: silence.
	w.eng.RunFor(100 * sim.Microsecond)
	if done != 0 {
		t.Fatalf("endpoint processed %d before batch full/flush", done)
	}
	if ep.Stats().Processed != 0 {
		t.Error("endpoint woke without doorbell")
	}
	drv.Flush()
	w.eng.Run()
	if done != 3 {
		t.Fatalf("after flush done = %d", done)
	}
	if drv.Stats().Kicks != 1 {
		t.Errorf("kicks = %d, want 1", drv.Stats().Kicks)
	}
}

func TestKickBatchFlushTimerPreventsStranding(t *testing.T) {
	w := newQWorld(t, 32, 128)
	drv, _ := w.echoPair(t)
	drv.KickBatch = 8
	done := 0
	// Two requests: the batch never fills, so only the timer saves them.
	_ = submit(drv, []byte{1}, func([]byte, error) { done++ })
	_ = submit(drv, []byte{2}, func([]byte, error) { done++ })
	w.eng.Run()
	if done != 2 {
		t.Fatalf("flush timer did not deliver partial batch: done=%d", done)
	}
	if drv.Stats().Kicks != 1 {
		t.Errorf("kicks = %d, want 1 (single timer flush)", drv.Stats().Kicks)
	}
}

func TestNotifyBatching(t *testing.T) {
	w := newQWorld(t, 32, 128)
	drv, ep := w.echoPair(t)
	ep.NotifyBatch = 8
	done := 0
	for i := 0; i < 5; i++ {
		_ = submit(drv, []byte{byte(i)}, func([]byte, error) { done++ })
	}
	w.eng.Run()
	// Fewer than 8 completions, but the idle flush must deliver them all.
	if done != 5 {
		t.Fatalf("done = %d, want 5 (idle flush)", done)
	}
	if ep.Stats().Notifies >= 5 {
		t.Errorf("notifies = %d, batching ineffective", ep.Stats().Notifies)
	}
}

func TestEndpointFaultAfterRevoke(t *testing.T) {
	w := newQWorld(t, 8, 128)
	drv, ep := w.echoPair(t)
	var epErr error
	ep.OnError = func(err error) { epErr = err }
	// Revoke the endpoint's view of the whole region (as the bus would on
	// a revoke): its next DMA faults.
	base := iommu.VirtAddr(0x100000)
	total := int(uint64(w.lay.DataVA)-uint64(base)) + w.lay.DataBytes()
	for i := 0; i < (total+physmem.PageSize-1)/physmem.PageSize; i++ {
		if err := w.epMMU.Unmap(testPASID, base+iommu.VirtAddr(i*physmem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	_ = submit(drv, []byte{1}, func(resp []byte, err error) {})
	w.eng.Run()
	if epErr == nil || !ep.Dead() {
		t.Error("endpoint survived revoked mapping")
	}
}

func TestDriverDeadFailsPending(t *testing.T) {
	w := newQWorld(t, 8, 128)
	// Endpoint that never answers, so requests stay pending.
	ep, err := newEndpoint(w.epPrt, testPASID, w.lay, 0, func(req []byte, done func([]byte)) {})
	if err != nil {
		t.Fatal(err)
	}
	drv, err := NewDriver(w.drvPrt, testPASID, w.lay, ep.ReqBell)
	if err != nil {
		t.Fatal(err)
	}
	ep.respBell = drv.RespBell
	var cbErr error
	_ = submit(drv, []byte{1}, func(resp []byte, err error) { cbErr = err })
	w.eng.Run()
	drv.fail(errSelfTest)
	if cbErr == nil {
		t.Error("pending request not failed")
	}
	if err := submit(drv, []byte{1}, func([]byte, error) {}); err == nil {
		t.Error("dead queue accepted submit")
	}
}

var errSelfTest = bytes.ErrTooLarge

func TestDeterministicCompletionOrder(t *testing.T) {
	run := func() []byte {
		w := newQWorld(t, 32, 128)
		drv, _ := w.echoPair(t)
		var order []byte
		for i := 0; i < 10; i++ {
			i := i
			_ = submit(drv, []byte{byte(i)}, func(resp []byte, err error) {
				order = append(order, byte(i))
			})
		}
		w.eng.Run()
		return order
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("non-deterministic completion: %v vs %v", a, b)
	}
	if len(a) != 10 {
		t.Fatalf("completed %d", len(a))
	}
}
