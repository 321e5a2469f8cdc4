package interconnect

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/iommu"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

// The record form of a transfer: fault retry, injected faults and the DMA
// window behave as they do for Port.Read/Write, and a pending record is
// not reissued.

// doneFunc adapts a function to Completion for tests.
type doneFunc func(op *DMA, err error)

func (f doneFunc) DMADone(op *DMA, err error) { f(op, err) }

// mapOnFault is a FaultHandler that demand-maps the faulting page.
func (r *rig) mapOnFault(handled *int) FaultHandler {
	return func(f *iommu.Fault, retry func(), fail func(error)) {
		*handled++
		fr, err := r.mem.AllocFrames(1)
		if err != nil {
			fail(err)
			return
		}
		if err := r.mmu.Map(f.PASID, f.Addr.Page(), fr, iommu.PermRW); err != nil {
			fail(err)
			return
		}
		retry()
	}
}

// TestDMARecordRoundTrip moves ring-field-sized and page-crossing
// transfers through one write record and one read record, reissuing each
// from inside its own completion.
func TestDMARecordRoundTrip(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	r.mapPage(t, 1, 0x2000, iommu.PermRW)
	cases := []struct {
		va iommu.VirtAddr
		n  int
	}{{0x1000 + 8, 2}, {0x1000 + 64, 8}, {0x2000 - 5, 32}, {0x1000 + 100, 0}, {0x2000 - 3000, 4000}}
	var wr, rd DMA
	var wbuf, rbuf [4000]byte
	i := 0
	var next func()
	wrote := doneFunc(func(op *DMA, err error) {
		if err != nil || op != &wr || op.Pending() {
			t.Fatalf("case %d: write done op=%p pending=%v err=%v", i, op, op.Pending(), err)
		}
		c := cases[i]
		r.port.ReadOp(&rd, 1, c.va, rbuf[:c.n], doneFunc(func(op *DMA, err error) {
			if err != nil {
				t.Fatalf("case %d: read: %v", i, err)
			}
			if !bytes.Equal(op.Bytes(), wbuf[:c.n]) {
				t.Errorf("case %d: read back %x, want %x", i, op.Bytes(), wbuf[:c.n])
			}
			i++
			next()
		}))
	})
	next = func() {
		if i == len(cases) {
			return
		}
		c := cases[i]
		for j := range wbuf[:c.n] {
			wbuf[j] = byte(j*7 + i + 1)
		}
		r.port.WriteOp(&wr, 1, c.va, wbuf[:c.n], wrote)
	}
	next()
	r.eng.Run()
	if i != len(cases) {
		t.Fatalf("ran %d of %d cases", i, len(cases))
	}
	if st := r.fab.Stats(); st.DMAs != uint64(2*len(cases)) {
		t.Errorf("stats = %+v", st)
	}
	if wr.Bytes() != nil || rd.Bytes() != nil {
		t.Error("an idle record still holds the last buffer it carried")
	}
}

// recordPair is the virtio pattern through records the issuer owns: one
// write and one read of n bytes, each run to completion. With fresh set,
// the read gets a buffer of its own, as a cell transfer does.
func recordPair(tb testing.TB, n int, fresh bool) (write, read func()) {
	r := newRig(tb, DefaultCosts)
	r.mapPage(tb, 1, 0x1000, iommu.PermRW)
	var wr, rd DMA
	wbuf, rbuf := make([]byte, n), make([]byte, n)
	done := doneFunc(func(op *DMA, err error) {
		if err != nil || len(op.Bytes()) != n {
			tb.Fatalf("%d bytes: %v", len(op.Bytes()), err)
		}
	})
	write = func() {
		r.port.WriteOp(&wr, 1, 0x1000+128, wbuf, done)
		r.eng.Run()
	}
	read = func() {
		buf := rbuf
		if fresh {
			buf = make([]byte, n)
		}
		r.port.ReadOp(&rd, 1, 0x1000+128, buf, done)
		r.eng.Run()
	}
	return write, read
}

// TestDMARecordAllocs pins the point of the record: a ring-field transfer
// (index, used element, descriptor pair) costs the host nothing, and a
// cell transfer only the buffer its receiver will own.
func TestDMARecordAllocs(t *testing.T) {
	check := func(what string, run func(), max float64) {
		a := testing.AllocsPerRun(500, run)
		t.Logf("%s: %v allocations", what, a)
		if a > max {
			t.Errorf("%s allocates %v times, want <= %v", what, a, max)
		}
	}
	for _, n := range []int{2, 8, 32} {
		write, read := recordPair(t, n, false)
		check(fmt.Sprintf("record write of %d bytes", n), write, 0)
		check(fmt.Sprintf("record read of %d bytes", n), read, 0)
	}
	write, read := recordPair(t, 64, true)
	check("record write of 64 bytes", write, 0)
	check("record read of 64 bytes into a fresh buffer", read, 1)
}

func BenchmarkDMA(b *testing.B) {
	for _, n := range []int{2, 64} {
		write, read := recordPair(b, n, n == 64)
		for _, c := range []struct {
			name string
			fn   func()
		}{{"read", read}, {"write", write}} {
			b.Run(fmt.Sprintf("%s%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.fn()
				}
			})
		}
	}
}

func TestDMARecordFaultRetry(t *testing.T) {
	r := newRig(t, DefaultCosts)
	if err := r.mmu.CreateContext(1); err != nil {
		t.Fatal(err)
	}
	handled := 0
	r.port.SetFaultHandler(r.mapOnFault(&handled))
	var wr, rd DMA
	payload := []byte("demand")
	var got []byte
	r.port.WriteOp(&wr, 1, 0x5000+17, payload, doneFunc(func(op *DMA, err error) {
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		got = make([]byte, len(payload))
		r.port.ReadOp(&rd, 1, 0x5000+17, got, doneFunc(func(_ *DMA, err error) {
			if err != nil {
				t.Fatalf("read: %v", err)
			}
		}))
	}))
	if !wr.Pending() {
		t.Fatal("record idle while its fault is being resolved")
	}
	r.eng.Run()
	if handled != 1 || string(got) != "demand" {
		t.Fatalf("handled=%d got=%q", handled, got)
	}
	if st := r.fab.Stats(); st.Faults != 1 || st.DMAs != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDMARecordFaultRetryBound(t *testing.T) {
	r := newRig(t, DefaultCosts)
	if err := r.mmu.CreateContext(1); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	r.port.SetFaultHandler(func(f *iommu.Fault, retry func(), fail func(error)) {
		attempts++
		retry() // "resolved", but nothing was mapped
	})
	var rd DMA
	var got error
	calls := 0
	r.port.ReadOp(&rd, 1, 0x5000, make([]byte, 2), doneFunc(func(op *DMA, err error) { calls++; got = err }))
	r.eng.Run()
	var fault *iommu.Fault
	if calls != 1 || !errors.As(got, &fault) || fault.Reason != iommu.FaultNotPresent {
		t.Fatalf("calls=%d err=%v", calls, got)
	}
	if attempts != maxFaultRetries || rd.Pending() {
		t.Fatalf("handler ran %d times (want %d), pending=%v", attempts, maxFaultRetries, rd.Pending())
	}
}

// oneShot installs a fault plane that applies op to the first DMA only.
func (r *rig) oneShot(op faultinject.Op, delay sim.Duration) {
	r.fab.SetFaultPlane(faultinject.New(1).Add(faultinject.Rule{
		Layer: faultinject.LayerLink, Op: op, Delay: delay, Count: 1,
	}))
}

func TestDMARecordInjectedDrop(t *testing.T) {
	costs := Costs{LinkLatency: 100, BytesPerNs: 1}
	for _, write := range []bool{false, true} {
		r := newRig(t, costs)
		r.mapPage(t, 1, 0x1000, iommu.PermRW)
		r.oneShot(faultinject.Drop, 0)
		var op DMA
		var got error
		var at sim.Time
		done := doneFunc(func(_ *DMA, err error) { got, at = err, r.eng.Now() })
		if write {
			r.port.WriteOp(&op, 1, 0x1000, []byte{1, 2}, done)
		} else {
			r.port.ReadOp(&op, 1, 0x1000, make([]byte, 2), done)
		}
		r.eng.Run()
		var inj *InjectedError
		if !errors.As(got, &inj) || at != 100 {
			t.Fatalf("write=%v: err=%v at %v, want InjectedError at one link latency", write, got, at)
		}
		if want := map[bool]string{false: "DMA read", true: "DMA write"}[write]; inj.Op != want {
			t.Errorf("InjectedError.Op = %q, want %q", inj.Op, want)
		}
		if st := r.fab.Stats(); st.DMAs != 0 || r.port.busy.Jobs() != 0 {
			t.Errorf("dropped transfer was accounted: %+v", st)
		}
		// The record is idle again and the next transfer passes.
		got = errors.New("not called")
		r.port.ReadOp(&op, 1, 0x1000, make([]byte, 2), done)
		r.eng.Run()
		if got != nil {
			t.Errorf("transfer after the drop: %v", got)
		}
	}
}

func TestDMARecordInjectedDupAndDelay(t *testing.T) {
	costs := Costs{LinkLatency: 100, BytesPerNs: 1}
	r := newRig(t, costs)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	var op DMA
	buf := make([]byte, 10)
	calls := 0
	var at sim.Time
	done := doneFunc(func(_ *DMA, err error) {
		if err != nil {
			t.Fatal(err)
		}
		calls++
		at = r.eng.Now()
	})
	// Warm the TLB so every transfer below costs 100 + 10.
	r.port.ReadOp(&op, 1, 0x1000, buf, done)
	r.eng.Run()

	r.oneShot(faultinject.Dup, 0)
	calls = 0
	start, jobs := r.eng.Now(), r.port.busy.Jobs()
	r.port.ReadOp(&op, 1, 0x1000, buf, done)
	r.eng.Run()
	if calls != 1 || at.Sub(start) != 220 || r.port.busy.Jobs()-jobs != 2 {
		t.Errorf("dup: %d completions at +%v over %d jobs, want 1 at +220 (behind the duplicate) over 2",
			calls, at.Sub(start), r.port.busy.Jobs()-jobs)
	}
	if st := r.fab.Stats(); st.DMAs != 2 {
		t.Errorf("dup counted as a DMA of its own: %+v", st)
	}

	r.oneShot(faultinject.Delay, 1000)
	calls = 0
	start = r.eng.Now()
	r.port.WriteOp(&op, 1, 0x1000, buf, done)
	r.eng.Run()
	if calls != 1 || at.Sub(start) != 1110 {
		t.Errorf("delay: %d completions at +%v, want 1 at +1110", calls, at.Sub(start))
	}
}

// TestDMAWindowStallDrainShed fills the window and its FIFO of 4× the
// window: the first DMAWindow transfers go to the engine, the next
// 4×DMAWindow stall and drain in order as slots free, and the one after is
// shed with a typed error after one link latency. The drain runs after the
// completion, as it always has: a transfer issued from inside DMADone takes
// the slot its own completion just freed, ahead of what is stalled.
func TestDMAWindowStallDrainShed(t *testing.T) {
	const w, stalled = DMAWindow, 4 * DMAWindow
	const n = w + stalled + 1
	r := newRig(t, Costs{LinkLatency: 100, BytesPerNs: 1})
	for va := iommu.VirtAddr(0x1000); va < 0x1000+8*n; va += physmem.PageSize {
		r.mapPage(t, 1, va, iommu.PermRW)
	}
	start := r.eng.Now()

	ops := make([]DMA, n)
	var order []int
	errs := make([]error, n)
	at := make([]sim.Time, n)
	var extra DMA
	extraDone := false
	for i := range ops {
		i := i
		data := binary.LittleEndian.AppendUint32(nil, uint32(i))
		r.port.WriteOp(&ops[i], 1, iommu.VirtAddr(0x1000+8*i), data, doneFunc(func(op *DMA, err error) {
			order = append(order, i)
			errs[i], at[i] = err, r.eng.Now()
			if i == 0 {
				// Issued before this transfer's drain runs.
				r.port.ReadOp(&extra, 1, 0x1000, make([]byte, 4), doneFunc(func(_ *DMA, err error) {
					if err != nil {
						t.Errorf("transfer issued from a completion: %v", err)
					}
					extraDone = true
					order = append(order, -1)
				}))
			}
		}))
	}
	if got := r.port.waitG.Max(); got != stalled {
		t.Errorf("stall FIFO peaked at %d, want %d", got, stalled)
	}
	r.eng.Run()

	var over *OverloadError
	if !errors.As(errs[n-1], &over) || over.Op != "DMA write" || at[n-1].Sub(start) != 100 {
		t.Errorf("last transfer: err=%v at +%v, want OverloadError at +100", errs[n-1], at[n-1].Sub(start))
	}
	want := []int{n - 1}
	for i := 0; i < n-1; i++ {
		if i == w {
			want = append(want, -1)
		}
		want = append(want, i)
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("completion order %v, want %v", order, want)
	}
	for i := 0; i < n-1; i++ {
		want := sim.Duration(104 * (i + 1))
		if i >= w {
			want += 104 // behind the transfer that took the freed slot
		}
		if errs[i] != nil || at[i].Sub(start) != want {
			t.Errorf("transfer %d: err=%v at +%v, want +%v", i, errs[i], at[i].Sub(start), want)
		}
	}
	if !extraDone || len(r.port.waiting) != 0 {
		t.Errorf("extraDone=%v, %d still waiting", extraDone, len(r.port.waiting))
	}
	if st := r.fab.Stats(); st.DMAStalls != stalled || st.DMAShed != 1 {
		t.Errorf("stats = %+v, want %d stalls and 1 shed", st, stalled)
	}
	// Every write landed in its own word.
	b := make([]byte, 4)
	for i := 0; i < n-1; i++ {
		pa, _, err := r.mmu.Translate(1, iommu.VirtAddr(0x1000+8*i), iommu.AccessRead)
		if err != nil {
			t.Fatal(err)
		}
		_ = r.mem.ReadInto(pa, b)
		if got := binary.LittleEndian.Uint32(b); got != uint32(i) {
			t.Errorf("word %d holds %d", i, got)
		}
	}
}

func TestDMARecordReissueWhilePendingPanics(t *testing.T) {
	r := newRig(t, DefaultCosts)
	r.mapPage(t, 1, 0x1000, iommu.PermRW)
	var op DMA
	done := doneFunc(func(*DMA, error) {})
	r.port.ReadOp(&op, 1, 0x1000, make([]byte, 2), done)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("issuing a pending record did not panic")
			}
		}()
		r.port.WriteOp(&op, 1, 0x1000, []byte{1}, done)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("issuing without a completion did not panic")
			}
		}()
		var other DMA
		r.port.ReadOp(&other, 1, 0x1000, make([]byte, 2), nil)
	}()
	r.eng.Run()
	if op.Pending() {
		t.Error("record still pending after its completion")
	}
}

// The callback form captures the payload at submission; the record form
// does not copy, and moves whatever the buffer holds when the engine
// fires. Both are contracts callers lean on.
func TestWriteOpDoesNotCopy(t *testing.T) {
	r := newRig(t, DefaultCosts)
	f := r.mapPage(t, 1, 0x1000, iommu.PermRW)
	var op DMA
	buf := []byte{1, 2, 3, 4}
	r.port.WriteOp(&op, 1, 0x1000, buf, doneFunc(func(*DMA, error) {}))
	buf[0] = 99
	r.eng.Run()
	got := make([]byte, 4)
	_ = r.mem.ReadInto(f.Addr(), got)
	if got[0] != 99 {
		t.Errorf("WriteOp copied its payload: memory holds %v", got)
	}
}
