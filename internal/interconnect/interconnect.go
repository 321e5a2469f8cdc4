// Package interconnect models the machine's data plane: the memory
// interconnect over which devices DMA to shared physical memory and ring
// each other's doorbells.
//
// §2.3 of "The Last CPU" requires the data plane (high-throughput memory
// access) to be separate from the control plane (the message-decoding
// system-management bus). This package is the data plane: it knows nothing
// about discovery, services or policy. Every DMA is translated through the
// issuing device's IOMMU, so isolation is enforced on the data path
// itself, not by convention.
//
// Notifications are modeled as the paper describes: "a memory write to a
// special address", like PCI MSI or an RDMA doorbell.
package interconnect

import (
	"bytes"
	"fmt"

	"nocpu/internal/faultinject"
	"nocpu/internal/iommu"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

// Costs hold the timing model for the data plane. Values are loosely
// calibrated to a PCIe-4.0-class fabric and DDR4 memory; the experiment
// harness sweeps the interesting ones.
type Costs struct {
	// LinkLatency is the one-way propagation latency of a DMA or doorbell.
	LinkLatency sim.Duration
	// BytesPerNs is link bandwidth (16 = 16 GB/s).
	BytesPerNs float64
	// TLBLookup is charged per translated page on a TLB hit.
	TLBLookup sim.Duration
	// WalkRead is charged per page-table read on a TLB miss.
	WalkRead sim.Duration
	// DoorbellLatency is the delivery latency of a doorbell write.
	DoorbellLatency sim.Duration
}

// DMAWindow bounds each port's outstanding DMA transfers: further
// transfers wait in a bounded port-local FIFO (4× the window) and overflow
// fails the transfer with an OverloadError — bounded queues with a
// deterministic shed policy instead of unbounded engine backlog.
const DMAWindow = 256

// DefaultCosts is the baseline calibration used by the experiments.
var DefaultCosts = Costs{
	LinkLatency:     500 * sim.Nanosecond,
	BytesPerNs:      16,
	TLBLookup:       2 * sim.Nanosecond,
	WalkRead:        80 * sim.Nanosecond,
	DoorbellLatency: 400 * sim.Nanosecond,
}

// DoorbellAddr identifies a doorbell register. The paper's model is a
// write to a special physical address; we give each device a register
// block keyed by these addresses.
type DoorbellAddr uint64

// DoorbellHandler receives the written value at delivery time.
type DoorbellHandler func(value uint64)

// Fabric is the shared interconnect: one serialization domain per
// attached device port plus the doorbell address space.
type Fabric struct {
	eng   *sim.Engine
	mem   *physmem.Memory
	costs Costs
	bells map[DoorbellAddr]DoorbellHandler
	// nextBell hands out unique doorbell register addresses; the address
	// space is flat and never reused within a run.
	nextBell DoorbellAddr
	stats    FabricStats
	// plane, when set, judges every doorbell and DMA (fault injection);
	// nil is a pass-through.
	plane *faultinject.Plane
	// rings holds delivered doorbell writes' records (doorbell.Fire).
	rings sim.Free[doorbell]
}

// FabricStats counts data-plane traffic.
type FabricStats struct {
	DMAs          uint64
	BytesMoved    uint64
	Doorbells     uint64
	Faults        uint64
	TotalDMATime  sim.Duration
	TotalWaitTime sim.Duration
	// DMAStalls counts transfers that waited for DMA-window capacity;
	// DMAShed counts transfers refused with an OverloadError because a
	// port's stall FIFO overflowed.
	DMAStalls uint64
	DMAShed   uint64
}

// NewFabric creates a fabric over mem with the given timing model.
func NewFabric(eng *sim.Engine, mem *physmem.Memory, costs Costs) *Fabric {
	if costs.BytesPerNs <= 0 {
		costs.BytesPerNs = DefaultCosts.BytesPerNs
	}
	return &Fabric{eng: eng, mem: mem, costs: costs, bells: make(map[DoorbellAddr]DoorbellHandler)}
}

// Memory exposes the backing physical memory. Only privileged components
// (the system bus, the memory controller) may use it directly; devices go
// through a Port.
func (f *Fabric) Memory() *physmem.Memory { return f.mem }

// Engine returns the simulation engine driving the fabric.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Stats returns a copy of the traffic counters.
func (f *Fabric) Stats() FabricStats { return f.stats }

// SetFaultPlane installs the fault injector on the data plane
// (faultinject.LayerLink). A nil plane disables injection.
func (f *Fabric) SetFaultPlane(p *faultinject.Plane) { f.plane = p }

// InjectedError is the typed failure a DMA reports when the fault plane
// lost the transfer; callers distinguish it from translation faults.
type InjectedError struct{ Op string }

func (e *InjectedError) Error() string {
	return "interconnect: " + e.Op + " lost (injected fault)"
}

// OverloadError is the typed failure a DMA reports when the port's
// bounded stall FIFO overflowed: the transfer was shed, not lost — the
// caller knows immediately and can retry or surface the pushback.
type OverloadError struct{ Op string }

func (e *OverloadError) Error() string {
	return "interconnect: " + e.Op + " shed (DMA window full)"
}

// RegisterDoorbell binds a handler to a doorbell address. Registering an
// address twice is a wiring bug and panics.
func (f *Fabric) RegisterDoorbell(addr DoorbellAddr, h DoorbellHandler) {
	if _, dup := f.bells[addr]; dup {
		panic(fmt.Sprintf("interconnect: doorbell %#x registered twice", uint64(addr)))
	}
	f.bells[addr] = h
}

// AllocDoorbell reserves a fresh doorbell address and binds the handler.
// Devices allocate doorbells for their queue endpoints and advertise the
// addresses in ConnectReq messages.
func (f *Fabric) AllocDoorbell(h DoorbellHandler) DoorbellAddr {
	f.nextBell++
	addr := f.nextBell
	f.RegisterDoorbell(addr, h)
	return addr
}

// UnregisterDoorbell removes a doorbell binding (device teardown).
func (f *Fabric) UnregisterDoorbell(addr DoorbellAddr) { delete(f.bells, addr) }

// Ring posts a doorbell write. Delivery happens after the doorbell
// latency; an unregistered doorbell is silently dropped (the write lands
// in a dead register), matching hardware behaviour.
func (f *Fabric) Ring(addr DoorbellAddr, value uint64) {
	f.stats.Doorbells++
	lat := f.costs.DoorbellLatency
	d := f.plane.Filter(faultinject.LayerLink, f.eng.Now(), 0, 0, msg.KindInvalid)
	switch d.Op {
	case faultinject.Drop:
		// A doorbell is a posted write that always lands eventually; the
		// closest physical fault is an arbitration stall. Demote Drop to a
		// long delay so a queue cannot hang forever on a lost notification.
		lat += d.Delay + 8*f.costs.DoorbellLatency
	case faultinject.Delay, faultinject.Reorder:
		lat += d.Delay
	case faultinject.Dup:
		// A doubled posted write: the handler runs twice (virtio handlers
		// tolerate spurious notifications by re-scanning the ring). Each
		// copy is its own record, since each goes back when it fires.
		f.post(lat, addr, value)
	}
	f.post(lat, addr, value)
}

// post queues one delivery of a doorbell write.
func (f *Fabric) post(lat sim.Duration, addr DoorbellAddr, value uint64) {
	b := f.rings.Get()
	b.f, b.addr, b.value = f, addr, value
	f.eng.Schedule(lat, b)
}

// doorbell is one posted doorbell write on its way to the register. Only
// the event queue holds it, so it goes back on its fabric's list as it
// fires, before the handler runs: a handler that rings again takes it.
type doorbell struct {
	f     *Fabric
	addr  DoorbellAddr
	value uint64
}

func (b *doorbell) Fire() {
	f, addr, value := b.f, b.addr, b.value
	f.rings.Put(b)
	if h, ok := f.bells[addr]; ok {
		h(value)
	}
}

// FaultHandler receives a translation fault delivered to the device (§4:
// "the IOMMU would deliver any faults to its attached device"). The
// handler must eventually call exactly one of retry (after resolving the
// fault, e.g. demand-allocating the page) or fail (to surface the error
// to the operation's callback).
type FaultHandler func(f *iommu.Fault, retry func(), fail func(error))

// Port is one device's attachment to the fabric: a DMA engine bound to
// that device's IOMMU. All transfers are expressed in device-virtual
// addresses within a PASID; the port translates page by page.
type Port struct {
	fab  *Fabric
	mmu  *iommu.IOMMU
	busy *sim.Server // serializes this device's DMA engine
	// faultHandler, when set, gets a chance to resolve not-present
	// faults (demand paging) before the operation fails.
	faultHandler FaultHandler
	// waiting holds transfers stalled on the DMA window, FIFO, bounded at
	// 4× the window; overflow sheds with an OverloadError.
	waiting []stalledDMA
	// waitG gauges the FIFO's depth; a test reads its high-water mark.
	waitG *metrics.Gauge
}

// stalledDMA is a translated, accounted transfer waiting for a window
// slot, with the service time it will be charged.
type stalledDMA struct {
	op      *DMA
	service sim.Duration
}

// maxFaultRetries bounds demand-paging retries per operation: a handler
// that "resolves" without actually mapping cannot livelock the port.
const maxFaultRetries = 4

// SetFaultHandler installs the device's page-fault policy. Only
// not-present faults are offered to it; permission and addressing faults
// always fail the operation (they indicate bugs or revocations, not
// demand-paging opportunities).
func (p *Port) SetFaultHandler(h FaultHandler) { p.faultHandler = h }

// NewPort attaches a device (with its IOMMU) to the fabric. The device's
// name labels the call; the port keeps none.
func (f *Fabric) NewPort(_ string, mmu *iommu.IOMMU) *Port {
	p := &Port{fab: f, mmu: mmu, busy: sim.NewServer(f.eng)}
	p.waitG = metrics.NewGauge(4 * DMAWindow)
	return p
}

// submitDMA admits a transfer to the port's DMA engine under the window:
// within the window it goes straight to the engine;
// past it the transfer waits in the bounded FIFO, and past the FIFO's
// bound it is shed: submitDMA reports false and the caller delivers the
// transfer's OverloadError, after a link latency like any other data-plane
// failure.
func (p *Port) submitDMA(service sim.Duration, op *DMA) bool {
	if p.busy.Pending() < DMAWindow {
		p.busy.Submit(service, op)
		return true
	}
	if len(p.waiting) >= 4*DMAWindow {
		p.fab.stats.DMAShed++
		return false
	}
	p.fab.stats.DMAStalls++
	p.waiting = append(p.waiting, stalledDMA{op: op, service: service})
	p.waitG.Set(len(p.waiting))
	return true
}

// drainDMA moves stalled transfers into freed window slots, FIFO. It runs
// after a transfer's completion while any wait.
func (p *Port) drainDMA() {
	for len(p.waiting) > 0 && p.busy.Pending() < DMAWindow {
		next := p.waiting[0]
		p.waiting[0] = stalledDMA{}
		p.waiting = p.waiting[1:]
		p.busy.Submit(next.service, next.op)
	}
	if len(p.waiting) == 0 {
		p.waiting = nil
	}
	p.waitG.Set(len(p.waiting))
}

// Fabric returns the fabric this port attaches to (for doorbell access).
func (p *Port) Fabric() *Fabric { return p.fab }

// transferTime computes the service time of an n-byte transfer that
// performed walkReads page-table reads and touched pages pages.
func (p *Port) transferTime(n, pages, walkReads int) sim.Duration {
	c := p.fab.costs
	d := c.LinkLatency
	d += sim.Duration(float64(n) / c.BytesPerNs)
	d += sim.Duration(pages) * c.TLBLookup
	d += sim.Duration(walkReads) * c.WalkRead
	return d
}

// translateRange resolves [va, va+n) page by page into exts, returning
// the total number of walk reads.
func (p *Port) translateRange(pasid iommu.PASID, va iommu.VirtAddr, n int, access iommu.Access, exts *extents) (int, error) {
	exts.n, exts.spill = 0, nil
	walks := 0
	remaining := n
	cur := va
	for remaining > 0 {
		pa, reads, err := p.mmu.Translate(pasid, cur, access)
		walks += reads
		if err != nil {
			return walks, err
		}
		pageEnd := (uint64(cur) &^ (physmem.PageSize - 1)) + physmem.PageSize
		chunk := int(pageEnd - uint64(cur))
		if chunk > remaining {
			chunk = remaining
		}
		exts.add(extent{pa: pa, n: chunk})
		cur += iommu.VirtAddr(chunk)
		remaining -= chunk
	}
	return walks, nil
}

type extent struct {
	pa physmem.Addr
	n  int
}

// extents is the physical footprint of one transfer, one extent per page
// touched. A transfer of up to a page touches at most two, and those are
// kept inline so that the ring-index and cell DMAs allocate nothing for
// them; only a longer transfer spills.
type extents struct {
	inline [2]extent
	spill  []extent
	n      int
}

func (x *extents) add(e extent) {
	if x.n < len(x.inline) {
		x.inline[x.n] = e
	} else {
		x.spill = append(x.spill, e)
	}
	x.n++
}

func (x *extents) at(i int) extent {
	if i < len(x.inline) {
		return x.inline[i]
	}
	return x.spill[i-len(x.inline)]
}

// dmaError is a transfer's rare path, a link latency after the error: a
// translation fault on its way to the device's fault handler (not-present
// faults, retries remaining), or to the transfer's completion.
type dmaError struct {
	op       *DMA
	err      error
	pasid    iommu.PASID
	va       iommu.VirtAddr
	attempts int
}

func (e *dmaError) Fire() {
	p := e.op.port
	// Not-present and bad-PASID faults are demand-resolvable (the first
	// touch of a fresh address space has no context yet); permission and
	// range faults are not.
	f, isFault := e.err.(*iommu.Fault)
	resolvable := isFault && (f.Reason == iommu.FaultNotPresent || f.Reason == iommu.FaultBadPASID)
	if resolvable && p.faultHandler != nil && e.attempts < maxFaultRetries {
		p.faultHandler(f, e.retry, e.op.finish)
		return
	}
	e.op.finish(e.err)
}

// retry re-enters a transfer whose fault the handler resolved.
func (e *dmaError) retry() { e.op.port.start(e.op, e.pasid, e.va, e.attempts+1) }

// Completion receives the end of a transfer. op is the record that was
// issued, idle again and free to reissue from inside the call.
type Completion interface {
	DMADone(op *DMA, err error)
}

// DMA is one transfer, as a record its issuer owns: it carries the
// translated extents, the bytes and the completion, and it is itself the
// event the port's DMA engine fires when the transfer's service time has
// elapsed — so issuing a transfer allocates nothing. A device embeds one
// DMA for each transfer it can have outstanding at once (see
// internal/virtio) and reissues it once its completion has run; issuing a
// record that is still in flight is a model bug and panics. A DMA must not
// be copied while pending: the engine holds its address. The zero DMA is
// ready to issue.
//
// The record is kept small on purpose. What only the rare paths need — the
// address to retry after a fault, the typed error of a lost or shed
// transfer — lives in the dmaError those paths schedule, not here.
type DMA struct {
	port *Port
	done Completion // nil unless pending
	// buf is the destination of a read or the payload of a write. It is
	// the issuer's: the port neither copies nor keeps it past completion.
	buf   []byte
	exts  extents
	write bool
}

// Pending reports whether the record has been issued and its completion
// has not yet run.
func (op *DMA) Pending() bool { return op.done != nil }

// Bytes returns the buffer the transfer was issued with: inside the
// completion of a read that ended without error, the bytes read. The record
// lets go of the buffer when its completion returns.
func (op *DMA) Bytes() []byte { return op.buf }

// ReadOp DMAs len(buf) bytes from (pasid, va) into buf and then calls
// done.DMADone(op, err). Translation faults arrive as done's error; per §4
// the device must handle them itself — a registered FaultHandler may
// resolve not-present faults (demand paging) and retry transparently. buf
// belongs to the transfer until done runs.
func (p *Port) ReadOp(op *DMA, pasid iommu.PASID, va iommu.VirtAddr, buf []byte, done Completion) {
	p.issue(op, pasid, va, buf, false, done)
}

// WriteOp DMAs data to (pasid, va) and calls done.DMADone(op, err) when
// the write is visible in memory. data is not copied: it must stay
// unmodified until done runs (Port.Write captures a copy for callers that
// cannot promise that). Not-present faults may be resolved by the
// FaultHandler as in ReadOp.
func (p *Port) WriteOp(op *DMA, pasid iommu.PASID, va iommu.VirtAddr, data []byte, done Completion) {
	p.issue(op, pasid, va, data, true, done)
}

func (p *Port) issue(op *DMA, pasid iommu.PASID, va iommu.VirtAddr, buf []byte, write bool, done Completion) {
	if op.done != nil {
		panic("interconnect: DMA record reused while in flight")
	}
	if done == nil {
		panic("interconnect: DMA without a completion")
	}
	op.port, op.done, op.buf, op.write = p, done, buf, write
	p.start(op, pasid, va, 0)
}

// opName names the transfer in typed errors.
func (op *DMA) opName() string {
	if op.write {
		return "DMA write"
	}
	return "DMA read"
}

// start translates, judges and queues a pending transfer; a resolved
// fault re-enters it with attempts+1.
func (p *Port) start(op *DMA, pasid iommu.PASID, va iommu.VirtAddr, attempts int) {
	n := len(op.buf)
	access := iommu.AccessRead
	if op.write {
		access = iommu.AccessWrite
	}
	walks, err := p.translateRange(pasid, va, n, access, &op.exts)
	if err != nil {
		p.fab.stats.Faults++
		p.fab.eng.Schedule(p.fab.costs.LinkLatency, &dmaError{op: op, err: err, pasid: pasid, va: va, attempts: attempts})
		return
	}
	d := p.fab.plane.Filter(faultinject.LayerLink, p.fab.eng.Now(), 0, 0, msg.KindInvalid)
	if d.Op == faultinject.Drop {
		// The transfer is lost on the link; surface a typed error after
		// the propagation delay — §4: devices handle their own errors.
		p.fab.eng.Schedule(p.fab.costs.LinkLatency, &dmaError{op: op, err: &InjectedError{Op: op.opName()}})
		return
	}
	wait := p.busy.Delay()
	service := p.transferTime(n, op.exts.n, walks)
	if d.Op == faultinject.Delay || d.Op == faultinject.Reorder {
		service += d.Delay
	}
	p.fab.stats.DMAs++
	p.fab.stats.BytesMoved += uint64(n)
	p.fab.stats.TotalDMATime += service
	p.fab.stats.TotalWaitTime += wait
	if d.Op == faultinject.Dup {
		// The duplicate transfer burns engine time and bandwidth; its data
		// is identical, so only the cost is observable.
		p.busy.Submit(service, dupTransfer{})
	}
	if !p.submitDMA(service, op) {
		p.fab.eng.Schedule(p.fab.costs.LinkLatency, &dmaError{op: op, err: &OverloadError{Op: op.opName()}})
	}
}

// dupTransfer is the completion of a duplicated transfer: it moves nothing.
type dupTransfer struct{}

func (dupTransfer) Fire() {}

// Fire is the DMA engine finishing the transfer: the bytes move, the
// completion runs, and the port admits what was stalled behind this
// transfer.
func (op *DMA) Fire() {
	p := op.port
	op.finish(op.move())
	if len(p.waiting) > 0 {
		p.drainDMA()
	}
}

// move copies between buf and the translated extents.
func (op *DMA) move() error {
	mem := op.port.fab.mem
	off := 0
	for i := 0; i < op.exts.n; i++ {
		e := op.exts.at(i)
		var err error
		if op.write {
			err = mem.Write(e.pa, op.buf[off:off+e.n])
		} else {
			err = mem.ReadInto(e.pa, op.buf[off:off+e.n])
		}
		if err != nil {
			return err
		}
		off += e.n
	}
	return nil
}

// finish makes the record idle and runs its completion, which may reissue
// it. A record left idle drops its buffer: a long-lived record must not pin
// the last payload it carried.
func (op *DMA) finish(err error) {
	done := op.done
	op.done = nil
	done.DMADone(op, err)
	if op.done == nil {
		op.buf = nil
	}
}

// readCall and writeCall adapt the callback forms to a record of their
// own.
type readCall struct {
	DMA
	done func([]byte, error)
}

func (c *readCall) DMADone(op *DMA, err error) {
	if err != nil {
		c.done(nil, err)
		return
	}
	c.done(op.buf, nil)
}

type writeCall struct {
	DMA
	done func(error)
}

func (c *writeCall) DMADone(_ *DMA, err error) { c.done(err) }

// Read is ReadOp for callers without a record of their own: it DMAs n
// bytes from (pasid, va) into a fresh buffer and delivers it to done. It
// and Write are kept for the benchmark's DMA probe (bench/probes.go) and
// the E12/E13 drivers; devices issue records.
func (p *Port) Read(pasid iommu.PASID, va iommu.VirtAddr, n int, done func([]byte, error)) {
	if n < 0 {
		panic("interconnect: negative DMA length")
	}
	c := &readCall{done: done}
	p.ReadOp(&c.DMA, pasid, va, make([]byte, n), c)
}

// Write is WriteOp for callers without a record of their own. The payload
// is captured now: the caller may reuse its buffer.
func (p *Port) Write(pasid iommu.PASID, va iommu.VirtAddr, data []byte, done func(error)) {
	c := &writeCall{done: done}
	p.WriteOp(&c.DMA, pasid, va, bytes.Clone(data), c)
}
