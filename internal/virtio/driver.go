package virtio

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/sim"
)

// DriverStats counts driver-side queue activity.
type DriverStats struct {
	Submitted uint64
	Completed uint64
	Kicks     uint64
	Errors    uint64
}

// Driver is the requester half of a virtqueue. It allocates descriptor
// pairs (request cell + response cell), publishes them on the available
// ring, and reaps completions from the used ring. All ring and buffer
// accesses are DMAs through the owning device's port.
//
// Not safe for use from multiple goroutines; the simulation is
// single-threaded by design.
type Driver struct {
	port  *interconnect.Port
	pasid iommu.PASID
	lay   Layout

	// reqBell is the endpoint's doorbell (rung after publishing).
	reqBell interconnect.DoorbellAddr
	// RespBell is this driver's own doorbell address; the endpoint rings
	// it after publishing used entries. Registered by NewDriver.
	RespBell interconnect.DoorbellAddr

	// freePairs holds head indices of free descriptor pairs (head even,
	// tail = head+1).
	freePairs []uint16
	availIdx  uint16 // next avail index to publish
	usedSeen  uint16 // next used index to reap

	// pairs holds each descriptor pair's record at head/2, built on the
	// pair's first use and kept for the life of the ring: state shaped
	// like the descriptor table, not a pool.
	pairs    []*driverPair
	inflight int // pairs with a completion outstanding

	// KickBatch publishes a doorbell only every N submissions (E9
	// ablation). Flush() forces one.
	KickBatch int
	// FlushAfter bounds how long a submission can sit unannounced when
	// KickBatch > 1 (a partial batch is flushed by timer). Defaults to
	// 10us when batching is enabled.
	FlushAfter sim.Duration
	unkicked   int
	flush      sim.Timer // armed with flushDue while a partial batch waits

	// dead: a transport-level failure (a DMA fault after an unmap, a
	// corrupt ring) failed every request in flight, and the queue takes no
	// more.
	dead bool

	// The reap loop runs one step at a time, so it is one DMA record and
	// the stage that record is in: used index, then per entry the used
	// element and (when it has a response) the response cell.
	reaping  bool
	reapDMA  interconnect.DMA
	reapAt   reapStage
	reapTo   uint16      // used index being consumed up to
	reapPair *driverPair // reapResp: whose response cell is being read
	// reapBuf receives the index and the element; they are decoded inside
	// the completion, before the record is reissued.
	reapBuf [usedElemSize]byte
	// reapResp receives a response cell, grown to the longest response
	// reaped. The loop is serial, so one buffer serves every pair: a
	// completion borrows it for the length of its RequestDone, and the
	// next response is read into it only after that returns.
	reapResp []byte

	stats DriverStats
}

type reapStage uint8

const (
	reapIdx reapStage = iota
	reapElem
	reapResp
)

// driverPair is everything one descriptor pair has in flight on the
// driver's side: the request's completion and the four publication
// writes with the ring bytes they carry. The port serializes DMAs FIFO,
// so the avail-index store lands after the payload, descriptors and ring
// slot — the VIRTIO publication ordering contract — and the endpoint
// cannot see, let alone return, the chain before all four have completed.
// That is what makes one record per pair safe to reuse: a used entry for
// a pair with a write still outstanding can only come from a corrupt ring
// and fails the queue.
//
// The contract assumes ring and cell pages are mapped before the queue
// runs (connection setup maps the whole shared region): a write that took
// the port's fault-retry path leaves the FIFO and can land after the index
// behind it. Then the peer reads a chain that is not there yet, and a used
// entry that overtakes the straggler is refused here like any other — the
// queue fails, it does not panic.
type driverPair struct {
	d    *Driver
	head uint16
	// done is the request's completion; nil when none is outstanding.
	done Completion

	cellW, descW, slotW, idxW interconnect.DMA
	descs                     [2 * descSize]byte
	slot, idx                 [2]byte
}

// NewDriver builds the requester half over an established layout and
// registers the response doorbell.
func NewDriver(port *interconnect.Port, pasid iommu.PASID, lay Layout, reqBell interconnect.DoorbellAddr) (*Driver, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{
		port:      port,
		pasid:     pasid,
		lay:       lay,
		reqBell:   reqBell,
		pairs:     make([]*driverPair, lay.Entries/2),
		KickBatch: 1,
	}
	for i := uint16(0); i < lay.Entries; i += 2 {
		d.freePairs = append(d.freePairs, i)
	}
	d.RespBell = port.Fabric().AllocDoorbell(func(uint64) { d.reap() })
	return d, nil
}

// Stats returns a copy of the counters.
func (d *Driver) Stats() DriverStats { return d.stats }

// SetRequestBell binds the endpoint's request doorbell after connection
// setup (the provider advertises it in its ConnectResp).
func (d *Driver) SetRequestBell(addr uint64) {
	d.reqBell = interconnect.DoorbellAddr(addr)
}

// Capacity returns how many requests can be in flight at once.
func (d *Driver) Capacity() int { return int(d.lay.Entries) / 2 }

// CellSize returns the buffer cell size (per-request payload bound).
func (d *Driver) CellSize() int { return d.lay.CellSize }

// InFlight returns the number of outstanding requests.
func (d *Driver) InFlight() int { return d.inflight }

// fail kills the queue and fails every outstanding request, in ascending
// head order.
func (d *Driver) fail(err error) {
	if d.dead {
		return
	}
	d.dead = true
	d.stats.Errors++
	for _, s := range d.pairs {
		if s == nil || s.done == nil {
			continue
		}
		done := s.done
		s.done = nil
		d.inflight--
		done.RequestDone(nil, fmt.Errorf("virtio: queue failed: %w", err))
	}
}

// Dead reports whether the queue has failed.
func (d *Driver) Dead() bool { return d.dead }

// Abort kills the queue from the driver side, failing every outstanding
// request — used when the owner learns out-of-band (a DeviceFailed
// broadcast) that the peer is gone and replies will never arrive.
func (d *Driver) Abort(err error) { d.fail(err) }

// Quiesce kills the queue without running any completion callback — for
// the case where the driver's *owner* crashed: the pending continuations
// belong to the dead incarnation and must never fire. The response
// doorbell is unregistered, failed queue or not, to reclaim the slot.
func (d *Driver) Quiesce() {
	d.port.Fabric().UnregisterDoorbell(d.RespBell)
	if d.dead {
		return
	}
	d.dead = true
	for _, s := range d.pairs {
		if s != nil {
			s.done = nil
		}
	}
	d.inflight = 0
	d.flush.Stop()
}

// pair returns head's record, building it on first use.
func (d *Driver) pair(head uint16) *driverPair {
	s := d.pairs[head/2]
	if s == nil {
		s = &driverPair{d: d, head: head}
		d.pairs[head/2] = s
	}
	return s
}

// Completion receives the end of a request: the endpoint's response, or
// the error that failed the queue. resp is borrowed, as a byte field of
// msg.Decode is: it is the driver's reap buffer, valid until RequestDone
// returns, so a completion copies what it keeps. A per-request record can
// be the completion itself.
type Completion interface {
	RequestDone(resp []byte, err error)
}

// SubmitOp posts one request; the response buffer is the pair's second
// cell. req is taken, not copied: it is the queue's, unmodified, until done
// runs (the port moves it when the payload write fires). SubmitOp returns
// an error synchronously when the request cannot be posted (queue full,
// oversized request, dead queue) — nothing is in flight in that case.
func (d *Driver) SubmitOp(req []byte, done Completion) error {
	if d.dead {
		return fmt.Errorf("virtio: submit on dead queue")
	}
	if len(req) > d.lay.CellSize {
		return fmt.Errorf("virtio: request of %d bytes exceeds cell size %d", len(req), d.lay.CellSize)
	}
	if len(d.freePairs) == 0 {
		return fmt.Errorf("virtio: queue full (%d in flight)", d.inflight)
	}
	head := d.freePairs[len(d.freePairs)-1]
	d.freePairs = d.freePairs[:len(d.freePairs)-1]
	tail := head + 1
	s := d.pair(head)
	s.done = done
	d.inflight++
	d.stats.Submitted++

	slot := d.availIdx % d.lay.Entries
	idx := d.availIdx + 1
	d.availIdx = idx

	// Payload, descriptors, ring slot, then avail index, FIFO on one port
	// (see driverPair).
	d.port.WriteOp(&s.cellW, d.pasid, d.lay.cellVA(head), req, s)
	putDesc(s.descs[:descSize], desc{Addr: uint64(d.lay.cellVA(head)), Len: uint32(len(req)), Flags: flagNext, Next: tail})
	putDesc(s.descs[descSize:], desc{Addr: uint64(d.lay.cellVA(tail)), Len: uint32(d.lay.CellSize), Flags: flagWrite})
	d.port.WriteOp(&s.descW, d.pasid, d.lay.descVA(head), s.descs[:], s)
	binary.LittleEndian.PutUint16(s.slot[:], head)
	d.port.WriteOp(&s.slotW, d.pasid, d.lay.availRingVA(slot), s.slot[:], s)
	binary.LittleEndian.PutUint16(s.idx[:], idx)
	d.port.WriteOp(&s.idxW, d.pasid, d.lay.availIdxVA(), s.idx[:], s)
	return nil
}

// publishing reports whether any of the pair's publication writes is still
// on the port.
func (s *driverPair) publishing() bool {
	return s.cellW.Pending() || s.descW.Pending() || s.slotW.Pending() || s.idxW.Pending()
}

// DMADone is the completion of each of the pair's publication writes;
// only the avail-index store has anything to do on success.
func (s *driverPair) DMADone(op *interconnect.DMA, err error) {
	d := s.d
	if err != nil {
		d.fail(err)
		return
	}
	if op != &s.idxW {
		return
	}
	d.unkicked++
	if d.KickBatch <= 1 || d.unkicked >= d.KickBatch {
		d.Flush()
		return
	}
	// Partial batch: arm the flush timer so requests cannot strand.
	if !d.flush.Pending() {
		after := d.FlushAfter
		if after <= 0 {
			after = 10 * sim.Microsecond
		}
		d.flush.Arm(d.port.Fabric().Engine(), after, (*flushDue)(d))
	}
}

// flushDue is the driver as the event that flushes a partial batch.
type flushDue Driver

func (f *flushDue) Fire() { (*Driver)(f).Flush() }

// Flush rings the endpoint's doorbell if there are unannounced requests.
func (d *Driver) Flush() {
	if d.dead || d.unkicked == 0 {
		return
	}
	d.unkicked = 0
	d.flush.Stop()
	d.stats.Kicks++
	d.port.Fabric().Ring(d.reqBell, uint64(d.availIdx))
}

// reap drains the used ring. One reap loop runs at a time.
func (d *Driver) reap() {
	if d.reaping || d.dead {
		return
	}
	d.reaping = true
	d.readUsedIdx()
}

func (d *Driver) readUsedIdx() {
	d.reapAt = reapIdx
	d.port.ReadOp(&d.reapDMA, d.pasid, d.lay.usedIdxVA(), d.reapBuf[:2], d)
}

// consumeUsed processes used entries up to reapTo, one at a time, then
// re-reads the index.
func (d *Driver) consumeUsed() {
	if d.usedSeen == d.reapTo {
		d.readUsedIdx()
		return
	}
	slot := d.usedSeen % d.lay.Entries
	d.reapAt = reapElem
	d.port.ReadOp(&d.reapDMA, d.pasid, d.lay.usedRingVA(slot), d.reapBuf[:], d)
}

// DMADone is the reap loop's next step: the completion of reapDMA in
// whatever stage it was issued for.
func (d *Driver) DMADone(op *interconnect.DMA, err error) {
	if err != nil {
		d.reaping = false
		d.fail(err)
		return
	}
	switch d.reapAt {
	case reapIdx:
		idx := binary.LittleEndian.Uint16(d.reapBuf[:])
		if idx == d.usedSeen {
			d.reaping = false
			return
		}
		d.reapTo = idx
		d.consumeUsed()
	case reapElem:
		id, respLen := decodeUsedElem(d.reapBuf[:])
		head := uint16(id)
		var s *driverPair
		if head < d.lay.Entries && head%2 == 0 {
			s = d.pairs[head/2]
		}
		// A used entry is believed only for a pair that has a request
		// outstanding and nothing of its publication still in flight:
		// these bytes are the peer's, and they must not be able to free a
		// record the port still holds.
		if s == nil || s.done == nil || s.publishing() || respLen > uint32(d.lay.CellSize) {
			d.reaping = false
			d.fail(fmt.Errorf("virtio: corrupt used entry id=%d len=%d", id, respLen))
			return
		}
		d.usedSeen++
		if respLen == 0 {
			d.finish(s, nil)
			return
		}
		if cap(d.reapResp) < int(respLen) {
			d.reapResp = make([]byte, respLen)
		}
		d.reapPair = s
		d.reapAt = reapResp
		d.port.ReadOp(&d.reapDMA, d.pasid, d.lay.cellVA(head+1), d.reapResp[:respLen], d)
	case reapResp:
		s := d.reapPair
		if s.done == nil {
			// Quiesce or fail took the request while its response was on the
			// port (a reset cancels no DMA): the pair is already accounted
			// for, and nothing may fire.
			d.reaping = false
			return
		}
		// The completion borrows the reap buffer (see Completion).
		d.finish(s, op.Bytes())
	}
}

// finish frees the pair, completes its request and moves on to the next
// used entry. The completion may Submit, and may get this same pair.
func (d *Driver) finish(s *driverPair, resp []byte) {
	done := s.done
	s.done = nil
	d.inflight--
	d.freePairs = append(d.freePairs, s.head)
	d.stats.Completed++
	done.RequestDone(resp, nil)
	d.consumeUsed()
}
