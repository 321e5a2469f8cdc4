package virtio

import (
	"fmt"
	"sort"

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

	pending map[uint16]func([]byte, error) // head -> completion

	// KickBatch publishes a doorbell only every N submissions (E9
	// ablation). Flush() forces one.
	KickBatch int
	// FlushAfter bounds how long a submission can sit unannounced when
	// KickBatch > 1 (a partial batch is flushed by timer). Defaults to
	// 10us when batching is enabled.
	FlushAfter sim.Duration
	unkicked   int
	flushTimer *sim.Timer

	// OnError receives transport-level failures (DMA faults after a
	// revoke, corrupt rings). After it fires the queue is dead.
	OnError func(error)
	dead    bool
	reaping bool
	// failIfErr is the completion of every DMA write whose success needs
	// no action; built once, not per write.
	failIfErr func(error)

	stats DriverStats
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
		pending:   make(map[uint16]func([]byte, error)),
		KickBatch: 1,
	}
	for i := uint16(0); i < lay.Entries; i += 2 {
		d.freePairs = append(d.freePairs, i)
	}
	d.failIfErr = func(err error) {
		if err != nil {
			d.fail(err)
		}
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
func (d *Driver) InFlight() int { return len(d.pending) }

// fail kills the queue and fails every outstanding request.
func (d *Driver) fail(err error) {
	if d.dead {
		return
	}
	d.dead = true
	d.stats.Errors++
	heads := make([]uint16, 0, len(d.pending))
	for head := range d.pending {
		heads = append(heads, head)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	for _, head := range heads {
		cb := d.pending[head]
		delete(d.pending, head)
		cb(nil, fmt.Errorf("virtio: queue failed: %w", err))
	}
	if d.OnError != nil {
		d.OnError(err)
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
// doorbell is unregistered so the fabric slot is reclaimed.
func (d *Driver) Quiesce() {
	if d.dead {
		return
	}
	d.dead = true
	d.pending = make(map[uint16]func([]byte, error))
	if d.flushTimer != nil {
		d.flushTimer.Stop()
		d.flushTimer = nil
	}
	d.port.Fabric().UnregisterDoorbell(d.RespBell)
}

// Submit posts one request. The response buffer is the pair's second
// cell; done receives the endpoint's response bytes. Submit returns an
// error synchronously when the request cannot be posted (queue full,
// oversized request, dead queue) — nothing is in flight in that case.
func (d *Driver) Submit(req []byte, done func(resp []byte, err error)) error {
	if d.dead {
		return fmt.Errorf("virtio: submit on dead queue")
	}
	if len(req) > d.lay.CellSize {
		return fmt.Errorf("virtio: request of %d bytes exceeds cell size %d", len(req), d.lay.CellSize)
	}
	if len(d.freePairs) == 0 {
		return fmt.Errorf("virtio: queue full (%d in flight)", len(d.pending))
	}
	head := d.freePairs[len(d.freePairs)-1]
	d.freePairs = d.freePairs[:len(d.freePairs)-1]
	tail := head + 1
	d.pending[head] = done
	d.stats.Submitted++

	slot := d.availIdx % d.lay.Entries
	idx := d.availIdx + 1
	d.availIdx = idx

	// The port serializes DMAs FIFO, so the avail-index store is
	// guaranteed to land after the payload, descriptors and ring slot —
	// the VIRTIO publication ordering contract.
	d.port.Write(d.pasid, d.lay.cellVA(head), req, d.failIfErr)
	descs := append(
		encodeDesc(desc{Addr: uint64(d.lay.cellVA(head)), Len: uint32(len(req)), Flags: flagNext, Next: tail}),
		encodeDesc(desc{Addr: uint64(d.lay.cellVA(tail)), Len: uint32(d.lay.CellSize), Flags: flagWrite})...)
	d.port.Write(d.pasid, d.lay.descVA(head), descs, d.failIfErr)
	var slotBytes [2]byte
	slotBytes[0], slotBytes[1] = byte(head), byte(head>>8)
	d.port.Write(d.pasid, d.lay.availRingVA(slot), slotBytes[:], d.failIfErr)
	d.port.WriteU16(d.pasid, d.lay.availIdxVA(), idx, func(err error) {
		if err != nil {
			d.fail(err)
			return
		}
		d.unkicked++
		if d.KickBatch <= 1 || d.unkicked >= d.KickBatch {
			d.Flush()
			return
		}
		// Partial batch: arm the flush timer so requests cannot strand.
		if d.flushTimer == nil {
			after := d.FlushAfter
			if after <= 0 {
				after = 10 * sim.Microsecond
			}
			d.flushTimer = d.port.Fabric().Engine().After(after, func() {
				d.flushTimer = nil
				d.Flush()
			})
		}
	})
	return nil
}

// Flush rings the endpoint's doorbell if there are unannounced requests.
func (d *Driver) Flush() {
	if d.dead || d.unkicked == 0 {
		return
	}
	d.unkicked = 0
	if d.flushTimer != nil {
		d.flushTimer.Stop()
		d.flushTimer = nil
	}
	d.stats.Kicks++
	d.port.Fabric().Ring(d.reqBell, uint64(d.availIdx))
}

// reap drains the used ring. One reap loop runs at a time.
func (d *Driver) reap() {
	if d.reaping || d.dead {
		return
	}
	d.reaping = true
	d.reapStep()
}

func (d *Driver) reapStep() {
	d.port.ReadU16(d.pasid, d.lay.usedIdxVA(), func(idx uint16, err error) {
		if err != nil {
			d.reaping = false
			d.fail(err)
			return
		}
		if idx == d.usedSeen {
			d.reaping = false
			return
		}
		d.consumeUsed(idx)
	})
}

// consumeUsed processes used entries up to idx, one at a time, then
// re-reads the index.
func (d *Driver) consumeUsed(idx uint16) {
	if d.usedSeen == idx {
		d.reapStep()
		return
	}
	slot := d.usedSeen % d.lay.Entries
	d.port.Read(d.pasid, d.lay.usedRingVA(slot), 8, func(b []byte, err error) {
		if err != nil {
			d.reaping = false
			d.fail(err)
			return
		}
		id, respLen := decodeUsedElem(b)
		head := uint16(id)
		cb, ok := d.pending[head]
		if !ok || head%2 != 0 || respLen > uint32(d.lay.CellSize) {
			d.reaping = false
			d.fail(fmt.Errorf("virtio: corrupt used entry id=%d len=%d", id, respLen))
			return
		}
		d.usedSeen++
		finish := func(resp []byte) {
			delete(d.pending, head)
			d.freePairs = append(d.freePairs, head)
			d.stats.Completed++
			cb(resp, nil)
			d.consumeUsed(idx)
		}
		if respLen == 0 {
			finish(nil)
			return
		}
		d.port.Read(d.pasid, d.lay.cellVA(head+1), int(respLen), func(resp []byte, err error) {
			if err != nil {
				d.reaping = false
				d.fail(err)
				return
			}
			finish(resp)
		})
	})
}
