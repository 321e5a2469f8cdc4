package virtio

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
)

// Service processes the requests of one queue. req is lent: it is the
// descriptor pair's buffer, the service's to read until it calls
// r.Complete, and the pair's next request is read into it. What the
// service keeps past Complete it copies. r is where the answer goes, now
// or later (e.g. after a flash read completes).
type Service interface {
	Serve(req []byte, r Responder)
}

// Responder is the endpoint's side of one request: the descriptor pair's
// own record, the same for the pair's every request, so a service can key
// per-pair state of its own by it.
type Responder interface {
	// Cap is the length of the response cell: what Complete cuts resp to.
	Cap() int
	// Complete answers the request, exactly once, and ends the loan of the
	// request's bytes. resp is taken, not copied: it must stay unmodified
	// until the port has moved it, which is before the pair can be taken
	// again.
	Complete(resp []byte)
}

// EndpointStats counts endpoint-side queue activity.
type EndpointStats struct {
	Processed uint64
	Notifies  uint64
	Errors    uint64
}

// Endpoint is the provider half of a virtqueue. Its request doorbell is
// allocated at construction (advertise ReqBell to the driver); the
// driver's response doorbell arrives in the ConnectReq.
type Endpoint struct {
	port  *interconnect.Port
	pasid iommu.PASID
	lay   Layout

	// ReqBell is this endpoint's own doorbell; the driver rings it after
	// publishing available entries.
	ReqBell interconnect.DoorbellAddr
	// respBell is the driver's doorbell, rung after publishing used
	// entries.
	respBell interconnect.DoorbellAddr

	svc Service

	availSeen uint16
	usedIdx   uint16

	// pairs holds each descriptor pair's record at head/2, built when the
	// driver first publishes the pair and kept for the life of the ring.
	pairs []*endpointPair

	// MaxInflight bounds concurrently processed requests (the device's
	// internal parallelism).
	MaxInflight int
	inflight    int

	// NotifyBatch rings the driver's doorbell only every N completions;
	// completions are always flushed when the queue goes idle (E9).
	NotifyBatch int
	unnotified  int

	// OnError receives transport-level failures; the queue is dead after.
	OnError func(error)
	dead    bool

	// The poll loop takes one available entry at a time, so it is one DMA
	// record and the stage that record is in: avail index, then per entry
	// the ring slot, the descriptor chain and the request cell.
	polling  bool
	pollDMA  interconnect.DMA
	pollAt   pollStage
	pollPair *endpointPair // pollDescs, pollReq: the pair being taken
	// pollBuf receives the index, the slot and the chain; they are
	// decoded inside the completion, before the record is reissued.
	pollBuf [2 * descSize]byte

	stats EndpointStats
}

type pollStage uint8

const (
	pollIdx pollStage = iota
	pollSlot
	pollDescs
	pollReq
)

// endpointPair is everything one descriptor pair has in flight on the
// endpoint's side, from the moment its head is taken off the available
// ring until its used index is visible: the request's bytes, the response
// descriptor and the response, used-element and used-index writes with
// the ring bytes they carry. The request buffer is grown to the longest
// request the pair has carried and lent to the service until Complete; the
// pair is taken again only after its used index is published, which
// follows Complete. The driver reuses a pair only after
// reaping its used entry, which it cannot see before the used-index write
// has completed, so a head that arrives while its record is busy can only
// come from a corrupt ring and fails the queue.
//
// As on the driver's side, the order of the three writes is the port's
// FIFO and assumes mapped ring pages. A used element that took the
// fault-retry path can land after the index behind it; the record then
// stays busy (pairPublished) until the straggler is off the port.
type endpointPair struct {
	e     *Endpoint
	head  uint16
	state pairState
	dresp desc
	req   []byte

	respW, elemW, idxW interconnect.DMA
	elem               [usedElemSize]byte
	idx                [2]byte
}

type pairState uint8

const (
	pairFree       pairState = iota
	pairTaken                // head accepted; chain and request being read
	pairHandling             // the service has the request and the record
	pairCompleting           // handler done; response and used entry on their way
	pairPublished            // used index visible, used element still on the port
)

// NewEndpoint builds the provider half. The layout and respBell arrive
// from the driver's ConnectReq.
func NewEndpoint(port *interconnect.Port, pasid iommu.PASID, lay Layout, respBell interconnect.DoorbellAddr, svc Service) (*Endpoint, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if svc == nil {
		return nil, fmt.Errorf("virtio: nil service")
	}
	e := &Endpoint{
		port:        port,
		pasid:       pasid,
		lay:         lay,
		respBell:    respBell,
		svc:         svc,
		pairs:       make([]*endpointPair, lay.Entries/2),
		MaxInflight: 64,
		NotifyBatch: 1,
	}
	e.ReqBell = port.Fabric().AllocDoorbell(func(uint64) { e.Kick() })
	return e, nil
}

// Stats returns a copy of the counters.
func (e *Endpoint) Stats() EndpointStats { return e.stats }

// Dead reports whether the queue has failed.
func (e *Endpoint) Dead() bool { return e.dead }

func (e *Endpoint) fail(err error) {
	if e.dead {
		return
	}
	e.dead = true
	e.stats.Errors++
	if e.OnError != nil {
		e.OnError(err)
	}
}

// Kick starts (or resumes) the poll loop. It is the doorbell handler and
// is also called internally when capacity frees up.
func (e *Endpoint) Kick() {
	if e.polling || e.dead {
		return
	}
	e.polling = true
	e.pollStep()
}

func (e *Endpoint) pollStep() {
	if e.dead {
		e.polling = false
		return
	}
	if e.inflight >= e.MaxInflight {
		// Resume when a completion frees a slot.
		e.polling = false
		return
	}
	e.pollAt = pollIdx
	e.port.ReadOp(&e.pollDMA, e.pasid, e.lay.availIdxVA(), e.pollBuf[:2], e)
}

// stopPoll ends the poll loop on a transport error or a corrupt ring.
func (e *Endpoint) stopPoll(err error) {
	e.polling = false
	e.fail(err)
}

// DMADone is the poll loop's next step: the completion of pollDMA in
// whatever stage it was issued for. One available entry is consumed per
// pass; its handler is dispatched without being waited for.
func (e *Endpoint) DMADone(op *interconnect.DMA, err error) {
	if err != nil {
		e.stopPoll(err)
		return
	}
	switch e.pollAt {
	case pollIdx:
		if binary.LittleEndian.Uint16(e.pollBuf[:]) == e.availSeen {
			// Idle: flush any batched notifications so the driver is
			// never left waiting on a partial batch.
			e.polling = false
			e.flushNotify()
			return
		}
		slot := e.availSeen % e.lay.Entries
		e.availSeen++
		e.pollAt = pollSlot
		e.port.ReadOp(&e.pollDMA, e.pasid, e.lay.availRingVA(slot), e.pollBuf[:2], e)
	case pollSlot:
		head := binary.LittleEndian.Uint16(e.pollBuf[:])
		if head >= e.lay.Entries {
			e.stopPoll(fmt.Errorf("virtio: avail entry %d out of range", head))
			return
		}
		// A head is taken only if it starts a pair and that pair's record
		// is free: these bytes are the peer's, and they must not be able
		// to hand out a record the port or a handler still holds.
		var s *endpointPair
		if head%2 == 0 {
			s = e.pair(head)
		}
		if s == nil || s.state != pairFree {
			e.stopPoll(fmt.Errorf("virtio: corrupt avail entry %d (not a free pair)", head))
			return
		}
		s.state = pairTaken
		e.pollPair = s
		// Read the two-descriptor chain in one DMA (pairs are adjacent).
		e.pollAt = pollDescs
		e.port.ReadOp(&e.pollDMA, e.pasid, e.lay.descVA(head), e.pollBuf[:], e)
	case pollDescs:
		dreq := decodeDesc(e.pollBuf[:descSize])
		dresp := decodeDesc(e.pollBuf[descSize:])
		if dreq.Flags&flagNext == 0 || dresp.Flags&flagWrite == 0 || int(dreq.Len) > e.lay.CellSize {
			e.stopPoll(fmt.Errorf("virtio: corrupt descriptor chain at %d", e.pollPair.head))
			return
		}
		s := e.pollPair
		s.dresp = dresp
		if cap(s.req) < int(dreq.Len) {
			s.req = make([]byte, dreq.Len)
		}
		e.pollAt = pollReq
		e.port.ReadOp(&e.pollDMA, e.pasid, iommu.VirtAddr(dreq.Addr), s.req[:dreq.Len], e)
	case pollReq:
		s := e.pollPair
		s.state = pairHandling
		e.inflight++
		e.svc.Serve(op.Bytes(), s)
		// Keep draining while the service works.
		e.pollStep()
	}
}

// pair returns head's record, building it on first use.
func (e *Endpoint) pair(head uint16) *endpointPair {
	s := e.pairs[head/2]
	if s == nil {
		s = &endpointPair{e: e, head: head}
		e.pairs[head/2] = s
	}
	return s
}

func (s *endpointPair) Cap() int { return int(s.dresp.Len) }

// Complete implements Responder: it writes the response and publishes the
// used entry. resp goes to the port as it is, cut to the response cell; a
// dead endpoint drops it without touching the port.
//
// The record is one for every generation of the pair, so a second call is
// caught by state alone: it panics unless the pair has meanwhile been
// published again and handed to the service, which has not completed yet —
// in that window a stale call is taken for the new request's. Closing it
// would need a responder bound to the request: an allocation per request.
func (s *endpointPair) Complete(resp []byte) {
	if s.state != pairHandling {
		panic("virtio: handler completed twice")
	}
	s.state = pairCompleting
	e := s.e
	if e.dead {
		return
	}
	if len(resp) > s.Cap() {
		resp = resp[:s.Cap()]
	}
	putUsedElem(s.elem[:], uint32(s.head), uint32(len(resp)))
	if len(resp) == 0 {
		s.publish()
		return
	}
	e.port.WriteOp(&s.respW, e.pasid, iommu.VirtAddr(s.dresp.Addr), resp, s)
}

// publish writes the used element, then the used index behind it.
func (s *endpointPair) publish() {
	e := s.e
	slot := e.usedIdx % e.lay.Entries
	idx := e.usedIdx + 1
	e.usedIdx = idx
	e.port.WriteOp(&s.elemW, e.pasid, e.lay.usedRingVA(slot), s.elem[:], s)
	binary.LittleEndian.PutUint16(s.idx[:], idx)
	e.port.WriteOp(&s.idxW, e.pasid, e.lay.usedIdxVA(), s.idx[:], s)
}

// DMADone is the completion of each of the pair's three writes.
func (s *endpointPair) DMADone(op *interconnect.DMA, err error) {
	e := s.e
	if err != nil {
		e.fail(err)
		return
	}
	switch op {
	case &s.respW:
		s.publish()
	case &s.elemW:
		if s.state == pairPublished {
			s.state = pairFree
		}
	case &s.idxW:
		// The used entry is visible: the driver may publish this pair
		// again, so the record is free from here — unless the element
		// fell behind the index (see endpointPair).
		s.state = pairFree
		if s.elemW.Pending() {
			s.state = pairPublished
		}
		e.stats.Processed++
		e.inflight--
		e.unnotified++
		if e.NotifyBatch <= 1 || e.unnotified >= e.NotifyBatch {
			e.flushNotify()
		}
		// Capacity freed: resume the poll loop if it parked.
		e.Kick()
	}
}

// flushNotify rings the driver's doorbell for any unannounced
// completions.
func (e *Endpoint) flushNotify() {
	if e.unnotified == 0 || e.dead {
		return
	}
	e.unnotified = 0
	e.stats.Notifies++
	e.port.Fabric().Ring(e.respBell, uint64(e.usedIdx))
}
