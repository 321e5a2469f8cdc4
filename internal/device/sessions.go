package device

import (
	"fmt"
	"sort"

	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/virtio"
)

// Session is one open instance of a service (§2.1: "a separate context for
// each instance of a service", isolated from the others): who opened it,
// under which name, the provider's own per-instance state, and — once
// connected — the virtqueue endpoint that serves it.
type Session[T any] struct {
	ID      uint32
	App     msg.AppID
	Client  msg.DeviceID
	Service string // the name in the OpenReq
	State   T      // what Admit returned: the SSD's file, the accelerator's transform

	ep *virtio.Endpoint
	// estab is the ConnectReq that built ep, kept for replay rule 2.
	estab msg.ConnectReq
}

// Sessions is the provider half of the Figure-2 handshake — OpenReq,
// ConnectReq, CloseReq — for a service whose instances are served over
// virtqueues. A concrete service embeds it (which supplies the Open,
// Connect and Close of the Service interface) and fills in what is its
// own: admission, the queue's cell size, and the request handler.
//
// The client retransmits a request whose response was lost (smartnic's
// call), so every verb answers a replay with the verdict it gave first:
//
//  1. an OpenReq from a client that already holds an unconnected instance
//     of the same service for the same app gets that instance back, not a
//     second one it would leak;
//  2. a ConnectReq identical to the one that established the queue is
//     acknowledged again instead of refused as "already connected";
//  3. a CloseReq for an instance this client already closed is
//     acknowledged again instead of refused as unknown.
type Sessions[T any] struct {
	Dev *Device
	// CellSize is the virtqueue buffer cell the service needs; OpenResp
	// quotes the shared memory of a default 128-entry queue of them (the
	// requester may choose a smaller ring in ConnectReq).
	CellSize int
	// NotifyBatch sets used-ring notification batching on the endpoints
	// (0/1 = notify per completion).
	NotifyBatch int
	// Admit decides an OpenReq — name, token, whatever the service guards
	// — and returns the instance's state, or a non-empty refusal.
	Admit func(src msg.DeviceID, req *msg.OpenReq) (state T, refusal string)
	// Handler builds the request service bound to one instance.
	Handler func(*Session[T]) virtio.Service
	// Resource names an instance in the ErrorNotify its client is sent
	// when the transport under it fails (§4).
	Resource func(*Session[T]) string

	live map[uint32]*Session[T]
	next uint32
	// closed remembers torn-down instances (id → closer) for replay rule 3.
	closed map[uint32]msg.DeviceID
}

// sortedIDs iterates instances in id order for determinism.
func (s *Sessions[T]) sortedIDs() []uint32 {
	ids := make([]uint32, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// remove forgets an instance and releases its request doorbell.
func (s *Sessions[T]) remove(c *Session[T]) {
	if c.ep != nil {
		s.Dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
	}
	delete(s.live, c.ID)
}

// DropAll discards every instance: the device was killed or reset.
func (s *Sessions[T]) DropAll() {
	for _, id := range s.sortedIDs() {
		s.remove(s.live[id])
	}
}

// DropClient discards the instances of a client that died (DeviceFailed
// broadcast): their requests will never be reaped, and a revived client
// opens fresh instances rather than resuming these.
func (s *Sessions[T]) DropClient(peer msg.DeviceID) {
	for _, id := range s.sortedIDs() {
		if c := s.live[id]; c.Client == peer {
			s.remove(c)
		}
	}
}

// Open implements Service.
func (s *Sessions[T]) Open(src msg.DeviceID, req *msg.OpenReq) *msg.OpenResp {
	resp := &msg.OpenResp{Service: req.Service, App: req.App}
	state, refusal := s.Admit(src, req)
	if refusal != "" {
		resp.Reason = refusal
		return resp
	}
	resp.OK, resp.SharedBytes = true, virtio.SharedBytes(128, s.CellSize)
	for _, id := range s.sortedIDs() {
		if c := s.live[id]; c.Client == src && c.App == req.App && c.Service == req.Service && c.ep == nil {
			resp.ConnID = id // replay rule 1
			return resp
		}
	}
	if s.live == nil {
		s.live, s.closed = make(map[uint32]*Session[T]), make(map[uint32]msg.DeviceID)
	}
	s.next++
	resp.ConnID = s.next
	s.live[s.next] = &Session[T]{ID: s.next, App: req.App, Client: src, Service: req.Service, State: state}
	return resp
}

// Connect implements Service: it builds the instance's endpoint over the
// queue the requester laid out and answers with the doorbell to kick.
func (s *Sessions[T]) Connect(src msg.DeviceID, req *msg.ConnectReq) *msg.ConnectResp {
	deny := func(reason string) *msg.ConnectResp {
		return &msg.ConnectResp{ConnID: req.ConnID, Reason: reason}
	}
	c, ok := s.live[req.ConnID]
	if !ok {
		return deny("no such connection")
	}
	// Isolation: only the opener may connect, and only for its own app.
	if c.Client != src || c.App != req.App {
		return deny("connection belongs to another client")
	}
	if c.ep != nil && *req != c.estab {
		return deny("already connected")
	}
	if c.ep == nil { // otherwise replay rule 2: same verdict
		if req.RingEntries == 0 || req.DataBytes == 0 {
			return deny("malformed queue geometry")
		}
		lay := virtio.Layout{
			Base:     iommu.VirtAddr(req.RingVA),
			Entries:  req.RingEntries,
			DataVA:   iommu.VirtAddr(req.DataVA),
			CellSize: int(req.DataBytes) / int(req.RingEntries),
		}
		ep, err := virtio.NewEndpoint(s.Dev.DMA(), iommu.PASID(req.App), lay,
			interconnect.DoorbellAddr(req.RespDoorbell), s.Handler(c))
		if err != nil {
			return deny(err.Error())
		}
		if s.NotifyBatch > 1 {
			ep.NotifyBatch = s.NotifyBatch
		}
		ep.OnError = func(err error) {
			// Transport failure (e.g. revoked grant): notify the consumer per
			// §4 and drop the instance.
			s.Dev.Send(c.Client, &msg.ErrorNotify{App: c.App, Resource: s.Resource(c), Code: 1, Detail: err.Error()})
			delete(s.live, c.ID)
		}
		c.ep, c.estab = ep, *req
	}
	// Tell the requester which doorbell to kick.
	return &msg.ConnectResp{ConnID: req.ConnID, OK: true, Reason: fmt.Sprintf("reqbell=%d", c.ep.ReqBell)}
}

// Close implements Service.
func (s *Sessions[T]) Close(src msg.DeviceID, req *msg.CloseReq) *msg.CloseResp {
	c, ok := s.live[req.ConnID]
	if !ok || c.Client != src {
		// Replay rule 3: OK again if this client already closed it.
		closer, was := s.closed[req.ConnID]
		return &msg.CloseResp{ConnID: req.ConnID, OK: was && closer == src}
	}
	s.remove(c)
	s.closed[c.ID] = src
	return &msg.CloseResp{ConnID: req.ConnID, OK: true}
}
