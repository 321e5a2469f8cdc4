package device

import (
	"fmt"
	"slices"

	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/virtio"
)

// Instance is what a table knows of one open instance of a service (§2.1:
// "a separate context for each instance of a service"): the id, who
// opened it, and under which name. A table's record embeds it.
type Instance struct {
	ID      uint32
	App     msg.AppID
	Client  msg.DeviceID
	Service string // the name in the OpenReq
	// connected: the placement serves the instance over a queue it built,
	// so replay rule 1 no longer returns it.
	connected bool
}

func (i *Instance) instance() *Instance { return i }

// Instances is the table of a service's open instances, wherever it runs:
// a device's Sessions keeps one, and the centralized kernel one for the
// opens it brokers. It owns the ids (never reused, not even after DropAll,
// so a stale request cannot name a later instance), the opener check
// (only the same client, for the same app) and iteration in id order.
// The client retransmits a request whose response was lost (smartnic's
// call), so every verb answers a replay with the verdict it gave first:
//
//  1. an OpenReq from a client that already holds an unconnected instance
//     of the same service for the same app gets that instance back, not a
//     second one it would leak (Reopen);
//  2. a ConnectReq identical to the one that established the queue is
//     acknowledged again instead of refused as "already connected" (in
//     Sessions, the placement that builds queues);
//  3. a CloseReq for an instance its opener already closed is acknowledged
//     again, to nobody else (Close).
type Instances[R interface{ instance() *Instance }] struct {
	live   []R        // in id order
	next   uint32     // the last id issued
	closed []Instance // ended by their openers, for replay rule 3
}

// All returns the live instances in id order, until the table changes.
func (t *Instances[R]) All() []R { return t.live }

// Reopen is replay rule 1.
func (t *Instances[R]) Reopen(src msg.DeviceID, req *msg.OpenReq) (none R, ok bool) {
	for _, r := range t.live {
		if i := r.instance(); i.Client == src && i.App == req.App && i.Service == req.Service && !i.connected {
			return r, true
		}
	}
	return none, false
}

// Add enters r as a new instance that src opened with req.
func (t *Instances[R]) Add(src msg.DeviceID, req *msg.OpenReq, r R) R {
	t.next++
	*r.instance() = Instance{ID: t.next, App: req.App, Client: src, Service: req.Service}
	t.live = append(t.live, r)
	return r
}

// Opened is the opener check of every verb after the open: live instance
// id if src opened it for app, or else the refusal.
func (t *Instances[R]) Opened(src msg.DeviceID, app msg.AppID, id uint32) (none R, refusal string) {
	for _, r := range t.live {
		switch i := r.instance(); {
		case i.ID != id:
		case i.Client != src || i.App != app:
			return none, "connection belongs to another client"
		default:
			return r, ""
		}
	}
	return none, "no such connection"
}

// Remove forgets instance id unclosed: its open or its transport failed.
func (t *Instances[R]) Remove(id uint32) { t.Drop(func(r R) bool { return r.instance().ID == id }) }

// Close answers a CloseReq: the opener's ends the instance, after end ran
// the placement's teardown of it, and rule 3 answers the rest.
func (t *Instances[R]) Close(src msg.DeviceID, req *msg.CloseReq, end func(R)) *msg.CloseResp {
	resp := &msg.CloseResp{ConnID: req.ConnID, OK: true}
	if r, refusal := t.Opened(src, req.App, req.ConnID); refusal == "" {
		end(r)
		t.Remove(req.ConnID)
		t.closed = append(t.closed, *r.instance())
	} else {
		resp.OK = slices.ContainsFunc(t.closed, func(i Instance) bool {
			return i.ID == req.ConnID && i.Client == src && i.App == req.App
		})
	}
	return resp
}

// Drop removes the instances gone reports and returns them in id order.
func (t *Instances[R]) Drop(gone func(R) bool) (out []R) {
	t.live = slices.DeleteFunc(t.live, func(r R) bool {
		g := gone(r)
		if g {
			out = append(out, r)
		}
		return g
	})
	return out
}

// DropClient removes the instances of a client that died (DeviceFailed
// broadcast): a revived client opens new ones rather than resuming these.
func (t *Instances[R]) DropClient(peer msg.DeviceID) []R {
	return t.Drop(func(r R) bool { return r.instance().Client == peer })
}

// DropAll removes every instance: the placement was reset or rebooted.
func (t *Instances[R]) DropAll() []R { return t.Drop(func(R) bool { return true }) }

// Session is one instance a device serves: its Instance, the provider's
// own state, and — once connected — the virtqueue endpoint that serves it.
type Session[T any] struct {
	Instance
	State T // what Admit returned: the SSD's file, the accelerator's transform

	ep *virtio.Endpoint
	// estab is the ConnectReq that built ep, kept for replay rule 2.
	estab msg.ConnectReq
}

// Sessions is the provider half of the Figure-2 handshake — OpenReq,
// ConnectReq, CloseReq — for a service whose instances are served over
// virtqueues. A concrete service embeds it (which supplies the Open,
// Connect and Close of the Service interface) and fills in what is its
// own: admission, the queue's cell size, and the request handler. Its
// Instances table holds the isolation and replay rules; Sessions adds
// serving: each instance's endpoint and request doorbell, and rule 2.
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

	table Instances[*Session[T]]
}

// release gives back the request doorbells of instances that ended.
func (s *Sessions[T]) release(cs ...*Session[T]) {
	for _, c := range cs {
		if c.ep != nil {
			s.Dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
		}
	}
}

// DropAll discards every instance: the device was killed or reset.
func (s *Sessions[T]) DropAll() { s.release(s.table.DropAll()...) }

// DropClient discards the instances of a client that died.
func (s *Sessions[T]) DropClient(peer msg.DeviceID) { s.release(s.table.DropClient(peer)...) }

// Open implements Service. Admission runs on a replay too.
func (s *Sessions[T]) Open(src msg.DeviceID, req *msg.OpenReq) *msg.OpenResp {
	resp := &msg.OpenResp{Service: req.Service, App: req.App}
	state, refusal := s.Admit(src, req)
	if refusal != "" {
		resp.Reason = refusal
		return resp
	}
	c, ok := s.table.Reopen(src, req)
	if !ok {
		c = s.table.Add(src, req, &Session[T]{State: state})
	}
	resp.OK, resp.SharedBytes, resp.ConnID = true, virtio.SharedBytes(128, s.CellSize), c.ID
	return resp
}

// Connect implements Service: it builds the instance's endpoint over the
// queue the requester laid out and answers with the doorbell to kick.
func (s *Sessions[T]) Connect(src msg.DeviceID, req *msg.ConnectReq) *msg.ConnectResp {
	deny := func(reason string) *msg.ConnectResp {
		return &msg.ConnectResp{ConnID: req.ConnID, Reason: reason}
	}
	c, refusal := s.table.Opened(src, req.App, req.ConnID)
	if refusal != "" {
		return deny(refusal)
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
			s.table.Remove(c.ID)
		}
		c.ep, c.estab, c.connected = ep, *req, true
	}
	// Tell the requester which doorbell to kick.
	return &msg.ConnectResp{ConnID: req.ConnID, OK: true, Reason: fmt.Sprintf("reqbell=%d", c.ep.ReqBell)}
}

// Close implements Service.
func (s *Sessions[T]) Close(src msg.DeviceID, req *msg.CloseReq) *msg.CloseResp {
	return s.table.Close(src, req, func(c *Session[T]) { s.release(c) })
}
