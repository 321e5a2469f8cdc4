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
// opens it brokers. It owns the ids (never reused, not even after a Drop,
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

// Close answers a CloseReq: the opener's ends the instance through end,
// the placement's teardown, which takes it out of the table; rule 3
// answers the rest.
func (t *Instances[R]) Close(src msg.DeviceID, req *msg.CloseReq, end func(R)) *msg.CloseResp {
	resp := &msg.CloseResp{ConnID: req.ConnID, OK: true}
	if r, refusal := t.Opened(src, req.App, req.ConnID); refusal == "" {
		end(r)
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

// Conn is an instance's own state, what Admit returns (the SSD's file
// connection, the accelerator's transform queue): its queue's request
// service, which names the resource a failed queue's ErrorNotify reports.
type Conn interface {
	virtio.Service
	Resource() string
}

// session is one instance a device serves: its Instance, the provider's
// Conn, and — once connected — the virtqueue endpoint that serves it.
type session struct {
	Instance
	conn  Conn
	ep    *virtio.Endpoint
	estab msg.ConnectReq // the ConnectReq that built ep, for replay rule 2
}

// Sessions is the provider half of the Figure-2 handshake — OpenReq,
// ConnectReq, CloseReq — for a service whose instances are served over
// virtqueues. A concrete service embeds it (which supplies the Open,
// Connect and Close of the Service interface) and fills in what is its
// own: admission and the queue's cell size. Its Instances table holds the
// isolation and replay rules; Sessions adds serving: each instance's
// endpoint and request doorbell, rule 2, and the one teardown every
// session ends through (end).
type Sessions struct {
	Dev *Device
	// CellSize is the virtqueue buffer cell the service needs; OpenResp
	// quotes the shared memory of a default 128-entry queue of them (the
	// requester may choose a smaller ring in ConnectReq).
	CellSize int
	// NotifyBatch sets used-ring notification batching on the endpoints
	// (0/1 = notify per completion).
	NotifyBatch int
	// Admit decides an OpenReq — name, token, whatever the service guards
	// — and returns the instance's Conn, or a non-empty refusal.
	Admit func(src msg.DeviceID, req *msg.OpenReq) (Conn, string)

	table Instances[*session]
}

// end is the one teardown of a session, whatever ends it: its opener's
// close, its queue's failure, or — from the chassis — its client's death
// or the device's kill. The sessions gone reports leave the table and
// give back their request doorbells.
func (s *Sessions) end(gone func(*Instance) bool) {
	for _, c := range s.table.Drop(func(c *session) bool { return gone(&c.Instance) }) {
		if c.ep != nil {
			s.Dev.Fabric().UnregisterDoorbell(c.ep.ReqBell)
		}
	}
}

// Open implements Service. Admission runs on a replay too.
func (s *Sessions) Open(src msg.DeviceID, req *msg.OpenReq) *msg.OpenResp {
	resp := &msg.OpenResp{Service: req.Service, App: req.App}
	conn, refusal := s.Admit(src, req)
	if refusal != "" {
		resp.Reason = refusal
		return resp
	}
	c, ok := s.table.Reopen(src, req)
	if !ok {
		c = s.table.Add(src, req, &session{conn: conn})
	}
	resp.OK, resp.SharedBytes, resp.ConnID = true, virtio.SharedBytes(128, s.CellSize), c.ID
	return resp
}

// Connect implements Service: it builds the instance's endpoint over the
// queue the requester laid out and answers with the doorbell to kick.
func (s *Sessions) Connect(src msg.DeviceID, req *msg.ConnectReq) *msg.ConnectResp {
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
			interconnect.DoorbellAddr(req.RespDoorbell), c.conn)
		if err != nil {
			return deny(err.Error())
		}
		if s.NotifyBatch > 1 {
			ep.NotifyBatch = s.NotifyBatch
		}
		ep.OnError = func(err error) {
			// Transport failure (e.g. revoked grant): notify the consumer per
			// §4 and end the instance.
			s.Dev.Send(c.Client, &msg.ErrorNotify{App: c.App, Resource: c.conn.Resource(), Code: 1, Detail: err.Error()})
			s.end(func(i *Instance) bool { return i == &c.Instance })
		}
		c.ep, c.estab, c.connected = ep, *req, true
	}
	// Tell the requester which doorbell to kick.
	return &msg.ConnectResp{ConnID: req.ConnID, OK: true, Reason: fmt.Sprintf("reqbell=%d", c.ep.ReqBell)}
}

// Close implements Service.
func (s *Sessions) Close(src msg.DeviceID, req *msg.CloseReq) *msg.CloseResp {
	return s.table.Close(src, req, func(c *session) {
		s.end(func(i *Instance) bool { return i == &c.Instance })
	})
}
