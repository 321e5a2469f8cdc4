package device

import (
	"fmt"
	"strings"
	"testing"

	"nocpu/internal/bus"
	"nocpu/internal/interconnect"
	"nocpu/internal/msg"
	"nocpu/internal/virtio"
)

// tagService is a Sessions-backed service: "tag:<word>" opens an instance
// whose queue answers with the word; "tag:locked" needs token 7. It wires
// no device hook: the chassis ends its sessions.
type tagService struct {
	Sessions
	admits int
}

func (s *tagService) Name() string            { return "tag" }
func (s *tagService) Match(query string) bool { return strings.HasPrefix(query, "tag:") }

func newTagService(d *Device) *tagService {
	s := &tagService{}
	s.Sessions = Sessions{
		Dev: d, CellSize: 256,
		Admit: func(_ msg.DeviceID, req *msg.OpenReq) (Conn, string) {
			s.admits++
			word := strings.TrimPrefix(req.Service, "tag:")
			if word == "locked" && req.Token != 7 {
				return nil, "authentication failed"
			}
			return tagQueue(word), ""
		},
	}
	d.AddService(s)
	return s
}

// tagQueue answers every request on an instance's queue with its word.
type tagQueue string

func (q tagQueue) Serve(_ []byte, r virtio.Responder) { r.Complete([]byte(q)) }
func (q tagQueue) Resource() string                   { return "tag:" + string(q) }

// sessionClient is a bare device that records the last answer to each verb.
type sessionClient struct {
	dev       *Device
	opened    *msg.OpenResp
	connected *msg.ConnectResp
	closed    *msg.CloseResp
}

func newSessionClient(t *testing.T, w *world, id msg.DeviceID) *sessionClient {
	c := &sessionClient{dev: w.newDev(t, id, fmt.Sprintf("client%d", id))}
	c.dev.Handle(msg.KindOpenResp, func(e msg.Envelope) { c.opened = e.Msg.(*msg.OpenResp) })
	c.dev.Handle(msg.KindConnectResp, func(e msg.Envelope) { c.connected = e.Msg.(*msg.ConnectResp) })
	c.dev.Handle(msg.KindCloseResp, func(e msg.Envelope) { c.closed = e.Msg.(*msg.CloseResp) })
	c.dev.Start()
	return c
}

func (c *sessionClient) open(w *world, service string, app msg.AppID, token uint64) *msg.OpenResp {
	c.opened = nil
	c.dev.Send(1, &msg.OpenReq{Service: service, App: app, Token: token})
	w.eng.Run()
	return c.opened
}

func (c *sessionClient) connect(w *world, req msg.ConnectReq) *msg.ConnectResp {
	c.connected = nil
	c.dev.Send(1, &req)
	w.eng.Run()
	return c.connected
}

func (c *sessionClient) close(w *world, id uint32, app msg.AppID) *msg.CloseResp {
	c.closed = nil
	c.dev.Send(1, &msg.CloseReq{Service: "tag:a", ConnID: id, App: app})
	w.eng.Run()
	return c.closed
}

func sessionWorld(t *testing.T) (*world, *tagService, *sessionClient, *sessionClient) {
	w := newWorld(t, bus.DefaultConfig)
	provider := w.newDev(t, 1, "provider")
	svc := newTagService(provider)
	provider.Start()
	a, b := newSessionClient(t, w, 2), newSessionClient(t, w, 3)
	w.eng.Run()
	return w, svc, a, b
}

func queueOf(id uint32, app msg.AppID) msg.ConnectReq {
	lay := virtio.NewLayout(0x1000_0000, 16, 256)
	return msg.ConnectReq{Service: "tag:a", ConnID: id, App: app,
		RingVA: uint64(lay.Base), RingEntries: lay.Entries,
		DataVA: uint64(lay.DataVA), DataBytes: uint64(lay.DataBytes()), RespDoorbell: 99}
}

// session is live instance id.
func (s *tagService) session(id uint32) *session {
	for _, c := range s.table.All() {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// TestSessionsOpenReplay is replay rule 1: while an instance is still
// unconnected, the same OpenReq from the same client and app gets it
// back; another app, another client or another name gets its own.
func TestSessionsOpenReplay(t *testing.T) {
	w, svc, a, b := sessionWorld(t)
	first := a.open(w, "tag:a", 5, 0)
	if first == nil || !first.OK || first.ConnID == 0 || first.SharedBytes != virtio.SharedBytes(128, 256) {
		t.Fatalf("open = %+v", first)
	}
	if again := a.open(w, "tag:a", 5, 0); again == nil || !again.OK || again.ConnID != first.ConnID {
		t.Fatalf("retransmitted open = %+v, want instance %d back", again, first.ConnID)
	}
	for _, other := range []*msg.OpenResp{a.open(w, "tag:a", 6, 0), b.open(w, "tag:a", 5, 0), a.open(w, "tag:b", 5, 0)} {
		if other == nil || !other.OK || other.ConnID == first.ConnID {
			t.Errorf("distinct opener got %+v, want an instance of its own", other)
		}
	}
	if got := len(svc.table.All()); got != 4 {
		t.Errorf("%d live instances, want 4", got)
	}
	// Once connected, the instance is in use: the same OpenReq is a new open.
	if cr := a.connect(w, queueOf(first.ConnID, 5)); cr == nil || !cr.OK {
		t.Fatalf("connect = %+v", cr)
	}
	if fresh := a.open(w, "tag:a", 5, 0); fresh == nil || fresh.ConnID == first.ConnID {
		t.Errorf("open after connect = %+v, want a fresh instance", fresh)
	}
	// Admission runs on every OpenReq, replay or not, and a refusal is as sent.
	admits := svc.admits
	if r := a.open(w, "tag:locked", 5, 1); r == nil || r.OK || r.Reason != "authentication failed" {
		t.Errorf("guarded open with a bad token = %+v", r)
	}
	if r := a.open(w, "tag:locked", 5, 7); r == nil || !r.OK {
		t.Errorf("guarded open with the token = %+v", r)
	}
	if svc.admits != admits+2 {
		t.Errorf("admission ran %d times for two opens", svc.admits-admits)
	}
}

// TestSessionsConnectReplay is replay rule 2 and the isolation checks:
// an identical ConnectReq is acknowledged again with the same doorbell and
// builds nothing; a different one, another client's, another app's, a
// malformed one and an unknown id are refused with their reasons.
func TestSessionsConnectReplay(t *testing.T) {
	w, svc, a, b := sessionWorld(t)
	id := a.open(w, "tag:a", 5, 0).ConnID
	req := queueOf(id, 5)

	refusals := []struct {
		from   *sessionClient
		mutate func(*msg.ConnectReq)
		reason string
	}{
		{a, func(r *msg.ConnectReq) { r.ConnID = 77 }, "no such connection"},
		{b, func(*msg.ConnectReq) {}, "connection belongs to another client"},
		{a, func(r *msg.ConnectReq) { r.App = 6 }, "connection belongs to another client"},
		{a, func(r *msg.ConnectReq) { r.RingEntries = 0 }, "malformed queue geometry"},
		{a, func(r *msg.ConnectReq) { r.RingEntries = 12 }, "virtio: entries 12 not a power of two"},
	}
	for _, tc := range refusals {
		bad := req
		tc.mutate(&bad)
		if cr := tc.from.connect(w, bad); cr == nil || cr.OK || cr.Reason != tc.reason {
			t.Errorf("connect = %+v, want refusal %q", cr, tc.reason)
		}
	}
	first := a.connect(w, req)
	if first == nil || !first.OK || !strings.HasPrefix(first.Reason, "reqbell=") {
		t.Fatalf("connect = %+v", first)
	}
	ep := svc.session(id).ep
	if again := a.connect(w, req); again == nil || !again.OK || again.Reason != first.Reason {
		t.Errorf("retransmitted connect = %+v, want %+v again", again, first)
	}
	if svc.session(id).ep != ep {
		t.Error("retransmitted connect built a second endpoint")
	}
	moved := req
	moved.RingVA += 4096
	if cr := a.connect(w, moved); cr == nil || cr.OK || cr.Reason != "already connected" {
		t.Errorf("second, different connect = %+v", cr)
	}
}

// TestSessionsCloseReplay is replay rule 3: the closer's retransmitted
// CloseReq is acknowledged again; nobody else's is, and an id that never
// existed is refused. Only the opener may close: another client, or
// another app on the opener's client, is refused.
func TestSessionsCloseReplay(t *testing.T) {
	w, svc, a, b := sessionWorld(t)
	id := a.open(w, "tag:a", 5, 0).ConnID
	a.connect(w, queueOf(id, 5))
	bell := svc.session(id).ep.ReqBell

	if cr := b.close(w, id, 5); cr == nil || cr.OK {
		t.Errorf("close by another client = %+v", cr)
	}
	if cr := a.close(w, id, 6); cr == nil || cr.OK {
		t.Errorf("close by another app of the opener's client = %+v", cr)
	}
	if cr := a.close(w, id, 5); cr == nil || !cr.OK {
		t.Fatalf("close = %+v", cr)
	}
	if len(svc.table.All()) != 0 {
		t.Error("instance survived its close")
	}
	// The request doorbell is free again: binding it must not panic.
	w.fab.RegisterDoorbell(bell, func(uint64) {})
	if cr := a.close(w, id, 5); cr == nil || !cr.OK {
		t.Errorf("retransmitted close = %+v, want OK again", cr)
	}
	if cr := b.close(w, id, 5); cr == nil || cr.OK {
		t.Errorf("close of a's closed instance by b = %+v", cr)
	}
	if cr := a.close(w, id, 6); cr == nil || cr.OK {
		t.Errorf("close of a's closed instance by another app of a = %+v", cr)
	}
	if cr := a.close(w, 77, 5); cr == nil || cr.OK {
		t.Errorf("close of an id that never existed = %+v", cr)
	}
}

// free reports whether the fabric holds no handler at bell, leaving it so.
func free(w *world, bell interconnect.DoorbellAddr) (ok bool) {
	defer func() { ok = recover() == nil }()
	w.fab.RegisterDoorbell(bell, func(uint64) {})
	w.fab.UnregisterDoorbell(bell)
	return true
}

// openQueue opens and connects one tag:a instance of c's and returns its
// id and request doorbell.
func (c *sessionClient) openQueue(w *world, svc *tagService) (uint32, interconnect.DoorbellAddr) {
	id := c.open(w, "tag:a", 5, 0).ConnID
	c.connect(w, queueOf(id, 5))
	return id, svc.session(id).ep.ReqBell
}

// TestSessionsDrop: a killed device's instances all go, every request
// doorbell is released, and ids are not reused once a reset revives it.
func TestSessionsDrop(t *testing.T) {
	w, svc, a, b := sessionWorld(t)
	_, bellA := a.openQueue(w, svc)
	_, bellB := b.openQueue(w, svc)
	a.open(w, "tag:b", 5, 0) // unconnected: nothing to release
	svc.Dev.Kill()
	if len(svc.table.All()) != 0 {
		t.Fatalf("%d instances after the kill", len(svc.table.All()))
	}
	if !free(w, bellA) || !free(w, bellB) {
		t.Error("a dropped instance's request doorbell is still registered")
	}
	if err := w.bus.FailDevice(1, "test"); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	// Ids are not reused across a drop: a stale CloseReq cannot hit a new instance.
	if r := a.open(w, "tag:a", 5, 0); r == nil || r.ConnID <= 3 {
		t.Errorf("open after drop = %+v, want a fresh id", r)
	}
}

// TestChassisEndsSessions: the chassis, not a device hook (tagService
// wires none), ends a dead client's sessions on its DeviceFailed and keeps
// another client's; a bus Reset of the device ends the rest. Each ended
// session gives back its request doorbell.
func TestChassisEndsSessions(t *testing.T) {
	w, svc, a, b := sessionWorld(t)
	idA, bellA := a.openQueue(w, svc)
	idB, bellB := b.openQueue(w, svc)
	if err := w.bus.FailDevice(a.dev.ID(), "test"); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if svc.session(idA) != nil || !free(w, bellA) {
		t.Error("the dead client's session survived its DeviceFailed")
	}
	if svc.session(idB) == nil || free(w, bellB) {
		t.Fatal("another client's session ended with the dead one")
	}
	if err := w.bus.FailDevice(1, "test"); err != nil {
		t.Fatal(err)
	}
	w.eng.Run()
	if len(svc.table.All()) != 0 || !free(w, bellB) {
		t.Errorf("%d sessions after the device's reset, want none and every doorbell free", len(svc.table.All()))
	}
}
