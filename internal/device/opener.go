package device

import (
	"errors"
	"fmt"

	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/virtio"
)

// reqBell is how a ConnectResp names the request doorbell of the queue the
// provider connected: Sessions.Connect writes it, Opener.Connected reads it.
const reqBell = "reqbell=%d"

// Opener is the client half of the Figure-2 handshake with one provider,
// the half Sessions answers. A client embeds one per session it opens (a
// NIC app's smartnic.Connection, the centralized kernel's session) and
// keeps its own transport: the NIC's call retransmits on a timeout, the
// kernel only when its app does. The record holds the request it waits
// on and the provider's ConnID once accepted, and owns the queue's wire
// format.
type Opener struct {
	Provider msg.DeviceID
	ConnID   uint32         // the provider's, once it accepted
	Queue    *virtio.Driver // the client's half of the queue, once Connect built it
	service  string         // the name the provider knows
	app      msg.AppID
	cell     int         // the cell size the provider's quote holds
	asked    msg.Message // the OpenReq or ConnectReq it waits on
}

func (o *Opener) opener() *Opener { return o }

// Open starts the handshake: the OpenReq to send provider.
func (o *Opener) Open(provider msg.DeviceID, service string, app msg.AppID, token uint64) *msg.OpenReq {
	req := &msg.OpenReq{Service: service, App: app, Token: token}
	o.Provider, o.service, o.app, o.asked = provider, service, app, req
	return req
}

// Asked is the request the record waits on, nil if none.
func (o *Opener) Asked() msg.Message { return o.asked }

// Opened takes the provider's answer to the open: its ConnID and the cell
// its quote holds, or its refusal as the error. Every provider quotes the
// shared memory of a 128-entry ring; a client builds its own ring of them.
func (o *Opener) Opened(r *msg.OpenResp) error {
	if !r.OK {
		return errors.New(r.Reason)
	}
	o.ConnID, o.cell = r.ConnID, virtio.CellSizeFromQuote(r.SharedBytes, 128)
	return nil
}

// RegionBytes sizes the shared region of a queue of entries cells.
func (o *Opener) RegionBytes(entries uint16) uint64 { return virtio.SharedBytes(entries, o.cell) }

// Connect builds the driver half of a queue of entries cells over the
// region at base, then the ConnectReq that programs the provider's half
// (§3 step 7b) with the driver's response doorbell.
func (o *Opener) Connect(port *interconnect.Port, base uint64, entries uint16) (*msg.ConnectReq, error) {
	lay := virtio.NewLayout(iommu.VirtAddr(base), entries, o.cell)
	drv, err := virtio.NewDriver(port, iommu.PASID(o.app), lay, 0)
	if err != nil {
		return nil, err
	}
	o.Queue = drv
	return o.Forward(&msg.ConnectReq{Service: o.service, App: o.app, RingVA: uint64(lay.Base), RingEntries: entries,
		DataVA: uint64(lay.DataVA), DataBytes: uint64(lay.DataBytes()), RespDoorbell: uint64(drv.RespBell)}), nil
}

// Forward asks the provider to connect req's queue under its ConnID (the
// kernel forwards a direct app's own so).
func (o *Opener) Forward(req *msg.ConnectReq) *msg.ConnectReq {
	fwd := *req
	fwd.ConnID = o.ConnID
	o.asked = &fwd
	return &fwd
}

// Connected takes the provider's answer to the connect: the request
// doorbell it names goes to the queue, or its refusal is the error.
func (o *Opener) Connected(r *msg.ConnectResp) error {
	var bell uint64
	if !r.OK {
		return errors.New(r.Reason)
	} else if _, err := fmt.Sscanf(r.Reason, reqBell, &bell); err != nil {
		return errors.New("no request doorbell in response")
	}
	o.Queue.SetRequestBell(bell)
	return nil
}

// Abandon is the CloseReq for what the provider accepted, nil if nothing,
// for the client to send whatever ends the session. An accept still on
// its way then is Answered's to close.
func (o *Opener) Abandon() *msg.CloseReq {
	if o.ConnID == 0 {
		return nil
	}
	return &msg.CloseReq{Service: o.service, ConnID: o.ConnID, App: o.app}
}

// Answered finds the first opener of all that m, from src, answers, which
// then waits no more. An accept that none of them asked for or holds came
// after its session ended: stray is the CloseReq for the client to send
// src. Providers never reuse a ConnID, so no ended session is remembered.
func Answered[O interface{ opener() *Opener }](all []O, src msg.DeviceID, m msg.Message) (found O, stray *msg.CloseReq) {
	accept, _ := m.(*msg.OpenResp)
	held := accept == nil || !accept.OK
	for _, x := range all {
		o := x.opener()
		answers := false
		switch a := o.asked.(type) {
		case *msg.OpenReq:
			answers = accept != nil && accept.App == a.App && accept.Service == a.Service
		case *msg.ConnectReq:
			r, ok := m.(*msg.ConnectResp)
			answers = ok && r.ConnID == a.ConnID
		}
		if o.Provider == src && answers {
			o.asked = nil
			return x, nil
		}
		held = held || o.Provider == src && accept.ConnID == o.ConnID
	}
	if !held {
		stray = &msg.CloseReq{Service: accept.Service, ConnID: accept.ConnID, App: accept.App}
	}
	return found, stray
}
