package bus

import (
	"testing"

	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

// BenchmarkRoute is the bus's own cost under a control-plane workload,
// with no device model around it: four attached ports whose handlers
// record nothing, tracing off.
//
//   - unicast: one device-to-device message (transmit, ingress
//     processing, egress, delivery);
//   - broadcast: one discovery query fanned out to the three other ports;
//   - grant_authorize: the whole §3 step-7 exchange — GrantReq, AuthReq to
//     the controller, AuthResp, the grantee's IOMMU programmed, GrantResp —
//     then the controller's FreeResp that unmaps the owner and the grantee
//     and its AllocResp that maps the owner again, so every iteration
//     authorizes afresh instead of taking the retransmission re-ack.
func BenchmarkRoute(b *testing.B) {
	const (
		mcID, nicID, ssdID, accID = msg.DeviceID(1), msg.DeviceID(2), msg.DeviceID(3), msg.DeviceID(4)
		app, va                   = msg.AppID(5), uint64(0x10000)
	)
	eng := sim.NewEngine()
	mem := physmem.MustNew(1024 * physmem.PageSize)
	bus := New(eng, DefaultConfig, nil)
	ports := map[msg.DeviceID]*Port{}
	frame, err := mem.AllocFrames(1)
	if err != nil {
		b.Fatal(err)
	}
	frames := []uint64{uint64(frame)}
	attach := func(id msg.DeviceID, name string, role msg.Role, h Handler) {
		p, err := bus.Attach(id, name, role, iommu.New(name, mem, iommu.DefaultConfig), h)
		if err != nil {
			b.Fatal(err)
		}
		ports[id] = p
		p.Send(msg.BusID, &msg.Hello{Role: role, Name: name})
	}
	sink := func(msg.Envelope) {}
	attach(mcID, "memctrl", msg.RoleMemoryController, func(env msg.Envelope) {
		if ar, ok := env.Msg.(*msg.AuthReq); ok {
			ports[mcID].Send(msg.BusID, &msg.AuthResp{App: ar.App, OK: true, VA: ar.VA, Perm: ar.Perm, Nonce: ar.Nonce, Frames: frames})
		}
	})
	granted := false
	attach(nicID, "nic", msg.RoleNIC, func(env msg.Envelope) {
		if gr, ok := env.Msg.(*msg.GrantResp); ok {
			granted = gr.OK
		}
	})
	attach(ssdID, "ssd", msg.RoleStorage, sink)
	attach(accID, "accel", msg.RoleAccelerator, sink)
	eng.Run()
	// The region the grant benchmark extends, allocated by the controller.
	alloc := &msg.AllocResp{App: app, OK: true, VA: va, Frames: frames, Perm: uint8(iommu.PermRW)}
	ports[mcID].Send(nicID, alloc)
	eng.Run()
	nic := ports[nicID]

	b.Run("unicast", func(b *testing.B) {
		b.ReportAllocs()
		m := &msg.OpenReq{Service: "file:kv.dat", App: app}
		for i := 0; i < b.N; i++ {
			nic.Send(ssdID, m)
			eng.Run()
		}
	})
	b.Run("broadcast", func(b *testing.B) {
		b.ReportAllocs()
		m := &msg.DiscoverReq{Query: "file:kv.dat", Nonce: 1}
		for i := 0; i < b.N; i++ {
			nic.Send(msg.Broadcast, m)
			eng.Run()
		}
	})
	b.Run("grant_authorize", func(b *testing.B) {
		b.ReportAllocs()
		grant := &msg.GrantReq{App: app, VA: va, Bytes: physmem.PageSize, Target: ssdID, Perm: uint8(iommu.PermRW)}
		free := &msg.FreeResp{App: app, OK: true, VA: va, Bytes: physmem.PageSize}
		for i := 0; i < b.N; i++ {
			granted = false
			nic.Send(msg.BusID, grant)
			eng.Run()
			if !granted {
				b.Fatal("grant refused")
			}
			ports[mcID].Send(nicID, free)
			ports[mcID].Send(nicID, alloc)
			eng.Run()
		}
		if got := bus.Stats().GrantsOK; got < uint64(b.N) {
			b.Fatalf("%d grants authorized in %d iterations", got, b.N)
		}
	})
}
