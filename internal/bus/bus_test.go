package bus

import (
	"slices"
	"strings"
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/tenant"
	"nocpu/internal/trace"
)

type testDev struct {
	id    msg.DeviceID
	name  string
	mmu   *iommu.IOMMU
	port  *Port
	inbox []msg.Envelope
	// onMsg, when set, runs on each delivery (to script responses).
	onMsg func(env msg.Envelope)
}

type harness struct {
	t    *testing.T
	eng  *sim.Engine
	mem  *physmem.Memory
	bus  *Bus
	tr   *trace.Tracer
	devs map[msg.DeviceID]*testDev
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{
		t:    t,
		eng:  sim.NewEngine(),
		mem:  physmem.MustNew(1024 * physmem.PageSize),
		tr:   trace.New(0),
		devs: make(map[msg.DeviceID]*testDev),
	}
	h.bus = New(h.eng, cfg, h.tr)
	return h
}

func (h *harness) addDev(id msg.DeviceID, name string, role msg.Role) *testDev {
	h.t.Helper()
	d := &testDev{id: id, name: name, mmu: iommu.New(name, h.mem, iommu.DefaultConfig)}
	port, err := h.bus.Attach(id, name, role, d.mmu, func(env msg.Envelope) {
		d.inbox = append(d.inbox, env)
		if d.onMsg != nil {
			d.onMsg(env)
		}
	})
	if err != nil {
		h.t.Fatal(err)
	}
	d.port = port
	h.devs[id] = d
	return d
}

// boot sends Hello from every attached device and runs the engine.
func (h *harness) boot() {
	for _, d := range h.devs {
		d.port.Send(msg.BusID, &msg.Hello{Role: msg.RoleAccelerator, Name: d.name})
	}
	h.eng.Run()
}

func (d *testDev) lastMsg() msg.Message {
	if len(d.inbox) == 0 {
		return nil
	}
	return d.inbox[len(d.inbox)-1].Msg
}

func (d *testDev) countKind(k msg.Kind) int {
	n := 0
	for _, e := range d.inbox {
		if e.Msg.Kind() == k {
			n++
		}
	}
	return n
}

func TestAttachValidation(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	for _, id := range []msg.DeviceID{0, msg.Broadcast, msg.BusID} {
		if _, err := h.bus.Attach(id, "x", msg.RoleAccelerator, nil, func(msg.Envelope) {}); err == nil {
			t.Errorf("reserved id %v accepted", id)
		}
	}
	h.addDev(1, "a", msg.RoleAccelerator)
	if _, err := h.bus.Attach(1, "dup", msg.RoleAccelerator, nil, func(msg.Envelope) {}); err == nil {
		t.Error("duplicate id accepted")
	}
	h.addDev(2, "mc", msg.RoleMemoryController)
	if _, err := h.bus.Attach(3, "mc2", msg.RoleMemoryController, nil, func(msg.Envelope) {}); err == nil {
		t.Error("second memory controller accepted")
	}
}

func TestHelloMakesAlive(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	d := h.addDev(1, "nic", msg.RoleNIC)
	if h.bus.Alive(1) {
		t.Error("alive before hello")
	}
	h.boot()
	if !h.bus.Alive(1) {
		t.Error("not alive after hello")
	}
	if d.countKind(msg.KindHelloAck) != 1 {
		t.Error("no HelloAck")
	}
}

func TestUnicastDelivery(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	h.boot()
	a.port.Send(2, &msg.Heartbeat{Seq: 7})
	h.eng.Run()
	if got, ok := b.lastMsg().(*msg.Heartbeat); !ok || got.Seq != 7 {
		t.Errorf("b received %+v", b.lastMsg())
	}
}

func TestMessagesFromDeadDeviceDropped(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	// b boots, a never says hello.
	b.port.Send(msg.BusID, &msg.Hello{Name: "b"})
	h.eng.Run()
	a.port.Send(2, &msg.Heartbeat{})
	h.eng.Run()
	if b.countKind(msg.KindHeartbeat) != 0 {
		t.Error("message from never-booted device delivered")
	}
	if h.bus.Stats().DeadSenderDropped == 0 {
		t.Error("dead-sender drop not counted")
	}
	if h.bus.Stats().Dropped != 0 {
		t.Error("dead-sender drop leaked into wire-loss counter")
	}
}

func TestDeliveryToDeadDeviceDropped(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	h.boot()
	if err := h.bus.FailDevice(2, "test"); err != nil {
		t.Fatal(err)
	}
	before := len(b.inbox)
	a.port.Send(2, &msg.Heartbeat{})
	h.eng.Run()
	for _, e := range b.inbox[before:] {
		if e.Msg.Kind() == msg.KindHeartbeat {
			t.Error("dead device received heartbeat")
		}
	}
}

func TestBroadcastExcludesSenderAndDead(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	c := h.addDev(3, "c", msg.RoleAccelerator)
	h.boot()
	_ = h.bus.FailDevice(3, "test")
	h.eng.Run()
	a.port.Send(msg.Broadcast, &msg.DiscoverReq{Query: "file:x", Nonce: 1})
	h.eng.Run()
	if a.countKind(msg.KindDiscoverReq) != 0 {
		t.Error("sender received its own broadcast")
	}
	if b.countKind(msg.KindDiscoverReq) != 1 {
		t.Error("alive peer missed broadcast")
	}
	if c.countKind(msg.KindDiscoverReq) != 0 {
		t.Error("dead device received broadcast")
	}
}

// allocRoundTrip drives memctrl-style AllocResp through the bus so the
// requester's IOMMU gets programmed.
func (h *harness) allocRoundTrip(mc, requester *testDev, app msg.AppID, va uint64, nFrames int) []uint64 {
	h.t.Helper()
	frames := make([]uint64, nFrames)
	for i := range frames {
		f, err := h.mem.AllocFrames(1)
		if err != nil {
			h.t.Fatal(err)
		}
		frames[i] = uint64(f)
	}
	mc.port.Send(requester.id, &msg.AllocResp{App: app, OK: true, VA: va, Frames: frames, Perm: uint8(iommu.PermRW)})
	h.eng.Run()
	return frames
}

func TestAllocRespProgramsIOMMU(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	h.boot()
	frames := h.allocRoundTrip(mc, nic, 5, 0x10000, 3)
	// The requester's IOMMU must now translate the region.
	for i, f := range frames {
		fr, perm, ok := nic.mmu.Lookup(5, iommu.VirtAddr(0x10000+i*physmem.PageSize))
		if !ok || uint64(fr) != f || perm != iommu.PermRW {
			t.Fatalf("page %d not mapped correctly (ok=%v fr=%v)", i, ok, fr)
		}
	}
	if got, ok := h.bus.OwnerOf(5, 0x10000); !ok || got != 2 {
		t.Error("ownership not recorded")
	}
	if nic.countKind(msg.KindAllocResp) != 1 {
		t.Error("AllocResp not forwarded")
	}
	if h.bus.Stats().PagesMapped != 3 {
		t.Errorf("PagesMapped = %d", h.bus.Stats().PagesMapped)
	}
}

func TestForgedAllocRespDropped(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	h.addDev(1, "memctrl", msg.RoleMemoryController)
	evil := h.addDev(2, "evil", msg.RoleAccelerator)
	victim := h.addDev(3, "victim", msg.RoleNIC)
	h.boot()
	f, _ := h.mem.AllocFrames(1)
	evil.port.Send(3, &msg.AllocResp{App: 9, OK: true, VA: 0x5000, Frames: []uint64{uint64(f)}})
	h.eng.Run()
	if victim.countKind(msg.KindAllocResp) != 0 {
		t.Error("forged AllocResp delivered")
	}
	if _, _, ok := victim.mmu.Lookup(9, 0x5000); ok {
		t.Error("forged AllocResp programmed the IOMMU")
	}
}

func TestDoubleAllocConvertedToFailure(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	h.boot()
	h.allocRoundTrip(mc, nic, 5, 0x10000, 1)
	// Same VA again: bus cannot map twice, requester must see failure.
	h.allocRoundTrip(mc, nic, 5, 0x10000, 1)
	last := nic.lastMsg().(*msg.AllocResp)
	if last.OK {
		t.Error("conflicting alloc reported OK")
	}
}

// grantSetup wires a scripted memory controller that authorizes grants
// for the given app/frames.
func scriptedMemctrl(mc *testDev, authorize bool, frames []uint64) {
	mc.onMsg = func(env msg.Envelope) {
		if ar, ok := env.Msg.(*msg.AuthReq); ok {
			resp := &msg.AuthResp{App: ar.App, OK: authorize, VA: ar.VA, Perm: ar.Perm, Nonce: ar.Nonce}
			if !authorize {
				resp.Reason = "denied by controller"
			} else {
				resp.Frames = frames
			}
			mc.port.Send(msg.BusID, resp)
		}
	}
}

func TestGrantFlowEndToEnd(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	ssd := h.addDev(3, "ssd", msg.RoleStorage)
	h.boot()
	frames := h.allocRoundTrip(mc, nic, 5, 0x10000, 2)
	scriptedMemctrl(mc, true, frames)

	nic.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: 0x10000, Bytes: 2 * physmem.PageSize, Target: 3, Perm: uint8(iommu.PermRW)})
	h.eng.Run()

	gr, ok := nic.lastMsg().(*msg.GrantResp)
	if !ok || !gr.OK {
		t.Fatalf("grant response = %+v", nic.lastMsg())
	}
	// The SSD's IOMMU now maps the same physical frames at the same VA.
	for i, f := range frames {
		fr, _, ok := ssd.mmu.Lookup(5, iommu.VirtAddr(0x10000+i*physmem.PageSize))
		if !ok || uint64(fr) != f {
			t.Fatalf("grantee page %d not mapped", i)
		}
	}
	if g := h.bus.GranteesOf(5, 0x10000); len(g) != 1 || g[0] != 3 {
		t.Errorf("grantees = %v", g)
	}
	if h.bus.Stats().GrantsOK != 1 {
		t.Error("grant not counted")
	}
}

func TestGrantDeniedByController(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	ssd := h.addDev(3, "ssd", msg.RoleStorage)
	h.boot()
	h.allocRoundTrip(mc, nic, 5, 0x10000, 1)
	scriptedMemctrl(mc, false, nil)
	nic.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: 0x10000, Bytes: physmem.PageSize, Target: 3})
	h.eng.Run()
	gr := nic.lastMsg().(*msg.GrantResp)
	if gr.OK {
		t.Fatal("denied grant reported OK")
	}
	if _, _, ok := ssd.mmu.Lookup(5, 0x10000); ok {
		t.Error("denied grant still mapped")
	}
	if h.bus.Stats().GrantsDenied != 1 {
		t.Error("denial not counted")
	}
}

func TestGrantByNonOwnerRejected(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	evil := h.addDev(3, "evil", msg.RoleAccelerator)
	h.boot()
	frames := h.allocRoundTrip(mc, nic, 5, 0x10000, 1)
	scriptedMemctrl(mc, true, frames)
	// evil tries to grant nic's region to itself.
	evil.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: 0x10000, Bytes: physmem.PageSize, Target: 3})
	h.eng.Run()
	gr, ok := evil.lastMsg().(*msg.GrantResp)
	if !ok || gr.OK {
		t.Fatalf("non-owner grant = %+v", evil.lastMsg())
	}
	if !strings.Contains(gr.Reason, "own") {
		t.Errorf("reason = %q", gr.Reason)
	}
}

func TestForgedAuthRespIgnored(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	evil := h.addDev(3, "evil", msg.RoleAccelerator)
	h.boot()
	frames := h.allocRoundTrip(mc, nic, 5, 0x10000, 1)
	// memctrl stays silent; evil tries to complete the grant itself.
	mc.onMsg = func(env msg.Envelope) {
		if ar, ok := env.Msg.(*msg.AuthReq); ok {
			evil.port.Send(msg.BusID, &msg.AuthResp{App: ar.App, OK: true, VA: ar.VA, Frames: frames, Nonce: ar.Nonce})
		}
	}
	nic.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: 0x10000, Bytes: physmem.PageSize, Target: 3})
	h.eng.Run()
	if _, _, ok := h.devs[3].mmu.Lookup(5, 0x10000); ok {
		t.Error("forged AuthResp programmed a mapping")
	}
	if h.bus.Stats().GrantsOK != 0 {
		t.Error("forged grant counted as OK")
	}
}

func TestRevokeFlow(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	ssd := h.addDev(3, "ssd", msg.RoleStorage)
	h.boot()
	frames := h.allocRoundTrip(mc, nic, 5, 0x10000, 2)
	scriptedMemctrl(mc, true, frames)
	nic.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: 0x10000, Bytes: 2 * physmem.PageSize, Target: 3, Perm: uint8(iommu.PermRW)})
	h.eng.Run()
	nic.port.Send(msg.BusID, &msg.RevokeReq{App: 5, VA: 0x10000, Bytes: 2 * physmem.PageSize, Target: 3})
	h.eng.Run()
	rr, ok := nic.lastMsg().(*msg.RevokeResp)
	if !ok || !rr.OK {
		t.Fatalf("revoke response = %+v", nic.lastMsg())
	}
	if _, _, ok := ssd.mmu.Lookup(5, 0x10000); ok {
		t.Error("revoked mapping survives")
	}
	// Owner's own mapping must survive revoke.
	if _, _, ok := nic.mmu.Lookup(5, 0x10000); !ok {
		t.Error("owner mapping removed by revoke")
	}
	// Second revoke: no such grant.
	nic.port.Send(msg.BusID, &msg.RevokeReq{App: 5, VA: 0x10000, Bytes: 2 * physmem.PageSize, Target: 3})
	h.eng.Run()
	if rr := nic.lastMsg().(*msg.RevokeResp); rr.OK {
		t.Error("double revoke succeeded")
	}
}

func TestFreeUnmapsOwnerAndGrantees(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	ssd := h.addDev(3, "ssd", msg.RoleStorage)
	h.boot()
	frames := h.allocRoundTrip(mc, nic, 5, 0x10000, 2)
	scriptedMemctrl(mc, true, frames)
	nic.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: 0x10000, Bytes: 2 * physmem.PageSize, Target: 3, Perm: uint8(iommu.PermRW)})
	h.eng.Run()
	// Controller confirms the free; bus must unmap everywhere.
	mc.port.Send(2, &msg.FreeResp{App: 5, OK: true, VA: 0x10000, Bytes: 2 * physmem.PageSize})
	h.eng.Run()
	if _, _, ok := nic.mmu.Lookup(5, 0x10000); ok {
		t.Error("owner mapping survives free")
	}
	if _, _, ok := ssd.mmu.Lookup(5, 0x10000); ok {
		t.Error("grantee mapping survives free")
	}
	if _, ok := h.bus.OwnerOf(5, 0x10000); ok {
		t.Error("ownership record survives free")
	}
}

func TestWatchdogFailsSilentDevice(t *testing.T) {
	cfg := DefaultConfig
	cfg.WatchdogTimeout = 100 * sim.Microsecond
	h := newHarness(t, cfg)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	// Bounded runs: the watchdog reschedules itself forever, so Run()
	// would never drain.
	a.port.Send(msg.BusID, &msg.Hello{Name: "a"})
	b.port.Send(msg.BusID, &msg.Hello{Name: "b"})
	h.eng.RunFor(10 * sim.Microsecond)
	// a heartbeats periodically; b goes silent.
	var beat func()
	beat = func() {
		a.port.Send(msg.BusID, &msg.Heartbeat{})
		h.eng.After(50*sim.Microsecond, beat)
	}
	beat()
	h.eng.RunUntil(sim.Time(400 * sim.Microsecond))
	if !h.bus.Alive(1) {
		t.Error("heartbeating device was failed")
	}
	if h.bus.Alive(2) {
		t.Error("silent device still alive")
	}
	// a must have been told about b's death.
	if a.countKind(msg.KindDeviceFailed) == 0 {
		t.Error("no DeviceFailed broadcast")
	}
	// b must have received a Reset even though dead.
	if b.countKind(msg.KindReset) == 0 {
		t.Error("no Reset sent to failed device")
	}
}

func TestResetDoneRevives(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	h.boot()
	_ = h.bus.FailDevice(2, "test")
	h.eng.Run()
	if h.bus.Alive(2) {
		t.Fatal("still alive after fail")
	}
	b.port.Send(msg.BusID, &msg.ResetDone{})
	h.eng.Run()
	if !h.bus.Alive(2) {
		t.Fatal("ResetDone did not revive")
	}
	// And traffic flows again.
	a.port.Send(2, &msg.Heartbeat{Seq: 1})
	h.eng.Run()
	if b.countKind(msg.KindHeartbeat) != 1 {
		t.Error("revived device not receiving")
	}
}

func TestFailDeviceErrors(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	h.addDev(1, "a", msg.RoleAccelerator)
	h.boot()
	if err := h.bus.FailDevice(99, "x"); err == nil {
		t.Error("unknown device failed")
	}
	if err := h.bus.FailDevice(1, "x"); err != nil {
		t.Error(err)
	}
	if err := h.bus.FailDevice(1, "x"); err == nil {
		t.Error("double fail accepted")
	}
}

func TestPendingGrantFailedWhenPartyDies(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	h.addDev(3, "ssd", msg.RoleStorage)
	h.boot()
	frames := h.allocRoundTrip(mc, nic, 5, 0x10000, 1)
	_ = frames
	// The controller never answers the AuthReq (it will be killed).
	mc.onMsg = func(env msg.Envelope) {}
	nic.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: 0x10000, Bytes: physmem.PageSize, Target: 3})
	h.eng.Run()
	if len(nic.grants()) != 0 {
		t.Fatal("grant answered without authorization")
	}
	// Kill the target: the pending grant must fail back to the requester.
	_ = h.bus.FailDevice(3, "test")
	h.eng.Run()
	gs := nic.grants()
	if len(gs) != 1 || gs[0].OK {
		t.Fatalf("pending grant not failed: %+v", gs)
	}
	if !strings.Contains(gs[0].Reason, "failed during grant") {
		t.Errorf("reason = %q", gs[0].Reason)
	}
}

func (d *testDev) grants() []*msg.GrantResp {
	var out []*msg.GrantResp
	for _, e := range d.inbox {
		if g, ok := e.Msg.(*msg.GrantResp); ok {
			out = append(out, g)
		}
	}
	return out
}

func TestMessageTimingChargesBus(t *testing.T) {
	cfg := Config{HopLatency: 1000, BytesPerNs: 1, ProcPerMsg: 100}
	h := newHarness(t, cfg)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	a.port.Send(msg.BusID, &msg.Hello{Name: "a"})
	b.port.Send(msg.BusID, &msg.Hello{Name: "b"})
	h.eng.Run()
	start := h.eng.Now()
	var deliveredAt sim.Time
	b.onMsg = func(env msg.Envelope) {
		if env.Msg.Kind() == msg.KindHeartbeat {
			deliveredAt = h.eng.Now()
		}
	}
	a.port.Send(2, &msg.Heartbeat{})
	h.eng.Run()
	size := sim.Duration(msg.EncodedSize(&msg.Heartbeat{}))
	want := start.Add(2*(1000+size) + 100)
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestTraceRecordsSequence(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "nic", msg.RoleNIC)
	h.addDev(2, "ssd", msg.RoleStorage)
	h.boot()
	a.port.Send(msg.Broadcast, &msg.DiscoverReq{Query: "file:kv.dat"})
	h.eng.Run()
	found := false
	for _, e := range h.tr.Events() {
		if e.Kind == "discover.req" && e.Src == "nic" && e.Detail == "file:kv.dat" {
			found = true
		}
	}
	if !found {
		t.Errorf("discovery not traced:\n%s", h.tr.String())
	}
}

// timedCfg makes transport arithmetic exact: a message of n encoded bytes
// serializes in n ns, each wire is 1000 ns, the bus processes in 100 ns.
var timedCfg = Config{HopLatency: 1000, BytesPerNs: 1, ProcPerMsg: 100}

// arrivals records when each message of one kind reaches a device.
func (h *harness) arrivals(d *testDev, k msg.Kind) *[]sim.Time {
	at := new([]sim.Time)
	d.onMsg = func(env msg.Envelope) {
		if env.Msg.Kind() == k {
			*at = append(*at, h.eng.Now())
		}
	}
	return at
}

// The fault plane judges device traffic on the device→bus wire: a delay
// lengthens that wire, a duplicate is a second copy the bus's dedup window
// eats after counting it, a drop never reaches the bus at all.
func TestFaultPlaneOnDeviceHop(t *testing.T) {
	size := sim.Duration(msg.EncodedSize(&msg.Heartbeat{}))
	clean := 2*(1000+size) + 100
	for _, tc := range []struct {
		name                 string
		rule                 faultinject.Rule
		arrive               []sim.Duration
		messages, deliveries uint64
		dups                 uint64
	}{
		{"pass", faultinject.Rule{Op: faultinject.Pass}, []sim.Duration{clean}, 1, 1, 0},
		{"delay", faultinject.Rule{Op: faultinject.Delay, Delay: 700}, []sim.Duration{clean + 700}, 1, 1, 0},
		{"reorder", faultinject.Rule{Op: faultinject.Reorder, Delay: 300}, []sim.Duration{clean + 300}, 1, 1, 0},
		{"dup", faultinject.Rule{Op: faultinject.Dup, Delay: 5000}, []sim.Duration{clean}, 2, 1, 1},
		{"drop", faultinject.Rule{Op: faultinject.Drop}, nil, 0, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, timedCfg)
			a := h.addDev(1, "a", msg.RoleAccelerator)
			b := h.addDev(2, "b", msg.RoleAccelerator)
			h.boot()
			tc.rule.Layer, tc.rule.Kind, tc.rule.Src = faultinject.LayerBus, msg.KindHeartbeat, 1
			h.bus.SetFaultPlane(faultinject.New(1).Add(tc.rule))
			at := h.arrivals(b, msg.KindHeartbeat)
			before, start := h.bus.Stats(), h.eng.Now()
			a.port.Send(2, &msg.Heartbeat{Seq: 7})
			h.eng.Run()
			if len(*at) != len(tc.arrive) {
				t.Fatalf("%d arrivals, want %d", len(*at), len(tc.arrive))
			}
			for i, want := range tc.arrive {
				if got := (*at)[i].Sub(start); got != want {
					t.Errorf("arrival %d after %v, want %v", i, got, want)
				}
			}
			st := h.bus.Stats()
			if got := st.Messages - before.Messages; got != tc.messages {
				t.Errorf("Messages +%d, want +%d", got, tc.messages)
			}
			if got := st.Deliveries - before.Deliveries; got != tc.deliveries {
				t.Errorf("Deliveries +%d, want +%d", got, tc.deliveries)
			}
			if got := st.DupSuppressed - before.DupSuppressed; got != tc.dups {
				t.Errorf("DupSuppressed +%d, want +%d", got, tc.dups)
			}
		})
	}
}

// Bus-originated traffic is judged on the bus→device wire, after it was
// traced, counted and given its seq: a dropped one was still sent, a delay
// lengthens the propagation, and both copies of a duplicate carry one seq
// for the receiver's dedup window.
func TestFaultPlaneOnBusOriginatedHop(t *testing.T) {
	for _, m := range []struct {
		name    string
		kind    msg.Kind
		size    sim.Duration
		provoke func(a *testDev)
	}{
		{"helloack", msg.KindHelloAck, sim.Duration(msg.EncodedSize(&msg.Hello{Name: "a"}) + msg.EncodedSize(&msg.HelloAck{})),
			func(a *testDev) { a.port.Send(msg.BusID, &msg.Hello{Name: "a"}) }},
		{"nack", msg.KindNack, sim.Duration(msg.EncodedSize(&msg.Heartbeat{}) +
			msg.EncodedSize(&msg.Nack{Of: msg.KindHeartbeat, Code: msg.NackUnknownDst, Reason: "no such device"})),
			func(a *testDev) { a.port.Send(9, &msg.Heartbeat{}) }},
	} {
		clean := 2*1000 + m.size + 100
		for _, tc := range []struct {
			name   string
			rule   faultinject.Rule
			arrive []sim.Duration
		}{
			{"pass", faultinject.Rule{Op: faultinject.Pass}, []sim.Duration{clean}},
			{"delay", faultinject.Rule{Op: faultinject.Delay, Delay: 700}, []sim.Duration{clean + 700}},
			{"dup", faultinject.Rule{Op: faultinject.Dup, Delay: 5000}, []sim.Duration{clean, clean}},
			{"drop", faultinject.Rule{Op: faultinject.Drop}, nil},
		} {
			t.Run(m.name+"/"+tc.name, func(t *testing.T) {
				h := newHarness(t, timedCfg)
				a := h.addDev(1, "a", msg.RoleAccelerator)
				h.boot()
				tc.rule.Layer, tc.rule.Kind, tc.rule.Src = faultinject.LayerBus, m.kind, msg.BusID
				h.bus.SetFaultPlane(faultinject.New(1).Add(tc.rule))
				at := h.arrivals(a, m.kind)
				inbox := len(a.inbox)
				before, start := h.bus.Stats(), h.eng.Now()
				m.provoke(a)
				h.eng.Run()
				if len(*at) != len(tc.arrive) {
					t.Fatalf("%d arrivals, want %d", len(*at), len(tc.arrive))
				}
				for i, want := range tc.arrive {
					if got := (*at)[i].Sub(start); got != want {
						t.Errorf("arrival %d after %v, want %v", i, got, want)
					}
				}
				// One message sent, however many copies arrived — or none.
				if got := h.bus.Stats().Deliveries - before.Deliveries; got != 1 {
					t.Errorf("Deliveries +%d, want +1", got)
				}
				for _, env := range a.inbox[inbox:] {
					if env.Src != msg.BusID || env.Seq != h.bus.busSeq {
						t.Errorf("copy from %v with seq %d, want the bus's seq %d", env.Src, env.Seq, h.bus.busSeq)
					}
				}
			})
		}
	}
}

// A broadcast reaches the live ports in id order whatever order they
// attached in (the egress medium serializes the copies, so arrival order
// is fan-out order), and so does a failure notice.
func TestFanOutInIDOrder(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	var order []msg.DeviceID
	for _, id := range []msg.DeviceID{4, 2, 5, 1, 3} {
		d := h.addDev(id, id.String(), msg.RoleAccelerator)
		d.onMsg = func(env msg.Envelope) {
			switch env.Msg.Kind() {
			case msg.KindDiscoverReq, msg.KindDeviceFailed:
				order = append(order, d.id)
			}
		}
	}
	h.boot()
	h.devs[3].port.Send(msg.Broadcast, &msg.DiscoverReq{Query: "file:x", Nonce: 1})
	h.eng.Run()
	if want := []msg.DeviceID{1, 2, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("broadcast arrived in order %v, want %v", order, want)
	}
	order = nil
	if err := h.bus.FailDevice(2, "test"); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if want := []msg.DeviceID{1, 3, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("failure notice arrived in order %v, want %v", order, want)
	}
}

// A send that waited for credit leaves with the seq tag Send returned for
// it, behind the sends stalled before it and ahead of those after.
func TestStalledSendKeepsItsSeq(t *testing.T) {
	h := newHarness(t, creditCfg(1))
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	h.boot() // a ignores CreditUpdate: its one credit went on Hello
	var sent []uint32
	for i := 0; i < 3; i++ {
		sent = append(sent, a.port.Send(2, &msg.Heartbeat{Seq: uint64(i + 1)}))
	}
	h.eng.Run()
	if got := b.countKind(msg.KindHeartbeat); got != 0 {
		t.Fatalf("%d heartbeats left without credit", got)
	}
	for range sent {
		a.port.AddCredits(1, 0)
		h.eng.Run()
	}
	var got []uint32
	for _, env := range b.inbox {
		if hb, ok := env.Msg.(*msg.Heartbeat); ok {
			got = append(got, env.Seq)
			if want := sent[hb.Seq-1]; env.Seq != want {
				t.Errorf("heartbeat %d arrived with seq %d, Send returned %d", hb.Seq, env.Seq, want)
			}
		}
	}
	if !slices.Equal(got, sent) {
		t.Errorf("arrival seqs %v, want the send order %v", got, sent)
	}
}

// Replay enters through the same bounded ingress as a real send: against
// a full processing queue it is shed with an overload NACK that echoes the
// replayed seq.
func TestReplayThroughFullIngressIsShed(t *testing.T) {
	cfg := DefaultConfig
	cfg.IngressBound = 1
	cfg.ProcPerMsg = 100 * sim.Microsecond
	h := newHarness(t, cfg)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	for _, d := range []*testDev{a, b} { // one Hello at a time fits the bound
		d.port.Send(msg.BusID, &msg.Hello{Name: d.name})
		h.eng.Run()
	}
	a.port.Send(2, &msg.Heartbeat{Seq: 1}) // fills the queue
	h.bus.Replay(msg.Envelope{Src: 1, Dst: 2, Seq: 77, Msg: &msg.Heartbeat{Seq: 2}})
	h.eng.Run()
	if got := h.bus.Stats().IngressShed; got != 1 {
		t.Fatalf("IngressShed = %d, want 1", got)
	}
	n, ok := a.lastOfKind(msg.KindNack).(*msg.Nack)
	if !ok || n.Code != msg.NackOverload || n.Seq != 77 {
		t.Errorf("replayer saw %+v, want an overload NACK for seq 77", n)
	}
	if got := b.countKind(msg.KindHeartbeat); got != 1 {
		t.Errorf("%d heartbeats delivered, want only the real send", got)
	}
	if g := h.bus.IngressGauge(); g.Exceeded() {
		t.Errorf("ingress gauge exceeded its bound: max %d > %d", g.Max(), g.Bound())
	}
}

// An AllocResp the bus refuses to act on — the mapping fails, or tenancy
// forbids it — reaches the requester rewritten as a failure: the body the
// hop carries on is the rewritten one, not the controller's.
func TestRefusedAllocRespReachesRequesterAsFailure(t *testing.T) {
	check := func(t *testing.T, nic *testDev, reason string) {
		t.Helper()
		got, ok := nic.lastMsg().(*msg.AllocResp)
		if !ok || got.OK || len(got.Frames) != 0 || got.VA != 0x10000 || !strings.Contains(got.Reason, reason) {
			t.Errorf("requester saw %+v, want a refusal of va 0x10000 mentioning %q", got, reason)
		}
	}
	t.Run("mapping fails", func(t *testing.T) {
		h := newHarness(t, DefaultConfig)
		mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
		nic := h.addDev(2, "nic", msg.RoleNIC)
		h.boot()
		h.allocRoundTrip(mc, nic, 5, 0x10000, 2)
		mapped := h.bus.Stats().PagesMapped
		// Different frames at the same VA: a conflict, not a replay. Its
		// second page would map, were the first not refused.
		h.allocRoundTrip(mc, nic, 5, 0x10000, 2)
		check(t, nic, "already mapped")
		if got := h.bus.Stats().PagesMapped; got != mapped {
			t.Errorf("PagesMapped went %d -> %d on a refused response", mapped, got)
		}
	})
	t.Run("tenancy forbids", func(t *testing.T) {
		h, reg := tenancyHarness(t, DefaultConfig)
		h.addDev(1, "victim", msg.RoleAccelerator)
		nic := h.addDev(2, "attacker", msg.RoleNIC)
		mc := h.addDev(3, "memctrl", msg.RoleMemoryController)
		h.boot()
		h.allocRoundTrip(mc, nic, 100, 0x10000, 1) // app 100 is tenant 1's
		check(t, nic, "cross-tenant mapping refused")
		if _, _, ok := nic.mmu.Lookup(100, 0x10000); ok {
			t.Error("cross-tenant mapping programmed")
		}
		if dr, ok := nic.lastOfKind(msg.KindDenialReport).(*msg.DenialReport); !ok || tenant.Class(dr.Class) != tenant.DenyMapping {
			t.Errorf("denial report = %+v, want class mapping", dr)
		}
		if dens := reg.DenialsBy(2); len(dens) != 1 || dens[0].Class != tenant.DenyMapping {
			t.Errorf("registry denials = %+v", dens)
		}
	})
}

// TestRouteAllocs pins what a message costs the host between Port.Send and
// the destination's handler: the hop record. A unicast is 1 allocation, a
// broadcast to three ports 4 (the record it arrived in plus one per copy);
// as a closure per stage the same two read 4 and 9.
func TestRouteAllocs(t *testing.T) {
	eng := sim.NewEngine()
	b := New(eng, DefaultConfig, nil)
	ports := map[msg.DeviceID]*Port{}
	for id := msg.DeviceID(1); id <= 4; id++ {
		p, err := b.Attach(id, id.String(), msg.RoleAccelerator, nil, func(msg.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		ports[id] = p
		p.Send(msg.BusID, &msg.Hello{Name: id.String()})
	}
	eng.Run()
	for _, tc := range []struct {
		name  string
		dst   msg.DeviceID
		m     msg.Message
		bound float64
	}{
		{"unicast", 3, &msg.OpenReq{Service: "file:kv.dat", App: 5}, 2},
		{"broadcast", msg.Broadcast, &msg.DiscoverReq{Query: "file:kv.dat", Nonce: 1}, 5},
	} {
		send := func() { ports[2].Send(tc.dst, tc.m); eng.Run() }
		send()
		if n := testing.AllocsPerRun(200, send); n > tc.bound {
			t.Errorf("%s allocates %v times, want <= %v", tc.name, n, tc.bound)
		}
	}
}
