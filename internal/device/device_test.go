package device

import (
	"testing"

	"nocpu/internal/bus"
	"nocpu/internal/interconnect"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
)

type world struct {
	eng *sim.Engine
	fab *interconnect.Fabric
	bus *bus.Bus
	tr  *trace.Tracer
}

func newWorld(t *testing.T, busCfg bus.Config) *world {
	t.Helper()
	eng := sim.NewEngine()
	mem := physmem.MustNew(1024 * physmem.PageSize)
	return &world{
		eng: eng,
		fab: interconnect.NewFabric(eng, mem, interconnect.DefaultCosts),
		bus: bus.New(eng, busCfg, nil),
		tr:  trace.New(0),
	}
}

func (w *world) newDev(t *testing.T, id msg.DeviceID, name string) *Device {
	t.Helper()
	d, err := New(w.eng, w.bus, w.fab, w.tr, Config{
		ID: id, Name: name, Role: msg.RoleAccelerator,
		SelfTest: 10 * sim.Microsecond, ResetDelay: 50 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// echoService is a minimal service for session tests.
type echoService struct {
	name      string
	opens     int
	connects  int
	closes    int
	refuseAll bool
}

func (s *echoService) Name() string            { return s.name }
func (s *echoService) Match(query string) bool { return query == "echo" || query == s.name }
func (s *echoService) Open(src msg.DeviceID, req *msg.OpenReq) *msg.OpenResp {
	s.opens++
	if s.refuseAll {
		return &msg.OpenResp{Service: s.name, App: req.App, OK: false, Reason: "refused"}
	}
	return &msg.OpenResp{Service: s.name, App: req.App, OK: true, ConnID: uint32(s.opens), SharedBytes: 4096}
}
func (s *echoService) Connect(src msg.DeviceID, req *msg.ConnectReq) *msg.ConnectResp {
	s.connects++
	return &msg.ConnectResp{ConnID: req.ConnID, OK: true}
}
func (s *echoService) Close(src msg.DeviceID, req *msg.CloseReq) *msg.CloseResp {
	s.closes++
	return &msg.CloseResp{ConnID: req.ConnID, OK: true}
}

func TestLifecycleBoot(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	d := w.newDev(t, 1, "dev")
	aliveAt := sim.Time(-1)
	d.OnAlive = func() { aliveAt = w.eng.Now() }
	if d.State() != StateOff {
		t.Fatal("not off before start")
	}
	d.Start()
	if d.State() != StateInit {
		t.Fatal("not init after start")
	}
	w.eng.Run()
	if d.State() != StateAlive {
		t.Fatal("not alive after run")
	}
	if aliveAt != sim.Time(10*sim.Microsecond) {
		t.Errorf("alive at %v, want 10us (self-test)", aliveAt)
	}
	if !w.bus.Alive(1) {
		t.Error("bus does not see device alive")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	d := w.newDev(t, 1, "dev")
	d.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	d.Start()
}

func TestDiscoveryAnswering(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	provider := w.newDev(t, 1, "ssd")
	provider.AddService(&echoService{name: "fs/kv.dat"})
	client := w.newDev(t, 2, "nic")
	var resp *msg.DiscoverResp
	client.Handle(msg.KindDiscoverResp, func(env msg.Envelope) {
		resp = env.Msg.(*msg.DiscoverResp)
	})
	provider.Start()
	client.Start()
	w.eng.Run()
	client.Send(msg.Broadcast, &msg.DiscoverReq{Query: "fs/kv.dat", Nonce: 77})
	w.eng.Run()
	if resp == nil || resp.Service != "fs/kv.dat" || resp.Nonce != 77 {
		t.Fatalf("discovery response = %+v", resp)
	}
	// Query nobody matches: silence.
	resp = nil
	client.Send(msg.Broadcast, &msg.DiscoverReq{Query: "no-such", Nonce: 78})
	w.eng.Run()
	if resp != nil {
		t.Error("got response for unmatched query")
	}
}

func TestSessionRouting(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	provider := w.newDev(t, 1, "ssd")
	svc := &echoService{name: "svc"}
	provider.AddService(svc)
	client := w.newDev(t, 2, "nic")
	var opened *msg.OpenResp
	var connected *msg.ConnectResp
	var closed *msg.CloseResp
	client.Handle(msg.KindOpenResp, func(e msg.Envelope) { opened = e.Msg.(*msg.OpenResp) })
	client.Handle(msg.KindConnectResp, func(e msg.Envelope) { connected = e.Msg.(*msg.ConnectResp) })
	client.Handle(msg.KindCloseResp, func(e msg.Envelope) { closed = e.Msg.(*msg.CloseResp) })
	provider.Start()
	client.Start()
	w.eng.Run()

	client.Send(1, &msg.OpenReq{Service: "svc", App: 3, Token: 1})
	w.eng.Run()
	if opened == nil || !opened.OK || opened.SharedBytes != 4096 {
		t.Fatalf("open = %+v", opened)
	}
	client.Send(1, &msg.ConnectReq{Service: "svc", ConnID: opened.ConnID, App: 3})
	w.eng.Run()
	if connected == nil || !connected.OK {
		t.Fatalf("connect = %+v", connected)
	}
	client.Send(1, &msg.CloseReq{Service: "svc", ConnID: opened.ConnID, App: 3})
	w.eng.Run()
	if closed == nil || !closed.OK {
		t.Fatalf("close = %+v", closed)
	}
	if svc.opens != 1 || svc.connects != 1 || svc.closes != 1 {
		t.Errorf("service counters: %+v", svc)
	}

	// Unknown service name must produce a negative reply, not silence.
	opened = nil
	client.Send(1, &msg.OpenReq{Service: "ghost", App: 3})
	w.eng.Run()
	if opened == nil || opened.OK {
		t.Errorf("open of ghost service = %+v", opened)
	}
}

func TestDuplicateServicePanics(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	d := w.newDev(t, 1, "dev")
	d.AddService(&echoService{name: "s"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate service did not panic")
		}
	}()
	d.AddService(&echoService{name: "s"})
}

func TestChassisManagedKindsRejected(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	d := w.newDev(t, 1, "dev")
	defer func() {
		if recover() == nil {
			t.Error("Handle(KindOpenReq) did not panic")
		}
	}()
	d.Handle(msg.KindOpenReq, func(msg.Envelope) {})
}

func TestHeartbeatsFlow(t *testing.T) {
	busCfg := bus.DefaultConfig
	busCfg.WatchdogTimeout = 200 * sim.Microsecond
	w := newWorld(t, busCfg)
	d, err := New(w.eng, w.bus, w.fab, w.tr, Config{
		ID: 1, Name: "dev", Role: msg.RoleAccelerator,
		SelfTest: 1 * sim.Microsecond, HeartbeatEvery: 50 * sim.Microsecond,
		ResetDelay: 10 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	w.eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if !w.bus.Alive(1) {
		t.Error("heartbeating device marked dead by watchdog")
	}
}

func TestKillThenWatchdogThenRecovery(t *testing.T) {
	busCfg := bus.DefaultConfig
	busCfg.WatchdogTimeout = 200 * sim.Microsecond
	w := newWorld(t, busCfg)
	mk := func(id msg.DeviceID, name string) *Device {
		d, err := New(w.eng, w.bus, w.fab, w.tr, Config{
			ID: id, Name: name, Role: msg.RoleAccelerator,
			SelfTest: 1 * sim.Microsecond, HeartbeatEvery: 50 * sim.Microsecond,
			ResetDelay: 30 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	victim := mk(1, "victim")
	observer := mk(2, "observer")
	var failedPeer msg.DeviceID
	observer.OnPeerFailed = func(id msg.DeviceID) { failedPeer = id }
	resets := 0
	victim.OnReset = func() { resets++ }
	victim.Start()
	observer.Start()
	w.eng.RunUntil(sim.Time(100 * sim.Microsecond))

	victim.Kill()
	w.eng.RunUntil(sim.Time(1 * sim.Millisecond))

	if failedPeer != 1 {
		t.Errorf("observer saw failure of %v, want dev1", failedPeer)
	}
	if resets != 1 {
		t.Errorf("victim reset %d times, want 1", resets)
	}
	if victim.State() != StateAlive {
		t.Errorf("victim state %v after recovery window", victim.State())
	}
	if !w.bus.Alive(1) {
		t.Error("bus does not see recovered device")
	}
}

func TestUnrecoverableDeviceStaysDead(t *testing.T) {
	busCfg := bus.DefaultConfig
	busCfg.WatchdogTimeout = 100 * sim.Microsecond
	w := newWorld(t, busCfg)
	d, err := New(w.eng, w.bus, w.fab, w.tr, Config{
		ID: 1, Name: "dev", Role: msg.RoleAccelerator,
		SelfTest: 1 * sim.Microsecond, HeartbeatEvery: 20 * sim.Microsecond,
		ResetDelay: 0, // cannot recover
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	w.eng.RunUntil(sim.Time(50 * sim.Microsecond))
	d.Kill()
	w.eng.RunUntil(sim.Time(1 * sim.Millisecond))
	if d.State() != StateFailed {
		t.Errorf("unrecoverable device state = %v", d.State())
	}
	if w.bus.Alive(1) {
		t.Error("bus believes dead device alive")
	}
}

// A device killed before its self-test ends stays dead: the end of the
// self-test is the device's own event, and Kill stops it.
func TestKillDuringSelfTestStaysDead(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	d := w.newDev(t, 1, "dev")
	d.Start()
	w.eng.RunUntil(sim.Time(5 * sim.Microsecond)) // half of the 10us self-test
	d.Kill()
	w.eng.Run()
	if d.State() != StateFailed {
		t.Errorf("device killed during self-test is %v after Run, want failed", d.State())
	}
	if w.bus.Alive(1) {
		t.Error("bus enrolled a device killed during its self-test")
	}
}

// A device killed while a reset is bringing it back stays dead: nothing
// revives it until the bus resets it again.
func TestKillDuringResetStaysDead(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig) // no watchdog: nobody resets it again
	d := w.newDev(t, 1, "dev")
	resets := 0
	d.OnReset = func() { resets++ }
	d.Start()
	w.eng.Run()
	if err := w.bus.FailDevice(1, "test"); err != nil {
		t.Fatal(err)
	}
	for d.State() != StateInit && w.eng.Step() {
	}
	if d.State() != StateInit {
		t.Fatalf("device never started its reset (state %v)", d.State())
	}
	w.eng.RunFor(20 * sim.Microsecond) // inside the 50us reset
	d.Kill()
	w.eng.Run()
	if d.State() != StateFailed || resets != 0 {
		t.Errorf("device killed mid-reset is %v with %d resets after Run, want failed with 0", d.State(), resets)
	}
	if w.bus.Alive(1) {
		t.Error("bus believes a device killed mid-reset alive")
	}
}

func TestFailedDeviceIgnoresSessionTraffic(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	provider := w.newDev(t, 1, "ssd")
	svc := &echoService{name: "svc"}
	provider.AddService(svc)
	client := w.newDev(t, 2, "nic")
	provider.Start()
	client.Start()
	w.eng.Run()
	provider.Kill()
	client.Send(1, &msg.OpenReq{Service: "svc", App: 1})
	w.eng.Run()
	if svc.opens != 0 {
		t.Error("dead provider processed an open")
	}
}

func TestNewValidation(t *testing.T) {
	w := newWorld(t, bus.DefaultConfig)
	if _, err := New(w.eng, w.bus, w.fab, w.tr, Config{ID: 1, Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(w.eng, w.bus, w.fab, w.tr, Config{ID: msg.BusID, Name: "x"}); err == nil {
		t.Error("reserved id accepted")
	}
}
