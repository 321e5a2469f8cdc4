package bus

import (
	"fmt"
	"strings"
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

// TestRejoinFencesOldIncarnation exercises the crash-restart-rejoin
// protocol end to end: a failed device bumps its incarnation, re-enrolls
// with Hello, and every envelope still stamped with its previous life's
// incarnation is fenced (counted as DeadSenderDropped, never delivered,
// never confused with wire loss).
func TestRejoinFencesOldIncarnation(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	h.boot()

	if err := h.bus.FailDevice(2, "chaos"); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()

	// The device reboots into its next life and re-enrolls.
	if inc := b.port.NewIncarnation(); inc != 1 {
		t.Fatalf("incarnation after first crash = %d, want 1", inc)
	}
	b.port.Send(msg.BusID, &msg.Hello{Name: "b", Incarnation: 1})
	h.eng.Run()
	if !h.bus.Alive(2) {
		t.Fatal("device not alive after rejoin Hello")
	}
	if got := h.bus.Stats().Rejoins; got != 1 {
		t.Fatalf("Rejoins = %d, want 1", got)
	}
	rejoined := false
	for _, e := range h.tr.Events() {
		if e.Kind == "device.rejoined" && e.Dst == "b" {
			rejoined = true
			if !strings.Contains(e.Detail, "inc=1") {
				t.Errorf("rejoin trace missing incarnation: %q", e.Detail)
			}
		}
	}
	if !rejoined {
		t.Error("no device.rejoined trace event")
	}

	// A pre-crash message arrives late (it was in flight when the device
	// died). It carries the old incarnation and must be fenced — the dead
	// life may describe state that no longer exists.
	fencedBefore := h.bus.Stats().DeadSenderDropped
	heartbeats := a.countKind(msg.KindHeartbeat)
	h.bus.process(&hop{b: h.bus, env: msg.Envelope{Src: 2, Dst: 1, Seq: 99, Inc: 0, Msg: &msg.Heartbeat{Seq: 41}}})
	h.eng.Run()
	if got := h.bus.Stats().DeadSenderDropped; got != fencedBefore+1 {
		t.Errorf("DeadSenderDropped = %d, want %d", got, fencedBefore+1)
	}
	if h.bus.Stats().Dropped != 0 {
		t.Error("fenced message leaked into the wire-loss counter")
	}
	if a.countKind(msg.KindHeartbeat) != heartbeats {
		t.Error("old-incarnation message was delivered")
	}

	// The new life's traffic flows normally (dedup window restarted, so
	// low sequence numbers are not swallowed as duplicates).
	b.port.Send(1, &msg.Heartbeat{Seq: 42})
	h.eng.Run()
	if a.countKind(msg.KindHeartbeat) != heartbeats+1 {
		t.Error("new-incarnation message not delivered")
	}
	if got, ok := a.lastMsg().(*msg.Heartbeat); !ok || got.Seq != 42 {
		t.Errorf("a received %+v", a.lastMsg())
	}
}

// grantHarness strands pending grants: the memory controller swallows
// AuthReqs so the bus's pendingGrants table fills up, then the test kills
// a party and inspects the denial stream.
//
// Layout: memctrl(1), nic(2, the requester), ssd(3) and accel(4) as grant
// targets. Three grants are stranded in issue order (nonces 1, 2, 3):
//
//	nonce 1: VA 0x10000 -> ssd
//	nonce 2: VA 0x11000 -> accel
//	nonce 3: VA 0x12000 -> ssd
func newGrantHarness(t *testing.T) (*harness, *testDev, *testDev, *testDev, *testDev) {
	h := newHarness(t, DefaultConfig)
	mc := h.addDev(1, "memctrl", msg.RoleMemoryController)
	nic := h.addDev(2, "nic", msg.RoleNIC)
	ssd := h.addDev(3, "ssd", msg.RoleStorage)
	acc := h.addDev(4, "accel", msg.RoleAccelerator)
	h.boot()
	for _, va := range []uint64{0x10000, 0x11000, 0x12000} {
		h.allocRoundTrip(mc, nic, 5, va, 1)
	}
	mc.onMsg = func(env msg.Envelope) {} // never authorize: grants stay pending
	for i, g := range []struct {
		va     uint64
		target msg.DeviceID
	}{{0x10000, 3}, {0x11000, 4}, {0x12000, 3}} {
		nic.port.Send(msg.BusID, &msg.GrantReq{App: 5, VA: g.va, Bytes: physmem.PageSize, Target: g.target})
		h.eng.Run()
		if want := i + 1; len(h.bus.pendingGrants) != want {
			t.Fatalf("pending grants = %d, want %d", len(h.bus.pendingGrants), want)
		}
	}
	if len(nic.grants()) != 0 {
		t.Fatal("grant answered without authorization")
	}
	return h, mc, nic, ssd, acc
}

// denialTrace renders a device's denial stream as golden-trace lines in
// delivery order.
func denialTrace(d *testDev) []string {
	var out []string
	for _, g := range d.grants() {
		if g.OK {
			continue
		}
		out = append(out, fmt.Sprintf("va=%#x target=%d reason=%q", g.VA, g.Target, g.Reason))
	}
	return out
}

func assertTrace(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("denials:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("denial[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestFailDeviceDeniesPendingGrants asserts the failDevice drain: every
// grant waiting on the dead party fails back to the requester as
// GrantResp{OK: false}, delivered in ascending nonce order (golden
// trace), and unrelated grants stay pending.
func TestFailDeviceDeniesPendingGrants(t *testing.T) {
	t.Run("target dies", func(t *testing.T) {
		h, _, nic, _, _ := newGrantHarness(t)
		if err := h.bus.FailDevice(3, "chaos"); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		// Nonces 1 and 3 target the ssd; nonce 2 targets the accel and
		// survives the failure.
		assertTrace(t, denialTrace(nic), []string{
			`va=0x10000 target=3 reason="device failed during grant: ssd"`,
			`va=0x12000 target=3 reason="device failed during grant: ssd"`,
		})
		if len(h.bus.pendingGrants) != 1 {
			t.Errorf("pending grants = %d, want 1 (accel grant untouched)", len(h.bus.pendingGrants))
		}
		if got := h.bus.Stats().GrantsDenied; got != 2 {
			t.Errorf("GrantsDenied = %d, want 2", got)
		}
	})

	t.Run("memctrl dies", func(t *testing.T) {
		h, _, nic, _, _ := newGrantHarness(t)
		if err := h.bus.FailDevice(1, "chaos"); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		// The authorizer died: every pending grant drains, nonce order.
		assertTrace(t, denialTrace(nic), []string{
			`va=0x10000 target=3 reason="device failed during grant: memctrl"`,
			`va=0x11000 target=4 reason="device failed during grant: memctrl"`,
			`va=0x12000 target=3 reason="device failed during grant: memctrl"`,
		})
		if len(h.bus.pendingGrants) != 0 {
			t.Errorf("pending grants = %d, want 0", len(h.bus.pendingGrants))
		}
	})

	t.Run("requester dies", func(t *testing.T) {
		h, _, nic, _, acc := newGrantHarness(t)
		denied := h.bus.Stats().GrantsDenied
		if err := h.bus.FailDevice(2, "chaos"); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		// The requester is gone: its grants drain without responses (no
		// one to deliver them to) and the denial counter stays put.
		if len(h.bus.pendingGrants) != 0 {
			t.Errorf("pending grants = %d, want 0", len(h.bus.pendingGrants))
		}
		if got := h.bus.Stats().GrantsDenied; got != denied {
			t.Errorf("GrantsDenied = %d, want %d (dead requester gets no reply)", got, denied)
		}
		for _, d := range []*testDev{nic, acc} {
			if n := len(denialTrace(d)); n != 0 {
				t.Errorf("%s received %d denials for a dead requester", d.name, n)
			}
		}
	})

	t.Run("double failure", func(t *testing.T) {
		h, _, nic, _, _ := newGrantHarness(t)
		// First the ssd target dies (drains nonces 1 and 3), then the
		// memory controller (drains nonce 2). The second drain must not
		// re-deny grants the first already settled.
		if err := h.bus.FailDevice(3, "chaos"); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		if err := h.bus.FailDevice(1, "chaos"); err != nil {
			t.Fatal(err)
		}
		h.eng.Run()
		assertTrace(t, denialTrace(nic), []string{
			`va=0x10000 target=3 reason="device failed during grant: ssd"`,
			`va=0x12000 target=3 reason="device failed during grant: ssd"`,
			`va=0x11000 target=4 reason="device failed during grant: memctrl"`,
		})
		if len(h.bus.pendingGrants) != 0 {
			t.Errorf("pending grants = %d, want 0", len(h.bus.pendingGrants))
		}
		if got := h.bus.Stats().GrantsDenied; got != 3 {
			t.Errorf("GrantsDenied = %d, want 3", got)
		}
	})
}

// A destination that dies while a message is on the bus→device wire: the
// three rules of hop.arrive. Device b is failed 500 ns before the message
// would have reached it.
func TestDestinationDiesInFlight(t *testing.T) {
	sizeOf := func(m msg.Message) sim.Duration { return sim.Duration(msg.EncodedSize(m)) }
	hb, disc, forged := &msg.Heartbeat{Seq: 3}, &msg.DiscoverReq{Query: "file:x", Nonce: 1}, &msg.Reset{Reason: "forged"}
	hello := &msg.Hello{Name: "b"}
	fromA := func(of msg.Message) func(*testDev) bool {
		return func(d *testDev) bool {
			for _, env := range d.inbox {
				if env.Src == 1 && env.Msg.Kind() == of.Kind() {
					return true
				}
			}
			return false
		}
	}
	for _, tc := range []struct {
		name     string
		send     func(a, b *testDev) uint32
		flight   sim.Duration // send to arrival at b, were it alive
		alsoKill msg.DeviceID
		nacked   bool
		dropped  uint64
		reached  func(b *testDev) bool
	}{
		{"unicast, sender alive: NackDeadDst",
			func(a, b *testDev) uint32 { return a.port.Send(2, hb) }, 2*(1000+sizeOf(hb)) + 100, 0, true, 0, fromA(hb)},
		// Two drops: the heartbeat, and the notice of a's failure that was
		// on its way to b when b died.
		{"unicast, sender dead too: dropped",
			func(a, b *testDev) uint32 { return a.port.Send(2, hb) }, 2*(1000+sizeOf(hb)) + 100, 1, false, 2, fromA(hb)},
		{"broadcast copy: dropped",
			func(a, b *testDev) uint32 { return a.port.Send(msg.Broadcast, disc) }, 2*(1000+sizeOf(disc)) + 100, 0, false, 1, fromA(disc)},
		{"bus-originated HelloAck: dropped",
			func(a, b *testDev) uint32 { return b.port.Send(msg.BusID, hello) },
			2*1000 + sizeOf(hello) + 100 + sizeOf(&msg.HelloAck{}), 0, false, 1,
			func(b *testDev) bool { return b.countKind(msg.KindHelloAck) > 1 }},
		{"device-sent Reset: not delivered",
			func(a, b *testDev) uint32 { return a.port.Send(2, forged) }, 2*(1000+sizeOf(forged)) + 100, 0, true, 0, fromA(forged)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, timedCfg)
			a := h.addDev(1, "a", msg.RoleAccelerator)
			b := h.addDev(2, "b", msg.RoleAccelerator)
			c := h.addDev(3, "c", msg.RoleAccelerator)
			h.boot()
			before := h.bus.Stats()
			seq := tc.send(a, b)
			h.eng.Schedule(tc.flight-500, func() {
				if tc.alsoKill != 0 {
					_ = h.bus.FailDevice(tc.alsoKill, "test")
				}
				if err := h.bus.FailDevice(2, "test"); err != nil {
					t.Error(err)
				}
			})
			h.eng.Run()
			if tc.reached(b) {
				t.Error("the message reached the dead device")
			}
			st := h.bus.Stats()
			if got := st.Dropped - before.Dropped; got != tc.dropped {
				t.Errorf("Dropped +%d, want +%d", got, tc.dropped)
			}
			n, _ := a.lastOfKind(msg.KindNack).(*msg.Nack)
			switch {
			case !tc.nacked && n != nil:
				t.Errorf("sender was told %+v, want silence", n)
			case tc.nacked && (n == nil || n.Code != msg.NackDeadDst || n.Seq != seq || n.Reason != "b failed in flight"):
				t.Errorf("sender was told %+v, want NackDeadDst \"b failed in flight\" for seq %d", n, seq)
			}
			// The Reset the bus itself sends is the one message a dead
			// device still receives, and the others hear of the failure.
			if r, ok := b.lastOfKind(msg.KindReset).(*msg.Reset); !ok || r.Reason != "test" {
				t.Errorf("dead device's last reset = %+v, want the bus's", r)
			}
			if c.countKind(msg.KindDeviceFailed) == 0 {
				t.Error("bystander never heard of the failure")
			}
			if tc.name == "broadcast copy: dropped" && c.countKind(msg.KindDiscoverReq) != 1 {
				t.Error("the live port's broadcast copy was lost with the dead one's")
			}
		})
	}
}
