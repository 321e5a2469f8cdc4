package bus

import (
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// A hop goes back on the bus's free list where its last stage ends, and
// the next message may take it at once. The tests below hold a recycled
// record to never being seen in flight.

// heartbeats returns the Seq of every heartbeat in d's inbox from src, in
// arrival order.
func (d *testDev) heartbeats(src msg.DeviceID) []uint64 {
	var out []uint64
	for _, env := range d.inbox {
		if hb, ok := env.Msg.(*msg.Heartbeat); ok && env.Src == src {
			out = append(out, hb.Seq)
		}
	}
	return out
}

// wantRun fails unless got is first, first+1, …, first+n-1.
func wantRun(t *testing.T, who string, got []uint64, first uint64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%s got %d messages, want %d", who, len(got), n)
	}
	for i, s := range got {
		if s != first+uint64(i) {
			t.Fatalf("%s message %d carries %d, want %d", who, i, s, first+uint64(i))
		}
	}
}

// With the fault plane duplicating every message on both wires, twice as
// many records are taken and given back, and a twin is copied out of a
// record in flight. The bus's dedup window eats the device→bus copy, so
// the destination sees each envelope once; a bus-originated NACK arrives
// twice, and both copies refuse the send they answer.
func TestDuplicatedHopsKeepTheirEnvelopes(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	h.boot()
	h.bus.SetFaultPlane(faultinject.New(1).
		Add(faultinject.Rule{Layer: faultinject.LayerBus, Src: 1, Op: faultinject.Dup}).
		Add(faultinject.Rule{Layer: faultinject.LayerBus, Src: msg.BusID, Op: faultinject.Dup}))
	const n = 20
	refused := make([]uint32, n) // a's link seqs of the sends to nowhere
	for i := 0; i < n; i++ {
		a.port.Send(2, &msg.Heartbeat{Seq: uint64(i)})
		refused[i] = a.port.Send(9, &msg.Heartbeat{Seq: uint64(100 + i)})
	}
	inbox := len(a.inbox)
	h.eng.Run()
	wantRun(t, "b", b.heartbeats(1), 0, n)

	var nacks []msg.Envelope
	for _, env := range a.inbox[inbox:] {
		if env.Msg.Kind() == msg.KindNack {
			nacks = append(nacks, env)
		}
	}
	if len(nacks) != 2*n {
		t.Fatalf("a got %d NACKs, want two copies of %d", len(nacks), n)
	}
	for i, seq := range refused {
		for _, env := range nacks[2*i : 2*i+2] {
			if m := env.Msg.(*msg.Nack); m.Seq != seq || m.Of != msg.KindHeartbeat || m.Code != msg.NackUnknownDst {
				t.Errorf("NACK pair %d carries %+v, want the refusal of seq %d", i, m, seq)
			}
			if env.Seq != nacks[2*i].Seq {
				t.Errorf("NACK pair %d: copies carry bus seqs %d and %d", i, nacks[2*i].Seq, env.Seq)
			}
		}
	}
}

// A handler that sends from inside arrive takes a record while its own
// is still in use: both messages arrive intact.
func TestHandlerSendsFromArrive(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	c := h.addDev(3, "c", msg.RoleAccelerator)
	h.boot()
	b.onMsg = func(env msg.Envelope) {
		if hb, ok := env.Msg.(*msg.Heartbeat); ok {
			b.port.Send(3, &msg.Heartbeat{Seq: hb.Seq + 1000})
		}
	}
	const n = 10
	for i := 0; i < n; i++ {
		a.port.Send(2, &msg.Heartbeat{Seq: uint64(i)})
	}
	h.eng.Run()
	wantRun(t, "b", b.heartbeats(1), 0, n)
	wantRun(t, "c", c.heartbeats(2), 1000, n)
}

// A hop shed at the ingress bound, and one that process refuses with a
// NACK, go back on the list: the one allocation left on either path is
// the Nack body the bus answers with.
func TestRefusedHopsGoBack(t *testing.T) {
	cfg := DefaultConfig
	cfg.IngressBound = 1
	cfg.ProcPerMsg = 100 * sim.Microsecond
	eng := sim.NewEngine()
	b := New(eng, cfg, nil)
	var ports [2]*Port
	for i := range ports {
		id := msg.DeviceID(i + 1)
		p, err := b.Attach(id, id.String(), msg.RoleAccelerator, nil, func(msg.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = p
		p.Send(msg.BusID, &msg.Hello{Name: id.String()}) // one at a time fits the bound
		eng.Run()
	}
	hb := &msg.Heartbeat{}
	for _, tc := range []struct {
		name  string
		send  func()
		count func(Stats) uint64
	}{
		// Two sends land at once: the first is queued, the second shed.
		{"shed", func() { ports[0].Send(2, hb); ports[0].Send(2, hb) }, func(s Stats) uint64 { return s.IngressShed }},
		{"nack", func() { ports[0].Send(9, hb) }, func(s Stats) uint64 { return s.Nacks }},
	} {
		run := func() { tc.send(); eng.Run() }
		before := tc.count(b.Stats())
		run()
		if got := tc.count(b.Stats()) - before; got != 1 {
			t.Fatalf("%s: counter moved by %d, want 1", tc.name, got)
		}
		n := testing.AllocsPerRun(100, run)
		t.Logf("%s: %v allocations", tc.name, n)
		if n > 1 {
			t.Errorf("%s allocates %v times, want <= 1 (the Nack)", tc.name, n)
		}
	}
}

// A burst several times sim.FreeBound in flight at once outgrows the list:
// the records it cannot keep are dropped to the collector, never shared,
// and every payload arrives once, in order.
func TestBurstPastFreeBoundKeepsEveryPayload(t *testing.T) {
	h := newHarness(t, DefaultConfig)
	a := h.addDev(1, "a", msg.RoleAccelerator)
	b := h.addDev(2, "b", msg.RoleAccelerator)
	c := h.addDev(3, "c", msg.RoleAccelerator)
	h.boot()
	const n = 3 * sim.FreeBound
	for round := 0; round < 2; round++ { // the second round runs on recycled records
		first := uint64(round * n)
		for i := 0; i < n; i++ {
			a.port.Send(2, &msg.Heartbeat{Seq: first + uint64(i)})
			c.port.Send(msg.Broadcast, &msg.Heartbeat{Seq: first + uint64(i)})
		}
		h.eng.Run()
		wantRun(t, "b from a", b.heartbeats(1)[first:], first, n)
		wantRun(t, "b from c", b.heartbeats(3)[first:], first, n)
		wantRun(t, "a from c", a.heartbeats(3)[first:], first, n)
	}
}
