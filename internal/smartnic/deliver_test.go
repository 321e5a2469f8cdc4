package smartnic

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nocpu/internal/sim"
)

// replyTwice answers every request with its payload and then with
// "again", and keeps every reply func it is handed.
type replyTwice struct {
	testApp
	kept []func([]byte)
}

func (a *replyTwice) ServeNetwork(p []byte, reply func([]byte)) {
	a.kept = append(a.kept, reply)
	reply(p)
	reply([]byte("again"))
}

// sink serves every request without answering, as the fabric router does
// with a peer frame.
type sink struct{ testApp }

func (a *sink) ServeNetwork([]byte, func([]byte)) {}

// recordEcho is a RequestApp that answers through its Replier.
type recordEcho struct{ testApp }

func (a *recordEcho) ServeRequest(_ uint16, _ bool, p []byte, rep Replier) { rep.Reply(p) }

// recordSink is a RequestApp that never answers.
type recordSink struct{ testApp }

func (a *recordSink) ServeRequest(uint16, bool, []byte, Replier) {}

// keeper is a RequestApp that keeps every payload and Replier it is
// handed and answers none of them.
type keeper struct {
	testApp
	got  []string
	reps []Replier
}

func (a *keeper) ServeRequest(_ uint16, _ bool, p []byte, rep Replier) {
	a.got = append(a.got, string(p))
	a.reps = append(a.reps, rep)
}

// shedEcho is a Shedder that echoes what it serves.
type shedEcho struct{ testApp }

func (a *shedEcho) ShedResponse() []byte { return []byte("shed") }

// A Delivery carries the app's first response through tx itself. A second
// response for the same request finds the record in flight and must not
// reuse it: it pays its own tx submission and still reaches the client.
// A plain app may keep its reply func and answer once more after another
// client's request came and went, so its record never goes back on the
// NIC's list: the late answer still reaches the first client alone.
func TestSecondReplyPaysItsOwnTx(t *testing.T) {
	m := newMachine(t)
	app := &replyTwice{testApp: testApp{id: 7}}
	m.nic.AddApp(app)
	m.eng.Run()

	var got [][]byte
	var at []sim.Time
	jobs, start := m.nic.tx.Jobs(), m.eng.Now()
	m.nic.Deliver(7, []byte("ping"), func(b []byte) {
		got = append(got, b)
		at = append(at, m.eng.Now())
	})
	m.eng.Run()

	if len(got) != 2 || !bytes.Equal(got[0], []byte("ping")) || !bytes.Equal(got[1], []byte("again")) {
		t.Fatalf("client saw %q, want [ping again]", got)
	}
	if n := m.nic.tx.Jobs() - jobs; n != 2 {
		t.Errorf("tx served %d jobs for two responses, want 2", n)
	}
	first := start.Add(DefaultRxCost + DefaultTxCost)
	if at[0] != first || at[1] != first.Add(DefaultTxCost) {
		t.Errorf("responses at %v, want %v and one TxCost later", at, first)
	}

	var other [][]byte
	m.nic.Deliver(7, []byte("pong"), func(b []byte) { other = append(other, b) })
	m.eng.Run()
	late := m.eng.Now()
	app.kept[0]([]byte("late"))
	m.eng.Run()
	if len(got) != 3 || !bytes.Equal(got[2], []byte("late")) || at[2] != late.Add(DefaultTxCost) {
		t.Errorf("after a late answer the first client saw %q at %v, want a third answer \"late\" at %v", got, at, late.Add(DefaultTxCost))
	}
	if len(other) != 2 || !bytes.Equal(other[0], []byte("pong")) || !bytes.Equal(other[1], []byte("again")) {
		t.Errorf("the second client saw %q, want [pong again]", other)
	}
}

// A one-way frame's answer goes nowhere but still costs tx time, and a
// one-way frame shed at the rx bound still charges a Shedder app's
// refusal to tx.
func TestOneWayStillChargesTx(t *testing.T) {
	m := newMachine(t)
	m.nic.cfg.RxQueueBound = 1
	m.nic.AddApp(&shedEcho{testApp{id: 7}})
	m.eng.Run()

	jobs, busy := m.nic.tx.Jobs(), m.nic.tx.BusyTotal()
	m.nic.DeliverOneWay(7, []byte("peer frame")) // served, echoed into the void
	m.nic.DeliverOneWay(7, []byte("peer frame")) // rx is full: shed
	if m.nic.RxShed != 1 {
		t.Fatalf("RxShed = %d, want 1", m.nic.RxShed)
	}
	m.eng.Run()

	if n := m.nic.tx.Jobs() - jobs; n != 2 {
		t.Errorf("tx served %d jobs (one discarded echo, one shed refusal), want 2", n)
	}
	if d := m.nic.tx.BusyTotal() - busy; d != 2*DefaultTxCost {
		t.Errorf("tx busy for %v, want %v", d, 2*DefaultTxCost)
	}
	if m.nic.NetRequests != 1 {
		t.Errorf("NetRequests = %d, want 1", m.nic.NetRequests)
	}
}

// A one-way frame's record is recycled as its app stage begins, so the
// Replier an app is handed for one must not lead back to it. A RequestApp
// keeps the Replier of a first frame and answers it only after more
// frames than the free list holds have queued on rx together and another
// round has reused their records: every frame reaches the app once, with
// its own payload, and every answer costs one tx job of its own.
func TestOneWayRecordIsNotSeenInFlight(t *testing.T) {
	m := newMachine(t)
	app := &keeper{testApp: testApp{id: 7}}
	m.nic.AddApp(app)
	m.eng.Run()

	var want []string
	send := func(p string) {
		want = append(want, p)
		m.nic.DeliverOneWay(7, []byte(p))
	}
	send("first")
	m.eng.Run()
	for round := range 2 {
		for i := range 2 * sim.FreeBound {
			send(fmt.Sprintf("round %d frame %d", round, i))
		}
		if round == 0 && m.nic.rx.Pending() != 2*sim.FreeBound {
			t.Fatalf("%d frames queued on rx, want %d", m.nic.rx.Pending(), 2*sim.FreeBound)
		}
		m.eng.Run()
	}
	if !slices.Equal(app.got, want) {
		t.Fatalf("the app saw %q, want %q", app.got, want)
	}

	jobs, busy := m.nic.tx.Jobs(), m.nic.tx.BusyTotal()
	for _, rep := range app.reps {
		rep.Reply([]byte("late"))
	}
	m.eng.Run()
	if n := m.nic.tx.Jobs() - jobs; n != uint64(len(want)) {
		t.Errorf("tx served %d jobs for %d late answers, want one each", n, len(want))
	}
	if d := m.nic.tx.BusyTotal() - busy; d != sim.Duration(len(want))*DefaultTxCost {
		t.Errorf("tx busy for %v, want %v", d, sim.Duration(len(want))*DefaultTxCost)
	}
	if len(app.got) != len(want) || m.nic.NetRequests != uint64(len(want)) {
		t.Errorf("late answers reached the app again: it saw %d frames, NetRequests = %d, want %d", len(app.got), m.nic.NetRequests, len(want))
	}
}

// TestNICDeliverAllocs pins what a frame costs the NIC. A client request
// to a plain app costs its delivery, which never goes back on the NIC's
// list, and the delivery's Reply handed to the app as a func (2). A
// RequestApp is handed the delivery itself as its Replier and answers it
// at most once, so its record goes back on the list once its answer has
// crossed tx and the next request takes it (0; 1 while every client
// request allocated its record). A
// one-way frame's record comes from the list too and every app is handed
// the shared discard, so a frame nobody answers costs nothing (0), and
// the tx record of an echo comes off the list as well (0; 1 while
// transmit allocated its record). A one-way frame read 1 to any app while
// the caller supplied its record.
func TestNICDeliverAllocs(t *testing.T) {
	m := newMachine(t)
	m.nic.AddApp(&testApp{id: 7})
	m.nic.AddApp(&sink{testApp{id: 8}})
	m.nic.AddApp(&recordEcho{testApp{id: 9}})
	m.nic.AddApp(&recordSink{testApp{id: 10}})
	m.eng.Run()
	payload, reply := []byte("ping"), func([]byte) {}

	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"client request to a plain app", 2, func() { m.nic.Deliver(7, payload, reply) }},
		{"client request to a RequestApp", 0, func() { m.nic.Deliver(9, payload, reply) }},
		{"one-way frame to a plain app", 0, func() { m.nic.DeliverOneWay(8, payload) }},
		{"one-way frame to a RequestApp that does not answer", 0, func() { m.nic.DeliverOneWay(10, payload) }},
		{"one-way frame to a RequestApp that echoes", 0, func() { m.nic.DeliverOneWay(9, payload) }},
	} {
		n := testing.AllocsPerRun(200, func() {
			c.run()
			m.eng.Run()
		})
		t.Logf("%s: %v allocations", c.name, n)
		if n > c.max {
			t.Errorf("%s allocates %v times, want <= %v", c.name, n, c.max)
		}
	}
}

// BenchmarkNICDeliver is one frame through the NIC: a request through rx,
// an echo app and tx; the same to a RequestApp that echoes through its
// Replier; a one-way frame through rx to an app that does not answer.
func BenchmarkNICDeliver(b *testing.B) {
	m := newMachine(b)
	m.nic.AddApp(&testApp{id: 7})
	m.nic.AddApp(&sink{testApp{id: 8}})
	m.nic.AddApp(&recordEcho{testApp{id: 9}})
	m.eng.Run()
	payload, reply := []byte("ping"), func([]byte) {}
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.nic.Deliver(7, payload, reply)
			m.eng.Run()
		}
	})
	b.Run("request-app", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.nic.Deliver(9, payload, reply)
			m.eng.Run()
		}
	})
	b.Run("oneway", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.nic.DeliverOneWay(8, payload)
			m.eng.Run()
		}
	})
}
