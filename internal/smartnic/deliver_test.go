package smartnic

import (
	"bytes"
	"testing"

	"nocpu/internal/sim"
)

// replyTwice answers every request with its payload and then with "again".
type replyTwice struct{ testApp }

func (a *replyTwice) ServeNetwork(p []byte, reply func([]byte)) {
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

// shedEcho is a Shedder that echoes what it serves.
type shedEcho struct{ testApp }

func (a *shedEcho) ShedResponse() []byte { return []byte("shed") }

// A Delivery carries the app's first response through tx itself. A second
// response for the same request finds the record in flight and must not
// reuse it: it pays its own tx submission and still reaches the client.
func TestSecondReplyPaysItsOwnTx(t *testing.T) {
	m := newMachine(t)
	m.nic.AddApp(&replyTwice{testApp{id: 7}})
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
	m.nic.DeliverOneWay(new(Delivery), 7, []byte("peer frame")) // served, echoed into the void
	m.nic.DeliverOneWay(new(Delivery), 7, []byte("peer frame")) // rx is full: shed
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

// TestNICDeliverAllocs pins what a frame costs the NIC. A client request
// to a plain app costs its Delivery and the Delivery's Reply handed to the
// app as a func (2). A RequestApp is handed the Delivery itself as its
// Replier, so a request to one costs only its Delivery (1). A one-way
// frame costs only its Delivery, which the fabric embeds in the arrival
// record it already has: a plain app gets the NIC's shared discard func,
// a RequestApp the Delivery (1). The parent read 2 for a client request
// to any app and 1 for a one-way frame.
func TestNICDeliverAllocs(t *testing.T) {
	m := newMachine(t)
	m.nic.AddApp(&testApp{id: 7})
	m.nic.AddApp(&sink{testApp{id: 8}})
	m.nic.AddApp(&recordEcho{testApp{id: 9}})
	m.eng.Run()
	payload, reply := []byte("ping"), func([]byte) {}

	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"client request to a plain app", 2, func() { m.nic.Deliver(7, payload, reply) }},
		{"client request to a RequestApp", 1, func() { m.nic.Deliver(9, payload, reply) }},
		{"one-way frame to a plain app", 1, func() { m.nic.DeliverOneWay(&Delivery{}, 8, payload) }},
		{"one-way frame to a RequestApp", 1, func() { m.nic.DeliverOneWay(&Delivery{}, 9, payload) }},
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
// an echo app and tx; a one-way frame through rx to an app that does not
// answer.
func BenchmarkNICDeliver(b *testing.B) {
	m := newMachine(b)
	m.nic.AddApp(&testApp{id: 7})
	m.nic.AddApp(&sink{testApp{id: 8}})
	m.eng.Run()
	payload, reply := []byte("ping"), func([]byte) {}
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.nic.Deliver(7, payload, reply)
			m.eng.Run()
		}
	})
	b.Run("oneway", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.nic.DeliverOneWay(new(Delivery), 8, payload)
			m.eng.Run()
		}
	})
}
