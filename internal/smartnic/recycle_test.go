package smartnic

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// A finished call's record goes back on the NIC's list before its
// continuation runs, so the call that continuation starts takes it. The
// tests below hold a recycled record to never being seen in flight.

// Each discovery is issued from the previous one's continuation and
// reuses its record; each continuation runs once, with its own answer.
func TestNextCallFromContinuationGetsItsOwnResponse(t *testing.T) {
	m := newMachine(t)
	m.createFile(t, "kv.dat", nil)
	rt := m.bootApp(t, 1)
	queries := []string{"file:kv.dat", "file+create:a.dat", "file:kv.dat", "file+create:b.dat"}
	var got []string
	var first *call
	var next func(i int)
	next = func(i int) {
		if i == len(queries) {
			return
		}
		rt.Discover(queries[i], func(_ msg.DeviceID, service string, err error) {
			if err != nil {
				t.Errorf("discovery %d: %v", i, err)
				return
			}
			got = append(got, service)
			next(i + 1)
		})
		c := m.nic.pending[callKey{kind: msg.KindDiscoverResp, id: uint64(m.nic.nextNonce)}]
		if first == nil {
			first = c
		} else if c != first {
			t.Errorf("discovery %d did not reuse the finished call's record", i)
		}
	}
	next(0)
	m.eng.Run()
	if len(got) != len(queries) {
		t.Fatalf("answers %q, want one per query %q", got, queries)
	}
	for i, q := range queries {
		if got[i] != q {
			t.Errorf("discovery %d answered %q, want %q", i, got[i], q)
		}
	}
}

// A call whose key was taken over runs out its budget while the record of
// the call that took the key over is reused by a third: both failures
// name their own requests.
func TestTakenOverCallFailsWithItsOwnOp(t *testing.T) {
	m := newMachine(t)
	m.bootApp(t, 1)
	pol := RetryPolicy{Timeout: 400 * sim.Microsecond, MaxRetries: 2}
	key := callKey{kind: msg.KindFreeResp, app: 1, id: 0x1000}
	third := callKey{kind: msg.KindAllocResp, app: 1, id: 0x3000}
	var firstErr, thirdErr error
	m.nic.call(pol, 99, &msg.FreeReq{App: 1, VA: 0x1000}, key, rawAnswer(func(_ msg.DeviceID, _ msg.Message, err error) { firstErr = err }))
	m.nic.call(pol, 99, &msg.GrantReq{App: 1, VA: 0x2000, Target: ssdID}, key, rawAnswer(func(msg.DeviceID, msg.Message, error) {
		m.nic.call(pol, 99, &msg.AllocReq{App: 1, VA: 0x3000, Bytes: 4096}, third, rawAnswer(func(_ msg.DeviceID, _ msg.Message, err error) { thirdErr = err }))
	}))
	second := m.nic.pending[key]
	m.nic.onResponse(msg.Envelope{Src: mcID, Msg: &msg.FreeResp{App: 1, VA: 0x1000, OK: true}})
	if m.nic.pending[third] != second {
		t.Fatal("the third call did not reuse the second's record")
	}
	m.eng.Run()
	for _, tc := range []struct {
		err  error
		want string
	}{{firstErr, "free of va 0x1000"}, {thirdErr, "alloc of 4096 bytes"}} {
		var te *TimeoutError
		if !errors.As(tc.err, &te) || te.Op != tc.want || te.Dst != 99 {
			t.Errorf("failure %v, want a timeout of %q to dev99", tc.err, tc.want)
		}
	}
}

// A second response and a NACK for a call that already finished find
// nothing, even though the record now carries another call: neither runs
// a continuation nor retransmits.
func TestLateAnswersForAFinishedCallFindNothing(t *testing.T) {
	m := newMachine(t)
	m.bootApp(t, 1)
	key := callKey{kind: msg.KindFreeResp, app: 1, id: 0x1000}
	runs := 0
	// To a device that does not exist: the bus's NACK arrives after the
	// call has finished.
	m.nic.call(DefaultRetryPolicy, 99, &msg.FreeReq{App: 1, VA: 0x1000}, key, rawAnswer(func(msg.DeviceID, msg.Message, error) { runs++ }))
	c := m.nic.pending[key]
	seq := c.seq
	resp := msg.Envelope{Src: mcID, Msg: &msg.FreeResp{App: 1, VA: 0x1000, OK: true}}
	m.nic.onResponse(resp)

	next := callKey{kind: msg.KindFreeResp, app: 1, id: 0x2000}
	var answers []*msg.FreeResp
	m.nic.call(DefaultRetryPolicy, mcID, &msg.FreeReq{App: 1, VA: 0x2000}, next, rawAnswer(func(_ msg.DeviceID, r msg.Message, err error) {
		if err != nil {
			t.Errorf("next call: %v", err)
			return
		}
		answers = append(answers, r.(*msg.FreeResp))
	}))
	if m.nic.pending[next] != c {
		t.Fatal("the next call did not reuse the finished call's record")
	}
	before := m.nic.RetryStats()
	m.nic.onResponse(resp)
	m.nic.onNack(msg.Envelope{Src: msg.BusID, Msg: &msg.Nack{Of: msg.KindFreeReq, Seq: seq, Dst: 99, Code: msg.NackUnknownDst}})
	m.eng.Run() // the bus's own NACK for seq lands here
	if runs != 1 {
		t.Errorf("the finished call's continuation ran %d times, want 1", runs)
	}
	if after := m.nic.RetryStats(); after.Retries != before.Retries || after.NackFast != before.NackFast {
		t.Errorf("a late NACK retransmitted: %+v -> %+v", before, after)
	}
	if len(answers) != 1 || answers[0].VA != 0x2000 {
		t.Errorf("next call answered %+v, want once, for va 0x2000", answers)
	}
}

// A RequestApp's delivery goes back on the NIC's list once its answer has
// crossed tx, and so does a transmit record. The tests below hold a
// recycled delivery to never being seen in flight.

// An app holds more requests than the list keeps and answers them in
// reverse order, delivering a new request right after each answer, while
// that answer's record is still on tx. A third batch arrives once the
// first batch's records are back on the list, and the app then answers
// every request it holds in reverse order again. Every client hears its
// own answer once, one TxCost after the answer before it, and the third
// batch's first FreeBound requests run on the first batch's records.
func TestHeldRequestsReuseTheirRecords(t *testing.T) {
	m := newMachine(t)
	app := &keeper{testApp: testApp{id: 7}}
	m.nic.AddApp(app)
	m.eng.Run()

	const n = 2 * sim.FreeBound
	var got [][]string
	var at []sim.Time
	deliver := func() {
		c := len(got)
		got, at = append(got, nil), append(at, 0)
		m.nic.Deliver(7, []byte(fmt.Sprintf("q%d", c)), func(b []byte) {
			got[c] = append(got[c], string(b))
			at[c] = m.eng.Now()
		})
	}
	want := map[string]sim.Time{}
	// answer replies to everything the app holds, last first, and delivers
	// a new request after each answer when more is set.
	answer := func(more bool) {
		held, asked := app.reps, app.got
		app.reps, app.got = nil, nil
		start := m.eng.Now()
		for k := range held {
			i := len(held) - 1 - k
			held[i].Reply([]byte("a:" + asked[i]))
			want[asked[i]] = start.Add(sim.Duration(k+1) * DefaultTxCost)
			if more {
				deliver()
			}
		}
		m.eng.Run()
	}

	for range n {
		deliver()
	}
	m.eng.Run()
	first := map[*delivery]bool{}
	for _, rep := range app.reps {
		first[rep.(*delivery)] = true
	}
	answer(true)
	for range n {
		deliver()
	}
	m.eng.Run()
	reused := 0
	for _, rep := range app.reps[n:] {
		if first[rep.(*delivery)] {
			reused++
		}
	}
	if reused != sim.FreeBound {
		t.Errorf("the third batch ran on %d of the first batch's records, want %d", reused, sim.FreeBound)
	}
	answer(false)

	if len(want) != 3*n {
		t.Fatalf("%d requests answered, want %d", len(want), 3*n)
	}
	for c := range got {
		q := fmt.Sprintf("q%d", c)
		if !slices.Equal(got[c], []string{"a:" + q}) || at[c] != want[q] {
			t.Errorf("client %d heard %q at %v, want [a:%s] once at %v", c, got[c], at[c], q, want[q])
		}
	}
}

// echoLog is a RequestApp that answers every request with its payload
// and logs the Replier it was handed.
type echoLog struct {
	testApp
	reps []Replier
}

func (a *echoLog) ServeRequest(_ uint16, _ bool, p []byte, rep Replier) {
	a.reps = append(a.reps, rep)
	rep.Reply(p)
}

// Each client's reply delivers the next request from inside itself. Its
// record is back on the list by then, so every request runs on the first
// one's record, and each client still hears its own answer once, one rx
// and one tx after it was sent.
func TestReplyThatDeliversReusesItsRecord(t *testing.T) {
	m := newMachine(t)
	app := &echoLog{testApp: testApp{id: 7}}
	m.nic.AddApp(app)
	m.eng.Run()

	const chain = 8
	got := make([][]string, chain)
	at := make([]sim.Time, chain)
	var send func(c int)
	send = func(c int) {
		m.nic.Deliver(7, []byte(fmt.Sprintf("q%d", c)), func(b []byte) {
			got[c] = append(got[c], string(b))
			at[c] = m.eng.Now()
			if c+1 < chain {
				send(c + 1)
			}
		})
	}
	start := m.eng.Now()
	send(0)
	m.eng.Run()
	for c := range chain {
		want := start.Add(sim.Duration(c+1) * (DefaultRxCost + DefaultTxCost))
		if q := fmt.Sprintf("q%d", c); !slices.Equal(got[c], []string{q}) || at[c] != want {
			t.Errorf("client %d heard %q at %v, want [%s] once at %v", c, got[c], at[c], q, want)
		}
	}
	if len(app.reps) != chain {
		t.Fatalf("the app served %d requests, want %d", len(app.reps), chain)
	}
	for c, rep := range app.reps {
		if rep != app.reps[0] {
			t.Errorf("request %d did not run on the record its predecessor gave back", c)
		}
	}
}
