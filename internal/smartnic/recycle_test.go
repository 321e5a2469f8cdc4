package smartnic

import (
	"errors"
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
