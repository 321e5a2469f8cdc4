package smartnic

import (
	"errors"
	"fmt"
	"sort"

	"nocpu/internal/device"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartssd"
)

// This file is the runtime's control-plane call (§4 "Error handling"): the
// system bus may drop, delay, duplicate or NACK control messages, so every
// Figure-2 request — discovery, open, alloc, grant, connect, close, free,
// a mediated file op, the rejoin state query — and every image load is one
// call record with a per-request timeout, bounded exponential backoff and
// an idempotent retransmission. Providers tolerate replays (memctrl
// re-sends recorded allocations, a device's session table re-quotes an
// unconnected instance and re-acks an identical connect or close, the bus
// re-acks grants, a loader rewrites the whole image), so a retransmission
// is always safe.
//
// A call holds the request message itself (a retransmission sends it
// again), the timer that is its own event, and the one continuation that
// gets the response or the typed failure: the caller's own callback, held
// as an answer. NIC.pending maps a callKey — what keyOf computes from the
// answering response — to the call, and NIC.inflight the last attempt's
// link-layer seq, so a bus NACK finds it.
//
// Determinism: a request registers, counts, sends, then arms one timer;
// a response unregisters, stops the timer, then runs the continuation.
// In a fault-free run no call timer ever fires, and a stopped timer
// leaves the event schedule bit-identical, so the layer is free when
// injection is disabled.

// RetryPolicy bounds one request's retransmission budget.
type RetryPolicy struct {
	// Timeout is the first attempt's response timeout; it doubles per
	// retry up to MaxTimeout.
	Timeout    sim.Duration
	MaxTimeout sim.Duration
	// MaxRetries is the retransmission budget after the first send.
	MaxRetries int
}

// DefaultRetryPolicy suits the emulated bus: a control round trip is tens
// of microseconds, so 3ms only fires when a message was actually lost.
var DefaultRetryPolicy = RetryPolicy{
	Timeout:    3 * sim.Millisecond,
	MaxTimeout: 24 * sim.Millisecond,
	MaxRetries: 5,
}

// timeoutFor is the response timeout for 0-based attempt i.
func (p RetryPolicy) timeoutFor(attempt int) sim.Duration {
	d := p.Timeout << uint(attempt)
	if p.MaxTimeout > 0 && d > p.MaxTimeout {
		d = p.MaxTimeout
	}
	return d
}

// withBase returns the policy with its initial timeout replaced.
func (p RetryPolicy) withBase(base sim.Duration) RetryPolicy {
	if base > 0 {
		p.Timeout = base
	}
	return p
}

// TimeoutError is the typed failure after the retry budget is spent.
type TimeoutError struct {
	Op       string
	Dst      msg.DeviceID
	Attempts int
	Elapsed  sim.Duration
	LastNack string // bus refusal accompanying the final attempt, if any
}

func (e *TimeoutError) Error() string {
	s := fmt.Sprintf("smartnic: %s timed out after %d attempts (%v)", e.Op, e.Attempts, e.Elapsed)
	if e.LastNack != "" {
		s += " (last nack: " + e.LastNack + ")"
	}
	return s
}

// RetryStats counts reliability-layer activity (reported by E14).
type RetryStats struct {
	Requests  uint64 // reliable requests issued
	Retries   uint64 // retransmissions (timeout- or NACK-triggered)
	NackFast  uint64 // of those, NACK-triggered fast retransmissions
	Exhausted uint64 // requests that failed after the full budget
}

// callKey is a response's natural correlator: the fields a provider
// echoes from the request. id is the nonce, connection id, handle or VA;
// sub the grant target, the mediated op's seq, or the provider answering
// a connect, close or load (providers number their connections and name
// their images independently); name the service or the image.
type callKey struct {
	kind msg.Kind // of the response
	app  msg.AppID
	id   uint64
	sub  uint32
	name string
}

// responseKinds lists what onResponse is registered for: exactly the
// kinds keyOf has an arm for (retry_test.go holds the two together).
var responseKinds = []msg.Kind{
	msg.KindDiscoverResp, msg.KindOpenResp, msg.KindConnectResp, msg.KindCloseResp,
	msg.KindAllocResp, msg.KindFreeResp, msg.KindGrantResp, msg.KindFileIOResp,
	msg.KindStateResp, msg.KindLoadResp,
}

// keyOf computes the key of the call a response answers; a message that
// answers no call gets the zero key, which is never pending. It is a
// switch here rather than a method on msg's types because which fields
// correlate is this client's choice, not a fact about the wire format.
func keyOf(env msg.Envelope) callKey {
	k := callKey{kind: env.Msg.Kind()}
	switch m := env.Msg.(type) {
	case *msg.DiscoverResp:
		k.id = uint64(m.Nonce)
	case *msg.OpenResp:
		k.app, k.name = m.App, m.Service
	case *msg.ConnectResp:
		k.id, k.sub = uint64(m.ConnID), uint32(env.Src)
	case *msg.CloseResp:
		k.id, k.sub = uint64(m.ConnID), uint32(env.Src)
	case *msg.AllocResp:
		k.app, k.id = m.App, m.VA
	case *msg.FreeResp:
		k.app, k.id = m.App, m.VA
	case *msg.GrantResp:
		k.app, k.id, k.sub = m.App, m.VA, uint32(m.Target)
	case *msg.FileIOResp:
		k.app, k.id, k.sub = m.App, uint64(m.Handle), m.Seq
	case *msg.StateResp:
		k.id = uint64(m.Nonce)
	case *msg.LoadResp:
		k.name, k.sub = m.Image, uint32(env.Src)
	default:
		return callKey{}
	}
	return k
}

// call is one reliable request: send, wait, retransmit, give up. It is
// the entry of NIC.pending and the event of its own timer; it comes off
// NIC.calls and goes back there in finish.
type call struct {
	// tm is armed with the call itself; Fire is the response timeout, or
	// the end of the post-NACK delay when delaying is set.
	tm   sim.Timer
	n    *NIC
	req  msg.Message // what every attempt sends
	key  callKey
	done answer // runs exactly once

	pol      RetryPolicy
	started  sim.Time
	lastNack string
	attempts int
	seq      uint32 // last attempt's link-layer seq, for NACK correlation
	dst      msg.DeviceID
	delaying bool
}

// call issues req to dst and answers done with the response whose keyOf
// is key, or with a *TimeoutError once pol's budget is spent. A second
// call on a key still pending takes the key over: the response goes to
// it, and the first call runs out its budget and fails.
func (n *NIC) call(pol RetryPolicy, dst msg.DeviceID, req msg.Message, key callKey, done answer) {
	c := n.calls.Get()
	*c = call{n: n, req: req, key: key, done: done, pol: pol, dst: dst, started: n.dev.Engine().Now()}
	n.pending[key] = c
	n.retryStats.Requests++
	c.attempt()
}

func (c *call) attempt() {
	n := c.n
	delete(n.inflight, c.seq)
	c.seq = n.dev.Send(c.dst, c.req)
	n.inflight[c.seq] = c
	wait := c.pol.timeoutFor(c.attempts)
	c.attempts++
	c.tm.Arm(n.dev.Engine(), wait, c)
}

// Fire is the call's timer: retransmit, or fail once the budget is spent.
func (c *call) Fire() {
	if c.delaying {
		c.delaying = false
		c.attempt()
		return
	}
	if c.attempts > c.pol.MaxRetries {
		c.fail()
		return
	}
	c.n.retryStats.Retries++
	c.attempt()
}

// nacked is the fast path: the bus told us the attempt was refused, so
// retransmit after a short delay instead of waiting out the full timeout
// (the NACK reason — e.g. a dead destination — may clear after a reset).
func (c *call) nacked(m *msg.Nack) {
	c.lastNack = fmt.Sprintf("%v: %s", m.Code, m.Reason)
	c.tm.Stop() // the timeout, or an earlier NACK's delay: tm is re-armed below
	if c.attempts > c.pol.MaxRetries {
		c.fail()
		return
	}
	delay := c.pol.Timeout / 4
	if delay <= 0 {
		delay = sim.Millisecond
	}
	c.n.retryStats.Retries++
	c.n.retryStats.NackFast++
	c.delaying = true
	c.tm.Arm(c.n.dev.Engine(), delay, c)
}

// finish ends the call: it takes it out of both tables, stops its timer,
// puts the record back on the NIC's list and returns the continuation and
// the key for the caller to run it with. The key may have been taken over
// by a later call; that entry is not ours. Once the tables and the timer
// let go, nothing holds the record, so the continuation may start the
// next call at once and that call may reuse it.
func (c *call) finish() (answer, callKey) {
	n, done, key := c.n, c.done, c.key
	if n.pending[c.key] == c {
		delete(n.pending, c.key)
	}
	c.tm.Stop()
	delete(n.inflight, c.seq)
	n.calls.Put(c)
	return done, key
}

func (c *call) fail() {
	err := &TimeoutError{
		Op:       opOf(c.req),
		Dst:      c.dst,
		Attempts: c.attempts,
		Elapsed:  sim.Duration(c.n.dev.Engine().Now() - c.started),
		LastNack: c.lastNack,
	}
	c.n.retryStats.Exhausted++
	done, key := c.finish()
	done.answer(key, 0, nil, err)
}

// opOf names a request for TimeoutError.Op. Only a failed call pays for
// the formatting.
func opOf(req msg.Message) string {
	switch m := req.(type) {
	case *msg.DiscoverReq:
		return fmt.Sprintf("discovery of %q", m.Query)
	case *msg.OpenReq:
		return fmt.Sprintf("open of %q", m.Service)
	case *msg.ConnectReq:
		return fmt.Sprintf("connect of %q conn %d", m.Service, m.ConnID)
	case *msg.CloseReq:
		return fmt.Sprintf("close of conn %d", m.ConnID)
	case *msg.AllocReq:
		if m.Huge {
			return fmt.Sprintf("huge alloc of %d bytes", m.Bytes)
		}
		return fmt.Sprintf("alloc of %d bytes", m.Bytes)
	case *msg.FreeReq:
		return fmt.Sprintf("free of va %#x", m.VA)
	case *msg.GrantReq:
		return fmt.Sprintf("grant of va %#x to dev%d", m.VA, m.Target)
	case *msg.FileIOReq:
		return fmt.Sprintf("mediated %v (seq %d)", smartssd.FileOp(m.Op), m.Seq)
	}
	return req.Kind().String()
}

// refusal is the error a provider's !OK answer gives a typed callback;
// nil for an acceptance. The grant's target and the image come from the
// key, which echoes them.
func refusal(key callKey, resp msg.Message) error {
	switch m := resp.(type) {
	case *msg.AllocResp:
		if !m.OK {
			return fmt.Errorf("smartnic: alloc failed: %s", m.Reason)
		}
	case *msg.FreeResp:
		if !m.OK {
			return fmt.Errorf("smartnic: free failed: %s", m.Reason)
		}
	case *msg.GrantResp:
		if !m.OK {
			return fmt.Errorf("smartnic: grant to %v denied: %s", msg.DeviceID(key.sub), m.Reason)
		}
	case *msg.LoadResp:
		if !m.OK {
			return fmt.Errorf("smartnic: load of %q refused: %s", key.name, m.Reason)
		}
	case *msg.CloseResp:
		if !m.OK {
			return errors.New("smartnic: close refused")
		}
	}
	return nil
}

// answer is a call's continuation: the caller's own callback, whose type
// says what it wants out of the response. A func value is pointer-shaped,
// so holding one in the interface allocates nothing, where a closure
// around it would.
type answer interface {
	answer(key callKey, src msg.DeviceID, resp msg.Message, err error)
}

// errAnswer is a free, grant, load or close: only the verdict.
type errAnswer func(error)

func (f errAnswer) answer(key callKey, _ msg.DeviceID, resp msg.Message, err error) {
	if err == nil {
		err = refusal(key, resp)
	}
	f(err)
}

// vaAnswer is an alloc: the region's VA, which the key holds.
type vaAnswer func(va uint64, err error)

func (f vaAnswer) answer(key callKey, _ msg.DeviceID, resp msg.Message, err error) {
	if err == nil {
		err = refusal(key, resp)
	}
	if err != nil {
		f(0, err)
		return
	}
	f(key.id, nil)
}

// discoverAnswer is a discovery: who answered, and the service it named.
type discoverAnswer func(provider msg.DeviceID, service string, err error)

func (f discoverAnswer) answer(_ callKey, src msg.DeviceID, resp msg.Message, err error) {
	if err != nil {
		f(0, "", err)
		return
	}
	f(src, resp.(*msg.DiscoverResp).Service, nil)
}

// rawAnswer takes the response as it came, for a continuation that
// captures state of its own (an open, a connect, a mediated file op, the
// rejoin's state query and frees).
type rawAnswer func(src msg.DeviceID, resp msg.Message, err error)

func (f rawAnswer) answer(_ callKey, src msg.DeviceID, resp msg.Message, err error) {
	f(src, resp, err)
}

// onResponse routes a response to the call it answers. The first answer
// wins; a later one for the same key (a second discovery responder, a
// replay, an answer past the budget) finds nothing pending and is dropped.
// An accept dropped so, unless one of its app's sessions holds it (a
// replay to a retransmitted OpenReq), came after its open gave up: the
// provider still keeps that session, so the NIC closes it, as the kernel
// does (device.Answered).
func (n *NIC) onResponse(env msg.Envelope) {
	if c, ok := n.pending[keyOf(env)]; ok {
		done, key := c.finish()
		done.answer(key, env.Src, env.Msg, nil)
		return
	}
	if r, ok := env.Msg.(*msg.OpenResp); ok && n.rts[r.App] != nil {
		if _, stray := device.Answered(n.rts[r.App].openers, env.Src, r); stray != nil {
			n.dev.Send(env.Src, stray)
		}
	}
}

// onNack routes a bus refusal to the request it answers.
func (n *NIC) onNack(env msg.Envelope) {
	m := env.Msg.(*msg.Nack)
	if c, ok := n.inflight[m.Seq]; ok {
		c.nacked(m)
	}
}

// abortCalls discards every call of the dying incarnation without running
// its continuation: timers are stopped (schedule-neutral) so no stale
// timeout fires into the next life, and both tables start empty, so a
// response to the old life that is still in flight (the bus fences most
// of them by incarnation, but a provider may answer an old request with
// its own current incarnation) finds nothing pending and vanishes. Every
// live call is in inflight, including one whose key was taken over.
func (n *NIC) abortCalls() {
	seqs := make([]uint32, 0, len(n.inflight))
	for seq := range n.inflight {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		n.inflight[seq].tm.Stop()
	}
	n.pending = make(map[callKey]*call)
	n.inflight = make(map[uint32]*call)
}
