package smartnic

import (
	"fmt"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// This file is the runtime's reliability layer (§4 "Error handling"): the
// system bus may drop, delay, duplicate or NACK control messages, so every
// Figure-2 request carries a per-request timeout with bounded exponential
// backoff and an idempotent retransmission. Providers tolerate replays
// (memctrl re-sends recorded allocations, the SSD re-quotes an unconnected
// instance, the bus re-acks grants), so a retransmission is always safe.
//
// Determinism: each attempt arms one timer that the response callback
// stops. In a fault-free run no retry timer ever fires, and stopped timers
// leave the event schedule bit-identical, so the layer is free when
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

// retrier drives one reliable request: send, wait, retransmit, give up.
type retrier struct {
	n    *NIC
	pol  RetryPolicy
	op   string
	send func() uint32 // transmit one attempt; returns the port seq
	// onFail must unregister the pending-response callback, then surface
	// the error to the caller.
	onFail func(error)

	timer    *sim.Timer
	attempts int
	started  sim.Time
	lastNack string
	// The three small fields share one word: a retrier is allocated per
	// control request, and with them apart it falls in the next size class.
	seq  uint32 // last attempt's link-layer seq, for NACK correlation
	dst  msg.DeviceID
	done bool
}

func (n *NIC) newRetrier(pol RetryPolicy, op string, dst msg.DeviceID, send func() uint32) *retrier {
	return &retrier{n: n, pol: pol, op: op, dst: dst, send: send}
}

func (r *retrier) start() {
	r.started = r.n.dev.Engine().Now()
	r.n.retryStats.Requests++
	r.attempt()
}

func (r *retrier) attempt() {
	if r.seq != 0 {
		delete(r.n.inflight, r.seq)
	}
	r.seq = r.send()
	r.n.inflight[r.seq] = r
	wait := r.pol.timeoutFor(r.attempts)
	r.attempts++
	r.timer = r.n.dev.Engine().After(wait, r.onTimeout)
}

func (r *retrier) onTimeout() {
	if r.done {
		return
	}
	if r.attempts > r.pol.MaxRetries {
		r.fail()
		return
	}
	r.n.retryStats.Retries++
	r.attempt()
}

// nacked is the fast path: the bus told us the attempt was refused, so
// retransmit after a short delay instead of waiting out the full timeout
// (the NACK reason — e.g. a dead destination — may clear after a reset).
func (r *retrier) nacked(m *msg.Nack) {
	if r.done {
		return
	}
	r.lastNack = fmt.Sprintf("%v: %s", m.Code, m.Reason)
	if r.timer != nil {
		r.timer.Stop()
	}
	if r.attempts > r.pol.MaxRetries {
		r.fail()
		return
	}
	delay := r.pol.Timeout / 4
	if delay <= 0 {
		delay = sim.Millisecond
	}
	r.n.retryStats.Retries++
	r.n.retryStats.NackFast++
	r.timer = r.n.dev.Engine().After(delay, func() {
		if r.done {
			return
		}
		r.attempt()
	})
}

// stop ends the request successfully (a response arrived).
func (r *retrier) stop() {
	if r.done {
		return
	}
	r.done = true
	if r.timer != nil {
		r.timer.Stop()
	}
	delete(r.n.inflight, r.seq)
}

func (r *retrier) fail() {
	r.done = true
	delete(r.n.inflight, r.seq)
	r.n.retryStats.Exhausted++
	r.onFail(&TimeoutError{
		Op:       r.op,
		Dst:      r.dst,
		Attempts: r.attempts,
		Elapsed:  sim.Duration(r.n.dev.Engine().Now() - r.started),
		LastNack: r.lastNack,
	})
}

// onNack routes a bus refusal to the request it answers.
func (n *NIC) onNack(env msg.Envelope) {
	m := env.Msg.(*msg.Nack)
	if r, ok := n.inflight[m.Seq]; ok {
		r.nacked(m)
	}
}
