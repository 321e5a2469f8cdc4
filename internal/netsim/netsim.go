// Package netsim models the external network clients of §3: remote
// machines issuing requests to applications offloaded on the smart NIC.
//
// The generators are deterministic (seeded) and measure end-to-end
// client-observed latency. Two loop disciplines are provided: open loop
// (Poisson arrivals at a fixed offered rate — the standard way to expose
// queueing collapse) and closed loop (N workers, each one request in
// flight — the standard way to measure peak sustainable throughput).
package netsim

import (
	"nocpu/internal/metrics"
	"nocpu/internal/sim"
)

// Target is where generated requests go: the NIC edge (payload in, reply
// callback out).
type Target func(payload []byte, reply func([]byte))

// DefaultWireLatency is the one-way client<->NIC network latency.
const DefaultWireLatency = 2 * sim.Microsecond

// Stats summarizes one workload run.
type Stats struct {
	Sent      uint64
	Completed uint64
	Errors    uint64 // responses the classifier rejected
	Latency   *metrics.Histogram
	// Span is the time from first send to last completion.
	Span sim.Duration
}

// Throughput returns completions per second over the span.
func (s Stats) Throughput() float64 {
	if s.Span <= 0 {
		return 0
	}
	return float64(s.Completed) / (float64(s.Span) / float64(sim.Second))
}

// OpenLoop issues requests with exponential inter-arrival times at Rate
// requests/second for Duration, independent of responses.
type OpenLoop struct {
	Eng  *sim.Engine
	Rand *sim.Rand
	Rate float64
	// Duration is the generation window; the run ends when all in-flight
	// requests drain.
	Duration sim.Duration
	// Gen builds the i-th request payload.
	Gen func(r *sim.Rand, seq uint64) []byte
	// IsError classifies a response (nil = all succeed).
	IsError func(resp []byte) bool
	// WireLatency is the one-way network latency (defaulted).
	WireLatency sim.Duration
	Target      Target

	loop
	outstanding int
	generating  bool
}

// loop is what both disciplines keep of a run: its counters and its end.
type loop struct {
	stats    Stats
	started  sim.Time
	lastDone sim.Time
	onDone   func()
}

// Stats returns the accumulated statistics (valid after done).
func (l *loop) Stats() Stats {
	s := l.stats
	s.Span = l.lastDone.Sub(l.started)
	return s
}

// observe counts a request whose reply is back.
func (l *loop) observe(q *request, isError func([]byte) bool) {
	l.lastDone = q.eng.Now()
	l.stats.Completed++
	l.stats.Latency.Observe(l.lastDone.Sub(q.t0))
	if isError != nil && isError(q.resp) {
		l.stats.Errors++
	}
}

// finish runs done, once.
func (l *loop) finish() {
	if cb := l.onDone; cb != nil {
		l.onDone = nil
		cb()
	}
}

// Run starts the generator; done fires when the window has passed and all
// requests completed.
func (o *OpenLoop) Run(done func()) {
	if o.WireLatency == 0 {
		o.WireLatency = DefaultWireLatency
	}
	o.stats.Latency = metrics.NewHistogram()
	o.onDone = done
	o.generating = true
	o.started = o.Eng.Now()
	o.Eng.Schedule(o.Duration, (*windowEnd)(o))
	o.scheduleNext()
}

// windowEnd is the open loop as the event that closes its generation
// window (a pointer conversion: scheduling it allocates nothing), and
// arrival as the event of its next Poisson arrival.
type windowEnd OpenLoop

func (w *windowEnd) Fire() {
	o := (*OpenLoop)(w)
	o.generating = false
	o.maybeFinish()
}

type arrival OpenLoop

func (a *arrival) Fire() {
	o := (*OpenLoop)(a)
	if !o.generating {
		return
	}
	o.fire()
	o.scheduleNext()
}

func (o *OpenLoop) scheduleNext() {
	if !o.generating {
		return
	}
	mean := sim.Duration(float64(sim.Second) / o.Rate)
	o.Eng.Schedule(o.Rand.Exp(mean), (*arrival)(o))
}

func (o *OpenLoop) fire() {
	seq := o.stats.Sent
	o.stats.Sent++
	o.outstanding++
	o.Eng.Schedule(o.WireLatency, &request{eng: o.Eng, target: o.Target, wire: o.WireLatency, gen: o,
		payload: o.Gen(o.Rand, seq), t0: o.Eng.Now()})
}

func (o *OpenLoop) completed(q *request) {
	o.observe(q, o.IsError)
	o.outstanding--
	o.maybeFinish()
}

func (o *OpenLoop) maybeFinish() {
	if !o.generating && o.outstanding == 0 {
		o.finish()
	}
}

// ClosedLoop runs Workers concurrent clients, each with exactly one
// request in flight, until each has completed PerWorker requests.
type ClosedLoop struct {
	Eng       *sim.Engine
	Rand      *sim.Rand
	Workers   int
	PerWorker int
	Gen       func(r *sim.Rand, seq uint64) []byte
	IsError   func(resp []byte) bool
	// Think is an optional delay between a response and the next request.
	Think       sim.Duration
	WireLatency sim.Duration
	Target      Target

	loop
	active int
	seq    uint64
}

// Run starts all workers; done fires when every worker finishes.
func (c *ClosedLoop) Run(done func()) {
	if c.WireLatency == 0 {
		c.WireLatency = DefaultWireLatency
	}
	c.stats.Latency = metrics.NewHistogram()
	c.onDone = done
	c.started = c.Eng.Now()
	c.active = c.Workers
	for w := 0; w < c.Workers; w++ {
		c.workerStep(0)
	}
}

func (c *ClosedLoop) workerStep(iter int) {
	if iter >= c.PerWorker {
		c.active--
		if c.active == 0 {
			c.finish()
		}
		return
	}
	seq := c.seq
	c.seq++
	c.stats.Sent++
	c.Eng.Schedule(c.WireLatency, &request{eng: c.Eng, target: c.Target, wire: c.WireLatency, gen: c,
		payload: c.Gen(c.Rand, seq), t0: c.Eng.Now(), iter: iter})
}

// completed takes a request back after its reply and again after the
// worker's think time.
func (c *ClosedLoop) completed(q *request) {
	if !q.thinking {
		c.observe(q, c.IsError)
		if c.Think > 0 {
			q.thinking = true
			c.Eng.Schedule(c.Think, q)
			return
		}
	}
	c.workerStep(q.iter + 1)
}

// request is one generated op, from send to completion: the event of its
// arrival at the target, of the reply's arrival back and, for a closed-loop
// worker that thinks, of the think time ending.
type request struct {
	eng            *sim.Engine
	target         Target
	wire           sim.Duration
	gen            interface{ completed(*request) } // the loop that sent it
	payload, resp  []byte
	t0             sim.Time
	iter           int // closed loop: the worker's request number
	back, thinking bool
}

func (q *request) Fire() {
	if !q.back {
		q.target(q.payload, q.reply)
		return
	}
	q.gen.completed(q)
}

// reply is the target's answer, which travels back over the wire.
func (q *request) reply(resp []byte) {
	q.resp, q.back = resp, true
	q.eng.Schedule(q.wire, q)
}
