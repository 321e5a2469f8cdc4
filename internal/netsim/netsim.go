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

	stats       Stats
	outstanding int
	generating  bool
	started     sim.Time
	lastDone    sim.Time
	onDone      func()
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
	o.Eng.Schedule(o.Duration, func() {
		o.generating = false
		o.maybeFinish()
	})
	o.scheduleNext()
}

// Stats returns the accumulated statistics (valid after done).
func (o *OpenLoop) Stats() Stats {
	s := o.stats
	s.Span = o.lastDone.Sub(o.started)
	return s
}

func (o *OpenLoop) scheduleNext() {
	if !o.generating {
		return
	}
	mean := sim.Duration(float64(sim.Second) / o.Rate)
	o.Eng.Schedule(o.Rand.Exp(mean), func() {
		if !o.generating {
			return
		}
		o.fire()
		o.scheduleNext()
	})
}

func (o *OpenLoop) fire() {
	seq := o.stats.Sent
	o.stats.Sent++
	o.outstanding++
	payload := o.Gen(o.Rand, seq)
	t0 := o.Eng.Now()
	o.Eng.Schedule(o.WireLatency, func() {
		o.Target(payload, func(resp []byte) {
			o.Eng.Schedule(o.WireLatency, func() {
				o.stats.Completed++
				o.stats.Latency.Observe(o.Eng.Now().Sub(t0))
				if o.IsError != nil && o.IsError(resp) {
					o.stats.Errors++
				}
				o.lastDone = o.Eng.Now()
				o.outstanding--
				o.maybeFinish()
			})
		})
	})
}

func (o *OpenLoop) maybeFinish() {
	if !o.generating && o.outstanding == 0 && o.onDone != nil {
		cb := o.onDone
		o.onDone = nil
		cb()
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

	stats    Stats
	started  sim.Time
	lastDone sim.Time
	active   int
	onDone   func()
	seq      uint64
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

// Stats returns the accumulated statistics (valid after done).
func (c *ClosedLoop) Stats() Stats {
	s := c.stats
	s.Span = c.lastDone.Sub(c.started)
	return s
}

func (c *ClosedLoop) workerStep(iter int) {
	if iter >= c.PerWorker {
		c.active--
		if c.active == 0 && c.onDone != nil {
			cb := c.onDone
			c.onDone = nil
			cb()
		}
		return
	}
	seq := c.seq
	c.seq++
	c.stats.Sent++
	payload := c.Gen(c.Rand, seq)
	t0 := c.Eng.Now()
	c.Eng.Schedule(c.WireLatency, func() {
		c.Target(payload, func(resp []byte) {
			c.Eng.Schedule(c.WireLatency, func() {
				c.stats.Completed++
				c.stats.Latency.Observe(c.Eng.Now().Sub(t0))
				if c.IsError != nil && c.IsError(resp) {
					c.stats.Errors++
				}
				c.lastDone = c.Eng.Now()
				if c.Think > 0 {
					c.Eng.Schedule(c.Think, func() { c.workerStep(iter + 1) })
				} else {
					c.workerStep(iter + 1)
				}
			})
		})
	})
}
