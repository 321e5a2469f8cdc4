// Package overload is the deterministic open-loop load-ramp harness for
// the overload-resilience experiments. A ramp is the experiment's own
// data: the offered rates it visits and one generator seed per step.
// RunStep drives one step's Poisson arrivals through netsim against a
// NIC edge for a window, each request carrying an optional deadline, and
// classifies every response at client completion time.
//
// The package also carries the Ledger, the oracle for the three overload
// guarantees the experiments assert:
//
//	Q1 — bounded queues: no watched queue's depth watermark ever exceeds
//	     its configured bound (credit stall FIFOs, bus ingress, NIC rx,
//	     DMA windows, the kernel's mediated-I/O backlog).
//	Q2 — graceful degradation: goodput at 2× saturation stays at or above
//	     80% of goodput at saturation — overload sheds load instead of
//	     collapsing into queueing.
//	Q3 — no silent loss: every issued request resolves to exactly one of
//	     ok / late / shed / error; shed work is refused with an explicit
//	     response, never dropped on the floor.
//
// Determinism: each step's OpenLoop draws only from the seed it is
// given, so the same step produces the same arrival sequence on every run
// regardless of what else the caller's RNGs have consumed.
package overload

import (
	"fmt"

	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// Outcome classifies one response at client completion time.
type Outcome int

// Response outcomes. Every issued request resolves to exactly one.
const (
	// OutcomeOK: served successfully within the deadline (goodput).
	OutcomeOK Outcome = iota
	// OutcomeLate: served successfully but past the deadline — work the
	// machine should have shed (it was already dead to the client).
	OutcomeLate
	// OutcomeShed: explicitly refused under load (admission control,
	// edge shedding). The refusal is the resolution — not silent loss.
	OutcomeShed
	// OutcomeError: any other failure.
	OutcomeError
)

// StepResult is one step's measured outcome.
type StepResult struct {
	Multiplier float64
	Rate       float64 // offered rate
	Sent       uint64
	OK         uint64 // within-deadline successes
	Late       uint64
	Shed       uint64
	Errors     uint64
	Goodput    float64 // OK per second over the step span
	P50        sim.Duration
	P99        sim.Duration
}

// Resolved is the number of requests that got a definite outcome.
func (s StepResult) Resolved() uint64 { return s.OK + s.Late + s.Shed + s.Errors }

// RunStep runs one ramp step against target: a Poisson open loop at
// rate requests/second drawn from seed for window, each request stamped
// with its absolute deadline when deadline is nonzero, the engine driven
// until every request resolves. gen builds the i-th payload (deadline is
// 0 when the step has none); classify maps a response to its outcome
// (late-ness is applied here, after classification, so classify only
// inspects bytes). The result's Multiplier is the caller's to fill in.
func RunStep(eng *sim.Engine, target netsim.Target, rate float64, seed uint64, window, deadline sim.Duration,
	gen func(rd *sim.Rand, seq uint64, deadline uint64) []byte,
	classify func(resp []byte) Outcome) StepResult {

	res := StepResult{Rate: rate}
	wire := netsim.DefaultWireLatency
	ol := &netsim.OpenLoop{
		Eng:         eng,
		Rand:        sim.NewRand(seed),
		Rate:        rate,
		Duration:    window,
		WireLatency: wire,
		Gen: func(rd *sim.Rand, seq uint64) []byte {
			var dl uint64
			if deadline > 0 {
				dl = uint64(eng.Now().Add(deadline))
			}
			return gen(rd, seq, dl)
		},
		Target: func(p []byte, reply func([]byte)) {
			// Requests reach the edge exactly one wire latency after
			// generation, so the stamped deadline is recoverable here
			// without threading state: issue = now - wire.
			var dl sim.Time
			if deadline > 0 {
				dl = eng.Now().Add(deadline - wire)
			}
			target(p, func(resp []byte) {
				// The client observes the response one wire latency
				// from now; late-ness is judged at that instant.
				out := classify(resp)
				if out == OutcomeOK && dl > 0 && eng.Now().Add(wire) > dl {
					out = OutcomeLate
				}
				switch out {
				case OutcomeOK:
					res.OK++
				case OutcomeLate:
					res.Late++
				case OutcomeShed:
					res.Shed++
				default:
					res.Errors++
				}
				reply(resp)
			})
		},
	}
	done := false
	ol.Run(func() { done = true })
	stop := eng.Now().Add(window + 30*sim.Second)
	for !done && eng.Now() < stop {
		eng.RunFor(sim.Millisecond)
	}
	if !done {
		panic(fmt.Sprintf("overload: step at %.0f/s did not drain within 30s past its window", rate))
	}
	st := ol.Stats()
	res.Sent = st.Sent
	if span := st.Span; span > 0 {
		res.Goodput = float64(res.OK) / (float64(span) / float64(sim.Second))
	}
	res.P50 = st.Latency.P50()
	res.P99 = st.Latency.P99()
	return res
}
