// Package overload is the ledger of the overload-resilience experiments.
// A ramp is the experiment's own data: the offered rates it visits and
// one generator seed per step. Each step is one open-loop netsim load
// against a NIC edge, each request carrying a client deadline; NewStep
// reads the step's outcome off the load's stats.
//
// The Ledger is the oracle for the three overload guarantees the
// experiments assert:
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
package overload

import (
	"nocpu/internal/kvs"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// StepResult is one step's measured outcome. Every issued request
// resolves to exactly one of OK, Late, Shed and Errors.
type StepResult struct {
	Multiplier float64
	Rate       float64 // offered rate
	Sent       uint64
	// OK was served (OK or NotFound) within the deadline: goodput.
	OK uint64
	// Late was served past the deadline: work the machine should have
	// shed, since it was already dead to the client.
	Late uint64
	// Shed was explicitly refused under load (admission control, edge
	// shedding): the refusal is the resolution, not silent loss.
	Shed    uint64
	Errors  uint64  // any other reply
	Goodput float64 // OK per second over the step span
	P50     sim.Duration
	P99     sim.Duration
}

// NewStep is the outcome of the step at multiplier × saturation, offered
// at rate, read off its load's stats.
func NewStep(multiplier, rate float64, st netsim.Stats) StepResult {
	served, shed := st.Served(), st.Status[kvs.StatusShed]
	res := StepResult{
		Multiplier: multiplier, Rate: rate, Sent: st.Sent,
		OK: st.InTime, Late: served - st.InTime, Shed: shed, Errors: st.Completed - served - shed,
		P50: st.Latency.P50(), P99: st.Latency.P99(),
	}
	if st.Span > 0 {
		res.Goodput = float64(res.OK) / (float64(st.Span) / float64(sim.Second))
	}
	return res
}

// Resolved is the number of requests that got a definite outcome.
func (s StepResult) Resolved() uint64 { return s.OK + s.Late + s.Shed + s.Errors }
