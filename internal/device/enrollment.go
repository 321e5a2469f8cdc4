package device

import (
	"fmt"

	"nocpu/internal/bus"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
)

// Enrollment is the bus-facing half of an endpoint's lifecycle, the one
// copy the device chassis and the centralized kernel both use: the Hello
// that enrolls the endpoint, retransmitted with bounded backoff until the
// HelloAck (§4: enrollment must survive a lossy bus); a Heartbeat every
// period, so a bus watchdog can tell the endpoint is up; and the
// CreditUpdate handed to its port. The owner decides when it lives:
// Enroll or Beat start it, Stop silences it.
type Enrollment struct {
	eng   *sim.Engine
	tr    *trace.Tracer
	port  *bus.Port
	role  msg.Role
	name  string
	every sim.Duration // heartbeat period; 0 sends none

	services  []string
	hello, hb sim.Timer // the Hello retry and the next heartbeat
	tries     int
	seq       uint64
}

// NewEnrollment is the enrollment of the endpoint behind port.
func NewEnrollment(eng *sim.Engine, tr *trace.Tracer, port *bus.Port, role msg.Role, name string, every sim.Duration) Enrollment {
	return Enrollment{eng: eng, tr: tr, port: port, role: role, name: name, every: every}
}

// Hello retransmission. The retry timer is stopped by the HelloAck; in a
// fault-free run it never fires, and a stopped timer leaves the event
// schedule bit-identical.
const (
	helloRetryBase = 2 * sim.Millisecond
	helloRetryMax  = 5
)

// Enroll announces the endpoint with its services and starts its
// heartbeat.
func (e *Enrollment) Enroll(services []string) {
	e.services, e.tries = services, 0
	e.sendHello()
	e.Beat()
}

func (e *Enrollment) sendHello() {
	e.port.Send(msg.BusID, &msg.Hello{Role: e.role, Name: e.name, Services: append([]string(nil), e.services...), Incarnation: e.port.Incarnation()})
	if e.tries >= helloRetryMax {
		// Budget exhausted: give up rather than retry forever (an
		// unbounded timer would keep the simulation from draining). The
		// endpoint stays up; the bus simply never learned of it.
		e.tr.Record(e.eng.Now(), e.name, "", "hello-abandoned", fmt.Sprintf("after %d attempts", e.tries+1))
		return
	}
	delay := helloRetryBase << uint(e.tries)
	e.tries++
	e.hello.Arm(e.eng, delay, (*helloRetry)(e))
}

// helloRetry and heartbeat are the enrollment as an event (pointer
// conversions: arming them allocates nothing). Stop cancels both, so they
// fire only while the endpoint lives.
type helloRetry Enrollment

func (h *helloRetry) Fire() {
	e := (*Enrollment)(h)
	e.tr.Record(e.eng.Now(), e.name, "", "hello-retry", fmt.Sprintf("attempt %d", e.tries+1))
	e.sendHello()
}

// Beat arms the next heartbeat, when the endpoint has a period.
func (e *Enrollment) Beat() {
	if e.every > 0 {
		e.hb.Arm(e.eng, e.every, (*heartbeat)(e))
	}
}

type heartbeat Enrollment

func (h *heartbeat) Fire() {
	e := (*Enrollment)(h)
	e.seq++
	e.port.Send(msg.BusID, &msg.Heartbeat{Seq: e.seq})
	e.Beat()
}

// Stop cancels the Hello retry and the heartbeat: the endpoint has died.
func (e *Enrollment) Stop() {
	e.hello.Stop()
	e.hb.Stop()
}

// Receive takes the bus's answers to the enrollment: a HelloAck or a
// CreditUpdate.
func (e *Enrollment) Receive(m msg.Message) {
	switch m := m.(type) {
	case *msg.HelloAck:
		e.hello.Stop()
	case *msg.CreditUpdate:
		// Flow-control replenishment is port plumbing, not endpoint
		// logic: the port drains stalled sends.
		e.port.AddCredits(m.Credits, m.ForInc)
	}
}
