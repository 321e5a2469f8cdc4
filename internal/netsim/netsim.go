// Package netsim models the external network clients of §3: remote
// machines issuing KVS requests to a NIC-offloaded app or a rack.
//
// There is one client: a Spec declares the load and Start runs it, one
// request record per op. A closed loop keeps one op in flight per worker
// (peak throughput; with a timeout, the campaign client that survives
// lost requests), an open loop offers Poisson arrivals at a fixed rate
// (queueing collapse). Replies are tallied by kvs status, and every draw
// comes from the Spec's own seeded Rand or Zipf.
package netsim

import (
	"encoding/binary"

	"nocpu/internal/chaos"
	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// Target is where a load's requests go: a NIC edge, a rack's ingress
// balancer, a test's fake store. reply gets the encoded response.
type Target interface {
	Send(payload []byte, reply func([]byte))
}

// Edge is one app's NIC network edge. A nonzero Tenant makes it the
// edge-authenticated ingress of that tenant (smartnic.NIC.DeliverFrom).
type Edge struct {
	NIC    *smartnic.NIC
	App    msg.AppID
	Tenant uint16
}

// Send implements Target.
func (e Edge) Send(payload []byte, reply func([]byte)) {
	if e.Tenant != 0 {
		e.NIC.DeliverFrom(e.Tenant, e.App, payload, reply)
		return
	}
	e.NIC.Deliver(e.App, payload, reply)
}

// WireLatency is the one-way client<->NIC network latency an op without
// a Timeout crosses each way.
const WireLatency = 2 * sim.Microsecond

// Backoff is the pause before a worker's next op after a refusal: a
// system mid-recovery refuses instantly, and hammering it only inflates
// the attempt count.
const Backoff = 200 * sim.Microsecond

// Pick is how an op's key is chosen from Spec.Keys (a Spec with a Zipf
// draws from it instead).
type Pick uint8

const (
	Uniform    Pick = iota // drawn from the Spec's Rand
	Sequential             // in order, counting ops across workers
	// Owned gives worker w the KeysPer keys from w*KeysPer on, its i-th op
	// the (i mod KeysPer)-th: no two workers share a key.
	Owned
	// Walk starts worker w at key w*KeysPer and steps one key per op
	// around the whole pool, so workers collide on keys in turn.
	Walk
)

// Ops is what a load's ops do.
type Ops uint8

const (
	Gets  Ops = iota // every op a get
	Puts             // every op a put of ValueSize zero bytes
	Mixed            // a get with probability GetShare, drawn after the key; else a put
	// Versions: every op a put of the run's next version — an 8-byte
	// value unique and increasing across the run, noted in the Ledger.
	Versions
	// Alternate: Versions puts alternating with gets, even workers
	// opening with a put and odd ones with a get.
	Alternate
)

// Spec declares one load.
type Spec struct {
	// Workers closed-loop workers keep one op in flight each, for
	// PerWorker ops each or, when PerWorker is 0, until Stop. A Rate makes
	// it an open loop: Poisson arrivals at Rate ops/s for Window.
	Workers, PerWorker int
	Stop               sim.Time
	Rate               float64
	Window             sim.Duration

	// Keys is the key pool, picked from as Pick says (KeysPer: an Owned
	// or Walk pick's keys per worker), or by Zipf when set. Rand draws the
	// keys, the get share and the arrivals.
	Keys    []string
	Pick    Pick
	KeysPer int
	Zipf    *sim.Zipf
	Rand    *sim.Rand

	Ops       Ops
	ValueSize int     // a Puts or Mixed put's value length
	GetShare  float64 // a Mixed load's share of gets

	// Timeout, when set, bounds each op on the client: the worker moves on
	// when it expires, and after a refusal it waits one Backoff. A timed
	// op goes to the target inline; one without crosses the wire each way.
	// It must exceed the worst in-system lifetime of a write (DESIGN.md,
	// "Timeout soundness"). Deadline, when set, is stamped on each request
	// as its absolute deadline; a reply served by then counts as InTime.
	Timeout, Deadline sim.Duration
	// Ledger is fed every versioned put's attempt and ack; Readback
	// sweeps its keys. History records every versioned op's invocation and
	// first response for the linearizability check. Acks observes every
	// acknowledged versioned put.
	Ledger  *chaos.Ledger
	History *linearize.History
	Acks    Acker
}

// Acker observes acknowledged writes: issued is when the put was sent.
type Acker interface{ Acked(issued sim.Time) }

// statuses is the number of kvs statuses a reply can carry.
const statuses = int(kvs.StatusFenced) + 1

// Stats summarizes one load. A reply is tallied when it reaches the
// client; only an op's first reply counts.
type Stats struct {
	Sent, Completed uint64 // Completed: ops whose reply came back
	Puts, Gets      uint64
	// Status counts replies by kvs status. A garbled one — undecodable,
	// an unknown status, or a versioned get's value that is no version —
	// counts as StatusError.
	Status [statuses]uint64
	InTime uint64 // OK or NotFound within the op's Deadline (a load with one)
	// Timeouts and Refused count the ops a Timeout or a refusal (any
	// reply but OK or NotFound, answered in time) resolved.
	Timeouts, Refused uint64
	Latency           *metrics.Histogram
	// Span is the time from the first send to the last reply.
	Span sim.Duration
}

// Throughput returns completions per second over the span. A load that
// completed nothing reads 0.
func (s Stats) Throughput() float64 {
	return float64(s.Completed) / (float64(max(s.Span, 1)) / float64(sim.Second))
}

// Errors counts the replies that are not StatusOK, and Served those that
// answered the op: OK or NotFound. Fenced counts the typed refusals (shed,
// denied, fenced), which contractually did not execute, and Ambiguous the
// failures that may have: an error or an unavailable store.
func (s Stats) Errors() uint64 { return s.Completed - s.Status[kvs.StatusOK] }
func (s Stats) Served() uint64 { return s.Status[kvs.StatusOK] + s.Status[kvs.StatusNotFound] }
func (s Stats) Fenced() uint64 {
	return s.Status[kvs.StatusShed] + s.Status[kvs.StatusDenied] + s.Status[kvs.StatusFenced]
}
func (s Stats) Ambiguous() uint64 { return s.Status[kvs.StatusError] + s.Status[kvs.StatusUnavailable] }

// Client is one load in flight.
type Client struct {
	eng    *sim.Engine
	target Target
	spec   Spec

	stats             Stats
	started, lastDone sim.Time
	// running counts the closed loop's workers still issuing, or the open
	// loop's ops in flight.
	running    int
	generating bool   // open loop: the window is open
	version    uint64 // the last versioned put's value
}

// Run runs spec against target to completion and returns its stats.
func Run(eng *sim.Engine, target Target, spec Spec) Stats {
	c := Start(eng, target, spec)
	c.Wait()
	return c.Stats()
}

// Start starts the load: a closed loop's workers each issue their first
// op now, an open loop draws its first arrival.
func Start(eng *sim.Engine, target Target, spec Spec) *Client {
	c := &Client{eng: eng, target: target, spec: spec, started: eng.Now()}
	c.stats.Latency = metrics.NewHistogram()
	if spec.Rate > 0 {
		c.generating = true
		eng.Schedule(spec.Window, (*windowEnd)(c))
		c.nextArrival()
		return c
	}
	c.running = spec.Workers
	for w := 0; w < spec.Workers; w++ {
		c.issue(w, 0)
	}
	return c
}

// Done reports whether every op has resolved and no more will be issued;
// Wait runs the engine until it has.
func (c *Client) Done() bool { return !c.generating && c.running == 0 }
func (c *Client) Wait()      { Drive(c.eng, c.Done) }

// Stats returns the accumulated statistics.
func (c *Client) Stats() Stats {
	s := c.stats
	s.Span = c.lastDone.Sub(c.started)
	return s
}

// Drive advances virtual time in 1 ms steps until done reports true, and
// panics after 30 s of virtual time: a scenario bug, such as an op that
// neither answered nor timed out.
func Drive(eng *sim.Engine, done func() bool) {
	deadline := eng.Now().Add(30 * sim.Second)
	for !done() && eng.Now() < deadline {
		eng.RunFor(sim.Millisecond)
	}
	if !done() {
		panic("netsim: scenario did not complete within 30s of virtual time")
	}
}

// windowEnd is the open loop as the event that closes its window, and
// arrival as the event of its next Poisson arrival (pointer conversions:
// scheduling one allocates nothing).
type (
	windowEnd Client
	arrival   Client
)

func (w *windowEnd) Fire() { (*Client)(w).generating = false }

func (a *arrival) Fire() {
	c := (*Client)(a)
	if !c.generating {
		return
	}
	c.running++
	c.send(c.op(0, int(c.stats.Sent)))
	c.nextArrival()
}

func (c *Client) nextArrival() {
	mean := sim.Duration(float64(sim.Second) / c.spec.Rate)
	c.eng.Schedule(c.spec.Rand.Exp(mean), (*arrival)(c))
}

// issue sends worker w's iter-th op, or retires the worker once its
// count or the stop time is reached.
func (c *Client) issue(w, iter int) {
	if s := &c.spec; s.PerWorker > 0 && iter >= s.PerWorker || s.PerWorker == 0 && c.eng.Now() >= s.Stop {
		c.running--
		return
	}
	c.send(c.op(w, iter))
}

// op builds worker w's iter-th op: its key, what it does, its request.
func (c *Client) op(w, iter int) *request {
	s := &c.spec
	q := &request{c: c, worker: w, iter: iter, t0: c.eng.Now()}
	switch {
	case s.Zipf != nil:
		q.key = s.Keys[s.Zipf.Next()]
	case s.Pick == Sequential:
		q.key = s.Keys[int(c.stats.Sent)%len(s.Keys)]
	case s.Pick == Owned:
		q.key = s.Keys[w*s.KeysPer+iter%s.KeysPer]
	case s.Pick == Walk:
		q.key = s.Keys[(w*s.KeysPer+iter)%len(s.Keys)]
	default:
		q.key = s.Keys[s.Rand.Intn(len(s.Keys))]
	}
	c.stats.Sent++
	req := kvs.Request{Op: kvs.OpGet, Key: q.key}
	if s.Deadline > 0 {
		req.Deadline = uint64(q.t0.Add(s.Deadline))
	}
	switch s.Ops {
	case Puts:
		req.Op, req.Value = kvs.OpPut, make([]byte, s.ValueSize)
	case Mixed:
		if s.Rand.Float64() >= s.GetShare {
			req.Op, req.Value = kvs.OpPut, make([]byte, s.ValueSize)
		}
	case Versions, Alternate:
		if s.Ops == Versions || (w+iter)%2 == 0 {
			c.version++
			q.version = c.version
			req.Op, req.Value = kvs.OpPut, binary.LittleEndian.AppendUint64(nil, q.version)
			if s.Ledger != nil {
				s.Ledger.NoteAttempt(q.key, q.version)
			}
		}
	}
	kind := linearize.Put
	if q.get = req.Op == kvs.OpGet; q.get {
		kind = linearize.Get
		c.stats.Gets++
	} else {
		c.stats.Puts++
	}
	if h := s.History; h != nil {
		q.hid = h.Invoke(kind, q.key, q.version, q.t0)
	}
	q.buf = kvs.EncodeRequest(req)
	return q
}

// send puts q on the wire, or, with a Timeout, hands it to the target at
// once and then arms the timeout — unless the target answered inline.
func (c *Client) send(q *request) {
	if c.spec.Timeout == 0 {
		c.eng.Schedule(WireLatency, q)
		return
	}
	c.target.Send(q.buf, q.reply)
	if !q.resolved {
		q.tm.Arm(c.eng, c.spec.Timeout, (*expiry)(q))
	}
}

// request is one op, from send to its worker's next op: the event of its
// arrival at the target and of the reply's arrival back, and, with a
// Timeout, of its expiry or the backoff after a refusal (tm).
type request struct {
	c            *Client
	worker, iter int
	key          string
	version      uint64 // a versioned put's value
	hid          int    // the op's History id
	t0           sim.Time
	buf          []byte // the request, then the reply on its way back
	get          bool
	back         bool // the reply is on the wire back
	answered     bool // the first reply is tallied
	resolved     bool // a reply or the timeout moved the worker on
	tm           sim.Timer
}

func (q *request) Fire() {
	if !q.back {
		q.c.target.Send(q.buf, q.reply)
		return
	}
	c := q.c
	c.tally(q, q.buf)
	if c.spec.Rate > 0 {
		c.running--
		return
	}
	c.issue(q.worker, q.iter+1)
}

// reply is the target's answer. Without a Timeout it travels back over
// the wire. With one the first reply counts even when it lands after the
// timeout: the client observed it, so the ledger and the history account
// for it. A timed-out op with no reply stays pending in the history — an
// ambiguous write.
func (q *request) reply(resp []byte) {
	c := q.c
	if c.spec.Timeout == 0 {
		q.buf, q.back = resp, true
		c.eng.Schedule(WireLatency, q)
		return
	}
	if q.answered {
		return
	}
	served := c.tally(q, resp)
	if q.resolved {
		return
	}
	q.resolved = true
	q.tm.Stop()
	if served {
		c.issue(q.worker, q.iter+1)
		return
	}
	c.stats.Refused++
	q.tm.Arm(c.eng, Backoff, (*expiry)(q))
}

// expiry is the op as the event of its timeout, or of the end of the
// backoff after a refusal resolved it.
type expiry request

func (e *expiry) Fire() {
	q := (*request)(e)
	if !q.resolved {
		q.resolved = true
		q.c.stats.Timeouts++
	}
	q.c.issue(q.worker, q.iter+1)
}

// outcomes is each kvs status as the linearizability checker reads it:
// a typed refusal did not execute, an ambiguous failure may have.
var outcomes = [statuses]linearize.Outcome{
	kvs.StatusOK: linearize.OK, kvs.StatusNotFound: linearize.NotFound,
	kvs.StatusError: linearize.Maybe, kvs.StatusUnavailable: linearize.Maybe,
	kvs.StatusShed: linearize.Fail, kvs.StatusDenied: linearize.Fail, kvs.StatusFenced: linearize.Fail,
}

// tally counts q's first reply, judges it for the History, the Ledger and
// the Acker, and reports whether it was served (OK or NotFound).
func (c *Client) tally(q *request, b []byte) (served bool) {
	q.answered = true
	now, st, s := c.eng.Now(), &c.stats, &c.spec
	c.lastDone = now
	st.Completed++
	st.Latency.Observe(now.Sub(q.t0))
	resp, err := kvs.DecodeResponse(b)
	served = err == nil && (resp.Status == kvs.StatusOK || resp.Status == kvs.StatusNotFound)
	versioned := s.Ops >= Versions
	versionedGet := versioned && q.get
	status := kvs.StatusError
	if err == nil && int(resp.Status) < statuses && (!versionedGet || resp.Status != kvs.StatusOK || len(resp.Value) == 8) {
		status = resp.Status
	}
	st.Status[status]++
	out, ret := outcomes[status], uint64(0)
	if served && s.Deadline > 0 && now <= q.t0.Add(s.Deadline) {
		st.InTime++
	}
	if !versioned {
		return served
	}
	if versionedGet && out == linearize.OK {
		ret = binary.LittleEndian.Uint64(resp.Value)
	}
	if s.History != nil {
		s.History.Return(q.hid, out, ret, now)
	}
	if !q.get && out == linearize.OK {
		if s.Ledger != nil {
			s.Ledger.NoteAck(q.key, q.version)
		}
		if s.Acks != nil {
			s.Acks.Acked(q.t0)
		}
	}
	return served
}

// Readback sweeps every key the Ledger has seen through the load's
// target and feeds the answers to its G1/G2 checks, retrying transient
// unavailability. A key with no definitive answer (OK or NotFound) after
// 40 attempts is unroutable — an R3 violation. The sweep steps 100 µs
// while it waits for an answer, up to 20 ms, and 500 µs between attempts.
func (c *Client) Readback() {
	led := c.spec.Ledger
	for _, key := range led.Keys() {
		settled := false
		for attempt := 0; attempt < 40 && !settled; attempt++ {
			g := &sweep{}
			c.target.Send(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key}), g.reply)
			for lim := c.eng.Now().Add(20 * sim.Millisecond); !g.got && c.eng.Now() < lim; {
				c.eng.RunFor(100 * sim.Microsecond)
			}
			if settled = g.got && (g.resp.Status == kvs.StatusOK || g.resp.Status == kvs.StatusNotFound); !settled {
				c.eng.RunFor(500 * sim.Microsecond) // mid-recovery; ask again
				continue
			}
			val := ^uint64(0) // a malformed value is judged as a never-issued read (G2)
			if len(g.resp.Value) == 8 {
				val = binary.LittleEndian.Uint64(g.resp.Value)
			}
			led.NoteRead(key, val, g.resp.Status == kvs.StatusOK)
		}
		if !settled {
			led.NoteUnroutable(key)
		}
	}
}

// sweep is one read-back attempt: its answer, once one decodes.
type sweep struct {
	resp kvs.Response
	got  bool
}

func (g *sweep) reply(b []byte) {
	if r, err := kvs.DecodeResponse(b); err == nil {
		g.resp, g.got = r, true
	}
}
