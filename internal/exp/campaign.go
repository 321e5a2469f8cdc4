package exp

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/chaos"
	"nocpu/internal/fabric"
	"nocpu/internal/kvs"
	"nocpu/internal/linearize"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// The campaign client: how a workload drives a system that may drop its
// requests. netsim's closed loop cannot — an op lost in a crash would
// stall its worker forever — so every op here carries its own
// virtual-time timeout and the worker moves on. E15, E17's kill table,
// E19, E21 and the fabric's TestChaos* mechanism tests all use this one
// client; what differs between them is its fields (DESIGN.md, "The
// campaign client", has the table and the timeout-soundness argument).
//
// Event order is part of the contract the goldens pin: the engine
// orders by (time, schedule sequence), so a worker hands its request to
// the target BEFORE arming the timeout, each target keeps one ingress
// cursor shared by workers and sweep, drain steps 1ms, and the sweep
// steps 100µs while waiting and 500µs between attempts.

// clientCounts is what a campaign client tallies; experiment rows embed
// a copy.
type clientCounts struct {
	puts, gets uint64
	tmouts     uint64 // ops resolved by the client-side timeout
	errs       uint64 // ops resolved by a refusal (followed by a backoff)
	fenced     uint64 // typed refusals: shed, denied, fenced — contractually not executed
	maybes     uint64 // ambiguous failures: error, unavailable, garbled
}

// campaignClient runs `workers` closed loops, one op in flight each,
// until stopAt. Every put carries a value unique and increasing across
// the run and is fed to the ledger; an ack counts even when it lands
// after the timeout, because the client was told the write succeeded.
type campaignClient struct {
	eng  *sim.Engine
	send netsim.Target
	led  *chaos.Ledger
	// hist, when set, makes the workers alternate puts and gets and
	// records every invocation and first response for the
	// linearizability check (E21).
	hist *linearize.History

	workers int
	// timeout must exceed the worst in-system lifetime of a write, so a
	// worker reuses a key only once the previous write to it is
	// resolved or provably dead: that is what makes the ledger's
	// per-key value order equal the apply order.
	timeout sim.Duration
	backoff sim.Duration // pause before the next op after a refusal
	stopAt  sim.Time
	key     func(worker, i int) string // key of a worker's i-th op
	onAck   func(issued sim.Time)      // called on every acknowledged put; may be nil

	clientCounts
	nextVal uint64
	running int
}

// classify maps a response onto the linearize outcome vocabulary.
// Typed refusals contractually did not execute; anything ambiguous may
// have.
func (c *campaignClient) classify(resp kvs.Response, err error, isGet bool) (linearize.Outcome, uint64) {
	if err != nil {
		c.maybes++
		return linearize.Maybe, 0
	}
	switch resp.Status {
	case kvs.StatusOK:
		if !isGet {
			return linearize.OK, 0
		}
		if len(resp.Value) != 8 {
			c.maybes++
			return linearize.Maybe, 0
		}
		return linearize.OK, binary.LittleEndian.Uint64(resp.Value)
	case kvs.StatusNotFound:
		return linearize.NotFound, 0
	case kvs.StatusShed, kvs.StatusDenied, kvs.StatusFenced:
		c.fenced++
		return linearize.Fail, 0
	default: // StatusError, StatusUnavailable
		c.maybes++
		return linearize.Maybe, 0
	}
}

func (c *campaignClient) worker(w int) {
	eng := c.eng
	i := 0
	put := w%2 == 0 // with a history: even workers open with a put, odd with a get
	var issue func()
	issue = func() {
		if eng.Now() >= c.stopAt {
			c.running--
			return
		}
		key := c.key(w, i)
		i++
		isGet := c.hist != nil && !put
		put = !put

		var val uint64
		var req []byte
		kind := linearize.Get
		if isGet {
			c.gets++
			req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
		} else {
			c.nextVal++
			val = c.nextVal
			c.puts++
			c.led.NoteAttempt(key, val)
			kind = linearize.Put
			req = kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: binary.LittleEndian.AppendUint64(nil, val)})
		}
		issued := eng.Now()
		hid := 0
		if c.hist != nil {
			hid = c.hist.Invoke(kind, key, val, issued)
		}

		resolved, returned := false, false
		var tm *sim.Timer
		c.send(req, func(b []byte) {
			resp, err := kvs.DecodeResponse(b)
			// The FIRST response counts even if it arrives after the
			// timeout fired: the client observed it, so the ledger and
			// the history must account for it. A timed-out op with no
			// response stays Pending in the history — an ambiguous write.
			if !returned {
				returned = true
				out, ret := c.classify(resp, err, isGet)
				if c.hist != nil {
					c.hist.Return(hid, out, ret, eng.Now())
				}
				if !isGet && out == linearize.OK {
					c.led.NoteAck(key, val)
					if c.onAck != nil {
						c.onAck(issued)
					}
				}
			}
			if resolved {
				return
			}
			resolved = true
			if tm != nil {
				tm.Stop()
			}
			if err == nil && (resp.Status == kvs.StatusOK || resp.Status == kvs.StatusNotFound) {
				issue()
				return
			}
			// A system mid-recovery refuses instantly; hammering it only
			// inflates the attempt count.
			c.errs++
			eng.Schedule(c.backoff, issue)
		})
		tm = eng.After(c.timeout, func() {
			if resolved {
				return
			}
			resolved = true
			c.tmouts++
			issue()
		})
	}
	issue()
}

// start launches the workers; wait runs the engine until every one of
// them has passed stopAt (each op acked, refused or timed out).
func (c *campaignClient) start() {
	c.running = c.workers
	for w := 0; w < c.workers; w++ {
		c.worker(w)
	}
}

func (c *campaignClient) wait() {
	drain(c.eng, func() bool { return c.running == 0 })
}

// readback sweeps every key the workload touched and feeds the answers
// to the ledger's G1/G2 checks, retrying transient unavailability. A
// key with no definitive answer (OK or NotFound) after the retry budget
// is unroutable — an R3 violation.
func (c *campaignClient) readback() {
	eng := c.eng
	for _, key := range c.led.Keys() {
		settled := false
		for attempt := 0; attempt < 40 && !settled; attempt++ {
			var resp kvs.Response
			got := false
			c.send(kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key}), func(b []byte) {
				if r, err := kvs.DecodeResponse(b); err == nil {
					resp, got = r, true
				}
			})
			lim := eng.Now().Add(20 * sim.Millisecond)
			for !got && eng.Now() < lim {
				eng.RunFor(100 * sim.Microsecond)
			}
			switch {
			case got && resp.Status == kvs.StatusOK:
				val := ^uint64(0) // a malformed value is judged as a never-issued read (G2)
				if len(resp.Value) == 8 {
					val = binary.LittleEndian.Uint64(resp.Value)
				}
				c.led.NoteRead(key, val, true)
				settled = true
			case got && resp.Status == kvs.StatusNotFound:
				c.led.NoteRead(key, 0, false)
				settled = true
			default:
				eng.RunFor(500 * sim.Microsecond) // mid-recovery; ask again
			}
		}
		if !settled {
			c.led.NoteUnroutable(key)
		}
	}
}

// outages times recovery (G3): a crash opens a window, and the next
// acknowledged operation closes every window still open.
type outages struct {
	eng       *sim.Engine
	open      []sim.Time
	recovered []sim.Duration
}

func (o *outages) crashed(at sim.Time) {
	//lint:allow boundedqueue one entry per scripted crash, drained on every ack
	o.open = append(o.open, at)
}

func (o *outages) restored() {
	for _, at := range o.open {
		o.recovered = append(o.recovered, o.eng.Now().Sub(at))
	}
	o.open = o.open[:0]
}

// rackKill is one scripted whole-machine crash, timed from workload start.
type rackKill struct {
	after  sim.Duration
	victim msg.DeviceID
}

// killSchedule is a rackCell schedule: each kill opens a recovery window
// in o, and every ack closes the open ones.
func (o *outages) killSchedule(kills []rackKill) func(*fabric.Cluster, *campaignClient, sim.Time) {
	return func(cl *fabric.Cluster, c *campaignClient, t0 sim.Time) {
		o.eng = cl.Eng
		c.onAck = func(sim.Time) { o.restored() }
		for _, k := range kills {
			at, victim := t0.Add(k.after), k.victim
			cl.Eng.ScheduleAt(at, func() {
				cl.Kill(victim)
				o.crashed(at)
			})
		}
	}
}

// drain advances virtual time until done reports true, and panics after
// a very long virtual interval — an experiment bug, such as an op that
// neither answered nor timed out.
func drain(eng *sim.Engine, done func() bool) {
	deadline := eng.Now().Add(30 * sim.Second)
	for !done() && eng.Now() < deadline {
		eng.RunFor(sim.Millisecond)
	}
	if !done() {
		panic("exp: scenario did not complete within 30s of virtual time")
	}
}

// runLoop runs a netsim load generator to completion.
func runLoop(eng *sim.Engine, loop interface{ Run(done func()) }) {
	done := false
	loop.Run(func() { done = true })
	drain(eng, func() bool { return done })
}

// bootRack assembles and boots one rack.
func bootRack(cfg fabric.Config) *fabric.Cluster {
	cl := fabric.MustNew(cfg)
	if err := cl.Boot(); err != nil {
		panic(fmt.Sprintf("exp: rack boot: %v", err))
	}
	return cl
}

// rackIngress is the rack's client-side load balancer: round-robin over
// the machines currently serving (alive, in ring, not cordoned — any of
// them routes any key), falling back to any live machine in the instant
// between a kill and the repair commit. Deterministic: the ID lists are
// sorted and the cursor advances one step per request.
func rackIngress(cl *fabric.Cluster) func() msg.DeviceID {
	rr := 0
	return func() msg.DeviceID {
		ids := cl.ServingIDs()
		if len(ids) == 0 {
			ids = cl.LiveIDs()
		}
		rr++
		return ids[rr%len(ids)]
	}
}

func rackTarget(cl *fabric.Cluster) netsim.Target {
	pick := rackIngress(cl)
	return func(p []byte, reply func([]byte)) { cl.Ingress(pick())(p, reply) }
}

// rackCell is one campaign against a rack, as data.
type rackCell struct {
	cfg fabric.Config
	// client carries the workload parameters (workers, timeout, backoff,
	// key, hist); the runner fills in the engine, target, ledger and
	// stop time.
	client campaignClient
	window sim.Duration // the workload runs this long from t0
	// schedule arms the cell's faults relative to t0, the workload's
	// start, and may hook c.onAck. nil: an undisturbed run.
	schedule func(cl *fabric.Cluster, c *campaignClient, t0 sim.Time)
	// settle lets failover, resyncs and gossip finish between the
	// workload and the sweep. nil: sweep at once.
	settle func(cl *fabric.Cluster, t0 sim.Time)
}

// runRackCampaign boots the cell's rack, drives the workload through
// the fault schedule, settles, sweeps, and returns the ledger's verdict.
func runRackCampaign(cell rackCell) (*fabric.Cluster, *campaignClient, chaos.Report) {
	cl := bootRack(cell.cfg)
	c := cell.client
	c.eng, c.send, c.led = cl.Eng, rackTarget(cl), chaos.NewLedger()
	t0 := cl.Eng.Now()
	c.stopAt = t0.Add(cell.window)
	if cell.schedule != nil {
		cell.schedule(cl, &c, t0)
	}
	c.start()
	c.wait()
	if cell.settle != nil {
		cell.settle(cl, t0)
	}
	c.readback()
	return cl, &c, c.led.Report()
}
