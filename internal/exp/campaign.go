package exp

import (
	"fmt"

	"nocpu/internal/chaos"
	"nocpu/internal/fabric"
	"nocpu/internal/msg"
	"nocpu/internal/netsim"
	"nocpu/internal/sim"
)

// A campaign drives a system that may drop its requests through the
// netsim load client with a timeout: E15, E17's kill table, E19, E21 and
// the fabric's TestChaos* mechanism tests differ only in their Spec and
// their fault schedule (DESIGN.md, "The load client", has the table and
// the timeout-soundness argument).

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

// Acked closes every open window: a write was acknowledged, or E15's
// probe was served.
func (o *outages) Acked(sim.Time) {
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
func (o *outages) killSchedule(kills []rackKill) func(*fabric.Cluster, *netsim.Spec, sim.Time) {
	return func(cl *fabric.Cluster, s *netsim.Spec, t0 sim.Time) {
		o.eng = cl.Eng
		s.Acks = o
		for _, k := range kills {
			at, victim := t0.Add(k.after), k.victim
			cl.Eng.At(at, func() {
				cl.Kill(victim)
				o.crashed(at)
			})
		}
	}
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
// sorted and the cursor advances one step per request. A nonzero tenant
// stamps every request at the edge.
type rackIngress struct {
	cl     *fabric.Cluster
	tenant uint16
	rr     int
}

func (in *rackIngress) Send(p []byte, reply func([]byte)) {
	ids := in.cl.ServingIDs()
	if len(ids) == 0 {
		ids = in.cl.LiveIDs()
	}
	in.rr++
	nic := in.cl.Machine(ids[in.rr%len(ids)]).Sys.NIC()
	netsim.Edge{NIC: nic, App: fabric.RouterApp, Tenant: in.tenant}.Send(p, reply)
}

// rackCell is one campaign against a rack, as data.
type rackCell struct {
	cfg fabric.Config
	// client is the workload; the runner fills in its ledger and stop
	// time.
	client netsim.Spec
	window sim.Duration // the workload runs this long from t0
	// schedule arms the cell's faults relative to t0, the workload's
	// start, and may complete the Spec (its keys, its Acks). nil: an
	// undisturbed run.
	schedule func(cl *fabric.Cluster, s *netsim.Spec, t0 sim.Time)
	// settle lets failover, resyncs and gossip finish between the
	// workload and the sweep. nil: sweep at once.
	settle func(cl *fabric.Cluster, t0 sim.Time)
}

// runRackCampaign boots the cell's rack, drives the workload through
// the fault schedule, settles, sweeps, and returns the ledger's verdict.
// The workload and the sweep share one ingress cursor.
func runRackCampaign(cell rackCell) (*fabric.Cluster, netsim.Stats, chaos.Report) {
	cl := bootRack(cell.cfg)
	s := cell.client
	t0 := cl.Eng.Now()
	s.Ledger, s.Stop = chaos.NewLedger(), t0.Add(cell.window)
	if cell.schedule != nil {
		cell.schedule(cl, &s, t0)
	}
	c := netsim.Start(cl.Eng, &rackIngress{cl: cl}, s)
	c.Wait()
	if cell.settle != nil {
		cell.settle(cl, t0)
	}
	c.Readback()
	return cl, c.Stats(), s.Ledger.Report()
}
