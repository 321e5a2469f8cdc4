package fabric

import (
	"nocpu/internal/faultinject"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// frameMagic prefixes every fabric frame delivered to a router's NIC.
// Client kvs requests start with an opcode in 1..3, so one byte
// discriminates "peer machine traffic" from "client traffic" at the
// router's ServeNetwork edge.
const frameMagic = 0xFB

// Datacenter-network defaults: a few microseconds of switch+propagation
// latency plus a per-byte serialization cost (~10 Gb/s).
const (
	DefaultLinkLatency = 2 * sim.Microsecond
	DefaultPerByte     = 1 * sim.Nanosecond
)

// NetConfig parameterizes the modeled datacenter network.
type NetConfig struct {
	LinkLatency sim.Duration // per-frame base latency (default 2µs)
	PerByte     sim.Duration // serialization cost per frame byte (default 1ns)
	// Plane, when non-nil, injects link faults (drop/delay/dup/reorder)
	// on LayerLink; whole-machine crashes are the cluster's job.
	Plane *faultinject.Plane
}

// NetStats counts fabric traffic.
type NetStats struct {
	Frames      uint64
	Bytes       uint64
	Vanished    uint64 // frames addressed to (or arriving at) a dead machine
	Unreachable uint64 // sender notifications for dead destinations
}

// Network is the full-mesh datacenter fabric between machines. It
// carries msg.Envelope frames whose Src/Dst are machine addresses, and
// it models transport-level failure detection: a send to a machine the
// cluster has killed costs a round trip, then surfaces as an
// "unreachable" notification at the sending router (the analogue of an
// ARP/SYN timeout). Frames in flight to a machine that dies before
// delivery vanish silently, exactly like a real wire.
type Network struct {
	eng *sim.Engine
	cfg NetConfig

	// alive/deliver/unreachable/trace are wired by the Cluster; trace is
	// nil unless the cluster records a trace.
	alive       func(msg.DeviceID) bool
	deliver     func(a *arrival)
	unreachable func(src, dst msg.DeviceID)
	trace       func(format string, args ...any)

	// linkSeq tags frames per (src, dst) so receivers can suppress
	// plane-injected duplicates with a msg.DedupWindow: per-directed-link
	// counters keep tags dense, which the 64-deep window needs.
	linkSeq map[[2]msg.DeviceID]*uint32

	stats NetStats
}

func newNetwork(eng *sim.Engine, cfg NetConfig) *Network {
	if cfg.LinkLatency == 0 {
		cfg.LinkLatency = DefaultLinkLatency
	}
	if cfg.PerByte == 0 {
		cfg.PerByte = DefaultPerByte
	}
	return &Network{eng: eng, cfg: cfg, linkSeq: make(map[[2]msg.DeviceID]*uint32)}
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() NetStats { return n.stats }

// Send puts one message on the wire from machine src to machine dst.
// epoch is stamped into the envelope's incarnation field (trace and
// diagnostics only; fencing is the routers' dead-set business).
func (n *Network) Send(src, dst msg.DeviceID, epoch uint32, m msg.Message) {
	if !n.alive(dst) {
		// Transport-level failure detection: the connection attempt burns
		// a round trip, then the sender learns the peer is gone.
		n.stats.Unreachable++
		n.eng.Schedule(2*n.cfg.LinkLatency, &unreachable{net: n, src: src, dst: dst})
		return
	}
	// One map lookup per frame once a link has carried its first.
	link := [2]msg.DeviceID{src, dst}
	seq := n.linkSeq[link]
	if seq == nil {
		seq = new(uint32)
		n.linkSeq[link] = seq
	}
	*seq++
	env := msg.Envelope{Src: src, Dst: dst, Seq: *seq, Inc: epoch, Msg: m}
	// One allocation holds the whole frame: the magic byte, then the
	// envelope encoded in place behind it.
	buf := make([]byte, 1, 1+env.EncodedLen())
	buf[0] = frameMagic
	frame := env.AppendEncode(buf)

	lat := n.cfg.LinkLatency + sim.Duration(len(frame))*n.cfg.PerByte
	copies := 1
	if d := n.cfg.Plane.Filter(faultinject.LayerLink, n.eng.Now(), src, dst, m.Kind()); d.Op != faultinject.Pass {
		switch d.Op {
		case faultinject.Drop:
			return
		case faultinject.Delay, faultinject.Reorder:
			lat += d.Delay
		case faultinject.Dup:
			copies = 2
		case faultinject.Slow:
			// Fail-slow: the link (or the machine behind it) is alive but
			// degraded — everything arrives, multiplied, not dropped.
			if d.Factor > 1 {
				lat = sim.Duration(float64(lat) * d.Factor)
			}
		}
	}
	n.stats.Frames += uint64(copies)
	n.stats.Bytes += uint64(len(frame) * copies)
	// Every wire event lands in the trace: the golden determinism test
	// hashes the full message schedule, not just lifecycle milestones.
	// With tracing off the hook is nil, so the arguments are never boxed.
	if n.trace != nil {
		n.trace("net %d->%d kind=%d seq=%d len=%d", src, dst, m.Kind(), *seq, len(frame))
	}
	for c := 0; c < copies; c++ {
		// The duplicate trails the original by one serialization slot; it
		// carries the same link seq, so the receiver's window eats it.
		n.eng.Schedule(lat+sim.Duration(c)*n.cfg.PerByte, &arrival{net: n, dst: dst, frame: frame})
	}
}

// unreachable is the notice to src that dst is gone, a round trip after
// the send that found it dead.
type unreachable struct {
	net      *Network
	src, dst msg.DeviceID
}

func (u *unreachable) Fire() { u.net.unreachable(u.src, u.dst) }

// arrival is one copy of a frame from the moment it is on the wire: the
// event of its landing at dst and then, through the embedded Delivery,
// of its passage through the destination NIC — one record for the hop.
type arrival struct {
	nic   smartnic.Delivery
	net   *Network
	dst   msg.DeviceID
	frame []byte
}

// Fire lands the frame: a machine that died while it was in flight
// never sees it.
func (a *arrival) Fire() {
	if !a.net.alive(a.dst) {
		a.net.stats.Vanished++
		return
	}
	a.net.deliver(a)
}
