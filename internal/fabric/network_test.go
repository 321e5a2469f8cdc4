package fabric

import (
	"bytes"
	"testing"

	"nocpu/internal/faultinject"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
)

// bareNetwork is a Network with nothing behind it: every machine is
// alive and delivered frames land in *got.
func bareNetwork(got *[]byte) *Network {
	n := newNetwork(sim.NewEngine(), NetConfig{})
	n.alive = func(msg.DeviceID) bool { return true }
	n.deliver = func(_ msg.DeviceID, frame []byte) { *got = frame }
	n.unreachable = func(_, _ msg.DeviceID) {}
	return n
}

var sendReq = &msg.FabricReq{Origin: 1, ReqID: 9, Payload: make([]byte, 64)}

// TestNetworkSendFrame: the frame is the magic byte followed by exactly
// the envelope's encoding, tagged with the per-link sequence.
func TestNetworkSendFrame(t *testing.T) {
	var got []byte
	n := bareNetwork(&got)
	n.Send(1, 2, 7, sendReq)
	n.Send(1, 2, 7, sendReq)
	n.eng.Run()
	want := msg.Envelope{Src: 1, Dst: 2, Seq: 2, Inc: 7, Msg: sendReq}.Encode()
	if len(got) == 0 || got[0] != frameMagic || !bytes.Equal(got[1:], want) {
		t.Fatalf("frame = %x, want %x + %x", got, frameMagic, want)
	}
	if st := n.Stats(); st.Frames != 2 || st.Bytes != uint64(2*(1+len(want))) {
		t.Fatalf("stats = %+v for two %d-byte frames", st, 1+len(want))
	}
}

// TestNetworkSendAllocs: with tracing off a send costs its share of a
// chunk; its arrival record comes back off the network's free list (0
// measured; 1 while every arrival was allocated, 2 when each frame was
// its own allocation too).
func TestNetworkSendAllocs(t *testing.T) {
	var got []byte
	n := bareNetwork(&got)
	n.Send(1, 2, 0, sendReq) // first use of the link creates its map entry
	n.eng.Run()
	a := testing.AllocsPerRun(500, func() {
		n.Send(1, 2, 0, sendReq)
		n.eng.Run()
	})
	t.Logf("Network.Send: %v allocations", a)
	if a > 0 {
		t.Errorf("Network.Send allocates %v times, want 0", a)
	}
}

// frameKeeper is a NIC app that keeps every frame it is handed past its
// delivery, as a value cache holding a window on one would.
type frameKeeper struct{ kept [][]byte }

const keeperApp = RouterApp + 1

func (k *frameKeeper) AppID() msg.AppID                      { return keeperApp }
func (k *frameKeeper) Boot(*smartnic.Runtime)                {}
func (k *frameKeeper) ServeNetwork(p []byte, _ func([]byte)) { k.kept = append(k.kept, p) }
func (k *frameKeeper) PeerFailed(msg.DeviceID)               {}

// TestFramesKeepTheirBytes: frames cut from shared chunks stay what was
// sent. Every frame lands through a machine's NIC, whose rx backs up
// with more of them than its free list of records holds, and is kept
// past its delivery; once the wire has drained, each still decodes to
// the message sent under its link seq, and none has room to grow into
// its neighbour. The frames span several chunks, one is larger than a
// chunk, and the fault plane duplicates some, so arrival records are
// recycled while copies of one frame are still in flight.
func TestFramesKeepTheirBytes(t *testing.T) {
	cl := mustBoot(t, Config{N: 2, Seed: 5, MachineMemory: 4 << 20})
	nic, app := cl.Machine(2).Sys.NIC(), &frameKeeper{}
	nic.AddApp(app)
	plane := faultinject.New(5).Add(faultinject.Rule{Layer: faultinject.LayerLink, Op: faultinject.Dup, Prob: 0.25})
	n := newNetwork(cl.Eng, NetConfig{Plane: plane})
	n.alive = func(msg.DeviceID) bool { return true }
	backlog := 0
	n.deliver = func(_ msg.DeviceID, frame []byte) {
		nic.DeliverOneWay(keeperApp, frame)
		backlog = max(backlog, nic.RxGauge().Cur())
	}
	n.unreachable = func(_, _ msg.DeviceID) {}

	var sent []*msg.FabricReq
	total := 0
	for i := 0; total < 4*frameChunk; i++ {
		size := i * 37 % 300
		if i == 20 {
			size = frameChunk + 100
		}
		m := &msg.FabricReq{Origin: 1, ReqID: uint64(i), Payload: bytes.Repeat([]byte{byte(i + 1)}, size)}
		sent = append(sent, m)
		n.Send(1, 2, 3, m)
		total += size
	}
	n.eng.Run()

	kept := app.kept
	if dups := plane.Stats().Duped; dups == 0 || len(kept) != len(sent)+int(dups) {
		t.Fatalf("%d frames delivered for %d sent and %d duplicated", len(kept), len(sent), dups)
	}
	if backlog <= sim.FreeBound {
		t.Fatalf("rx held at most %d frames at once, want more than the %d records a free list keeps", backlog, sim.FreeBound)
	}
	for _, f := range kept {
		if cap(f) != len(f) {
			t.Fatalf("a %d-byte frame has capacity %d", len(f), cap(f))
		}
		env, err := msg.Decode(f[1:])
		if err != nil || f[0] != frameMagic {
			t.Fatalf("kept frame %x no longer decodes: %v", f[:8], err)
		}
		m, ok := env.Msg.(*msg.FabricReq)
		if want := sent[env.Seq-1]; !ok || m.ReqID != want.ReqID || !bytes.Equal(m.Payload, want.Payload) {
			t.Fatalf("frame with link seq %d decodes to %+v, want request %d", env.Seq, env.Msg, want.ReqID)
		}
	}
}

// BenchmarkPeerFrame times one lease round between two booted machines:
// a LeaseRenew from Send through the wire, the far NIC's rx and its
// router's decode to the grant, and the LeaseGrant back the same way
// (the round is not the sender's current one, so its router drops it
// there). It is the path every peer frame takes, and a frame should cost
// only its share of a chunk.
func BenchmarkPeerFrame(b *testing.B) {
	cl := MustNew(Config{N: 2, Seed: 11, MachineMemory: 4 << 20})
	if err := cl.Boot(); err != nil {
		b.Fatal(err)
	}
	renew := &msg.LeaseRenew{Seq: 1 << 40, Until: 1 << 50}
	grants := cl.Machine(2).Router.Stats().LeaseGrants
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Network().Send(1, 2, 0, renew)
		cl.Eng.Run()
	}
	b.StopTimer()
	if got := cl.Machine(2).Router.Stats().LeaseGrants - grants; got != uint64(b.N) {
		b.Fatalf("%d grants for %d renewals", got, b.N)
	}
}

// BenchmarkNetworkSend times one frame. "wire" is the transport alone;
// "rack" sends between two booted machines, through NIC rx and the far
// router's decode (the ack names no task, so the router drops it there).
func BenchmarkNetworkSend(b *testing.B) {
	b.Run("wire", func(b *testing.B) {
		var got []byte
		n := bareNetwork(&got)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.Send(1, 2, 0, sendReq)
			n.eng.Run()
		}
	})
	b.Run("rack", func(b *testing.B) {
		cl := MustNew(Config{N: 2, Seed: 11, MachineMemory: 4 << 20})
		if err := cl.Boot(); err != nil {
			b.Fatal(err)
		}
		ack := &msg.ReplicateAck{Seq: 1 << 40, OK: true}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cl.Network().Send(1, 2, 0, ack)
			cl.Eng.Run()
		}
	})
}
