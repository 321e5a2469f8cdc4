package fabric

import (
	"bytes"
	"testing"

	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// bareNetwork is a Network with nothing behind it: every machine is
// alive and delivered frames land in *got.
func bareNetwork(got *[]byte) *Network {
	n := newNetwork(sim.NewEngine(), NetConfig{})
	n.alive = func(msg.DeviceID) bool { return true }
	n.deliver = func(a *arrival) { *got = a.frame }
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

// TestNetworkSendAllocs: with tracing off a send costs the frame and its
// arrival record, with headroom for two more before this fails.
func TestNetworkSendAllocs(t *testing.T) {
	var got []byte
	n := bareNetwork(&got)
	n.Send(1, 2, 0, sendReq) // first use of the link creates its map entry
	n.eng.Run()
	if a := testing.AllocsPerRun(500, func() {
		n.Send(1, 2, 0, sendReq)
		n.eng.Run()
	}); a > 4 {
		t.Errorf("Network.Send allocates %v times, want <= 4", a)
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
