package fabric

import (
	"bytes"
	"testing"

	"nocpu/internal/faultinject"
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

// TestNetworkSendAllocs: with tracing off a send costs its arrival record
// and a share of a chunk (1 measured; 2 when each frame was its own
// allocation).
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
	if a > 1 {
		t.Errorf("Network.Send allocates %v times, want <= 1", a)
	}
}

// TestFramesKeepTheirBytes: frames cut from shared chunks stay what was
// sent. Every delivered frame is kept past its delivery, as a value
// cache holding a window on it would; once the wire has drained, each
// still decodes to the message sent under its link seq, and none has
// room to grow into its neighbour. The frames span several chunks, one
// is larger than a chunk, and the fault plane duplicates some.
func TestFramesKeepTheirBytes(t *testing.T) {
	plane := faultinject.New(5).Add(faultinject.Rule{Layer: faultinject.LayerLink, Op: faultinject.Dup, Prob: 0.25})
	n := newNetwork(sim.NewEngine(), NetConfig{Plane: plane})
	n.alive = func(msg.DeviceID) bool { return true }
	var kept [][]byte
	n.deliver = func(a *arrival) { kept = append(kept, a.frame) }
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

	if dups := plane.Stats().Duped; dups == 0 || len(kept) != len(sent)+int(dups) {
		t.Fatalf("%d frames delivered for %d sent and %d duplicated", len(kept), len(sent), dups)
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
