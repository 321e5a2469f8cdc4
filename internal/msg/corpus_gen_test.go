package msg

// Regenerates the FuzzDecode seed corpus under testdata/fuzz/FuzzDecode.
// The corpus stores raw wire bytes, so any envelope-header change (such
// as the incarnation stamp) invalidates the per-kind seeds; run
//
//	NOCPU_REGEN_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/msg
//
// after a wire-format change and commit the result. The format-agnostic
// adversarial seeds (empty input, short header, unknown kind) are
// regenerated too so the whole directory stays reproducible from this
// one function.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func corpusEntry(b []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
}

func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("NOCPU_REGEN_CORPUS") == "" {
		t.Skip("set NOCPU_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzDecode")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(corpusEntry(b)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// One valid encoding per message kind, from the round-trip fixtures.
	for i, m := range allMessages() {
		env := Envelope{Src: 1, Dst: 2, Seq: 9, Inc: 1, Msg: m}
		write(fmt.Sprintf("seed-%02d-%s", i, m.Kind()), env.Encode())
	}

	// Adversarial seeds: structurally interesting inputs the mutator
	// should start from. The hand-built ones carry a header whose payload
	// length matches what they hold, so the body's own reader is what
	// must refuse them.
	write("seed-nack-of-nack", Envelope{Src: 1, Dst: 2, Seq: 3,
		Msg: &Nack{Of: KindNack, Seq: 2, Dst: 3, Code: NackDeadDst, Reason: "nacked nack"}}.Encode())

	// A Nack whose reason-string length claims more bytes than exist.
	write("seed-nack-truncated", frame(Envelope{Src: 1, Dst: 2}, KindNack, le{}.
		u16(uint16(KindOpenReq)).
		u32(7).
		u16(4).
		u8(uint8(NackDeadDst)).
		u16(200). // reason claims 200 bytes...
		raw([]byte("shrt")...)))

	write("seed-heartbeat-maxseq", Envelope{Src: 1, Dst: BusID, Seq: 0xFFFFFFFF, Inc: 0xFFFFFFFF,
		Msg: &Heartbeat{Seq: ^uint64(0)}}.Encode())

	{
		long := make([]byte, 300)
		for i := range long {
			long[i] = 'r'
		}
		write("seed-reset-longreason", Envelope{Src: BusID, Dst: 4, Seq: 1,
			Msg: &Reset{Reason: string(long)}}.Encode())
	}

	write("seed-resetdone-trailing", append(Envelope{Src: 4, Dst: BusID, Seq: 1, Inc: 2,
		Msg: &ResetDone{}}.Encode(), 0xAA))

	// New-form adversarial seeds (incarnation field, state reconciliation).
	// A Hello whose trailing incarnation field is truncated mid-u32: the
	// payload length admits 2 extra bytes, the optional-field reader wants 4.
	write("seed-hello-inc-truncated", frame(Envelope{Src: 1, Dst: BusID, Seq: 1, Inc: 1}, KindHello, le{}.
		u8(uint8(RoleNIC)).
		str("nic0").
		u16(0).
		raw(0x02, 0x00))) // half an incarnation

	// A StateResp claiming 0xFFF0 regions in a 6-byte payload: the
	// region-count bomb guard must refuse without allocating.
	write("seed-stateresp-bomb", frame(Envelope{Src: BusID, Dst: 3}, KindStateResp, le{}.
		u32(1).
		u16(0xFFF0)))

	// Flow-control adversarial seeds (credit-update and shed-NACK kinds).
	// An overload shed propagated as a typed NACK.
	write("seed-nack-overload", Envelope{Src: BusID, Dst: 4, Seq: 5,
		Msg: &Nack{Of: KindOpenReq, Seq: 12, Dst: 6, Code: NackOverload, Reason: "ingress bound"}}.Encode())

	// A CreditUpdate truncated mid-field: payload length admits 6 bytes,
	// the two-u32 body wants 8.
	write("seed-credit-truncated", frame(Envelope{Src: BusID, Dst: 4}, KindCreditUpdate, le{}.
		u32(32).
		raw(0x10, 0x00))) // half a credit count

	// A CreditUpdate whose credit count overflows any sane window: the
	// port must saturate at the window, not wrap its balance.
	write("seed-credit-overflow", Envelope{Src: BusID, Dst: 4, Seq: 6,
		Msg: &CreditUpdate{Window: 0xFFFFFFFF, Credits: 0xFFFFFFFF}}.Encode())

	// Fabric adversarial seeds (routed/replicated KVS wire kinds).
	// A routed request whose payload is a well-formed kvs put for a key
	// the addressed machine does not own: decode must succeed (ownership
	// is the router's judgment, not the codec's) and the responder answers
	// FabricWrongOwner. Seeding it gives the mutator the full two-layer
	// framing to chew on.
	write("seed-fabric-wrongshard", Envelope{Src: 3, Dst: 7, Seq: 21, Inc: 1,
		Msg: &FabricReq{Origin: 3, ReqID: 404, Payload: []byte{
			2,    // kvs OpPut
			9, 0, // keyLen 9
			'k', 'e', 'y', '-', '0', '0', '0', '4', '2',
			2, 0, 0, 0, // valLen 2
			0xAB, 0xCD,
		}}}.Encode())

	// A Replicate whose key-string length claims more bytes than the
	// payload holds.
	write("seed-replicate-truncated", frame(Envelope{Src: 1, Dst: 2}, KindReplicate, le{}.
		u32(1).   // epoch
		u64(9).   // seq
		u8(0).    // del
		u8(0).    // sync
		u16(200). // key claims 200 bytes...
		raw([]byte("key")...)))

	// A ReplicateAck truncated mid-epoch: seq and OK flag present, the
	// trailing u32 cut to 2 bytes.
	write("seed-replicateack-truncated", frame(Envelope{Src: 2, Dst: 1}, KindReplicateAck, le{}.
		u64(77).
		u8(1).
		raw(0x02, 0x00))) // half an epoch

	// A RingUpdate claiming 0xFFF0 dead machines in a 6-byte payload:
	// the dead-list bomb guard must refuse without allocating.
	write("seed-ringupdate-bomb", frame(Envelope{Src: 1, Dst: Broadcast}, KindRingUpdate, le{}.
		u32(4).       // epoch
		u16(0xFFF0))) // dead-count bomb

	// A FabricResp whose inner payload-length field claims more bytes
	// than remain after the dead list.
	write("seed-fabricresp-truncated", frame(Envelope{Src: 7, Dst: 3}, KindFabricResp, le{}.
		u64(404).
		u8(FabricServed).
		u16(1).
		u16(5).
		u32(64). // payload claims 64 bytes...
		raw(0x00, 0x01)))

	// Fleet-reconciliation adversarial seeds (spec gossip, condition
	// report, drain, staged ring config).
	// A SpecGossip truncated mid-ConfigVersion: SpecVer and Size present,
	// the u32 cut to 2 bytes.
	write("seed-specgossip-truncated", frame(Envelope{Src: 1, Dst: Broadcast}, KindSpecGossip, le{}.
		u64(4).           // SpecVer
		u16(8).           // Size
		raw(0x02, 0x00))) // half a config version

	// A CondReport cut after the three condition flags: the four trailing
	// u32 fields are entirely missing.
	write("seed-condreport-truncated", frame(Envelope{Src: 3, Dst: 1}, KindCondReport, le{}.
		u64(11). // Seq
		u8(1).
		u8(0).
		u8(1)))

	// A Drain order with an unknown mode: must decode cleanly (mode
	// policy is the receiver's judgment, not the codec's) and be ignored
	// by the router.
	write("seed-drain-unknownmode", Envelope{Src: 1, Dst: 5, Seq: 2, Inc: 1,
		Msg: &Drain{Mode: 0xEE, ConfigVersion: 9}}.Encode())

	// A RingConfig claiming 0xFFF0 members in a 7-byte payload: the
	// member-list bomb guard must refuse without allocating.
	write("seed-ringconfig-bomb", frame(Envelope{Src: 1, Dst: Broadcast}, KindRingConfig, le{}.
		u32(3).          // Ver
		u8(RingPrepare). // Phase
		u16(0xFFF0)))    // member-count bomb

	// A RingConfig commit for an empty membership: decode must succeed
	// (an empty ring is the coordinator's error, surfaced at the router,
	// never the codec's).
	write("seed-ringconfig-empty", Envelope{Src: 1, Dst: Broadcast, Seq: 3,
		Msg: &RingConfig{Ver: 9, Phase: RingCommit}}.Encode())

	// A Drain order truncated mid-ConfigVersion: Mode present, the u32
	// cut to 2 bytes.
	write("seed-drain-truncated", frame(Envelope{Src: 1, Dst: 5}, KindDrain, le{}.
		u8(DrainCordon).
		raw(0x09, 0x00))) // half a config version

	// A FabricReq whose inner payload-length field claims far more bytes
	// than the frame carries: the bytes reader must refuse, not allocate.
	write("seed-fabricreq-overflow", frame(Envelope{Src: 3, Dst: 7}, KindFabricReq, le{}.
		u16(3).          // Origin
		u64(31).         // ReqID
		u8(0).           // Hops
		u32(0xFFFFFFF0). // payload claims ~4GiB...
		raw(0xAB)))

	// A RingConfig prepare whose member list is cut mid-element: the
	// count promises two u16 members, only one and a half arrive.
	write("seed-ringconfig-truncated", frame(Envelope{Src: 1, Dst: Broadcast}, KindRingConfig, le{}.
		u32(4).          // Ver
		u8(RingPrepare). // Phase
		u16(2).          // two members promised...
		u16(5).          // one delivered
		raw(0x06)))      // half of the second

	// A SpecGossip at the numeric extremes: max spec version, max fleet
	// size, max config version. Decodes cleanly; overflow handling is the
	// reconciler's problem and the mutator should probe around it.
	write("seed-specgossip-extremes", Envelope{Src: 2, Dst: Broadcast, Seq: 4, Inc: 1,
		Msg: &SpecGossip{SpecVer: ^uint64(0), Size: 0xFFFF, ConfigVersion: 0xFFFFFFFF}}.Encode())

	// Multi-tenancy adversarial seeds (tenant grant, denial report).
	// A TenantGrant truncated mid-RxBound: the fixed body promises six
	// fields, the last u32 is cut to 2 bytes.
	write("seed-tenantgrant-truncated", frame(Envelope{Src: 1, Dst: BusID}, KindTenantGrant, le{}.
		u16(2).           // Tenant
		u16(7).           // Device
		u32(0x100).       // App
		u32(16).          // CreditWindow
		u32(8).           // KVSInflight
		raw(0x04, 0x00))) // half an rx bound

	// A DenialReport whose detail-string length claims more bytes than
	// the payload holds.
	write("seed-denialreport-overflow", frame(Envelope{Src: BusID, Dst: 4}, KindDenialReport, le{}.
		u16(2).                    // Tenant
		u16(1).                    // Victim
		u8(3).                     // Class
		u16(uint16(KindGrantReq)). // Of
		u16(300).                  // detail claims 300 bytes...
		raw([]byte("denied")...)))

	// Epoch-lease adversarial seeds (renew, grant, revoke).
	// A LeaseRenew truncated mid-Until: Seq present, the second u64 cut
	// to 4 bytes.
	write("seed-leaserenew-truncated", frame(Envelope{Src: 5, Dst: 1}, KindLeaseRenew, le{}.
		u64(12).                      // Seq
		raw(0x40, 0x4B, 0x4C, 0x00))) // half an expiry

	// A LeaseGrant at the numeric extremes: max round, max expiry. The
	// codec accepts it; clamping an absurd lease is the router's
	// judgment, and the mutator should probe around the boundary.
	write("seed-leasegrant-extremes", Envelope{Src: 2, Dst: 5, Seq: 7, Inc: 1,
		Msg: &LeaseGrant{Seq: ^uint64(0), Until: ^uint64(0)}}.Encode())

	// A LeaseRevoke claiming 0xFFF0 dead machines in a 10-byte payload:
	// the dead-list bomb guard must refuse without allocating.
	write("seed-leaserevoke-bomb", frame(Envelope{Src: 5, Dst: 1}, KindLeaseRevoke, le{}.
		u64(12).      // Seq
		u16(0xFFF0))) // dead-count bomb

	// Format-agnostic adversarial seeds.
	write("seed-empty", []byte{})
	write("seed-shorthdr", []byte{1, 0, 2, 0})
	{
		env := Envelope{Src: 1, Dst: 2, Seq: 1, Msg: &Heartbeat{Seq: 1}}.Encode()
		env[4], env[5] = 0xEE, 0xEE
		write("seed-badkind", env)
	}
	// AllocResp frame-count bomb: claimed 0xFFFFFFF0 frames, no data.
	write("seed-bomb", frame(Envelope{Src: 1, Dst: 2}, KindAllocResp, le{}.
		u32(1).
		u8(1).
		u16(0).
		u64(0).
		u32(0xFFFFFFF0)))
}
