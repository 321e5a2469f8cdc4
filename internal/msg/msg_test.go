package msg

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// allMessages returns one populated instance of every message type; the
// round-trip test below fails if a new kind is added without extending
// this list (see TestEveryKindCovered).
func allMessages() []Message {
	return []Message{
		&Hello{Role: RoleStorage, Name: "ssd0", Services: []string{"file:kv.dat", "loader"}, Incarnation: 3},
		&HelloAck{},
		&Heartbeat{Seq: 42},
		&Reset{Reason: "watchdog"},
		&ResetDone{},
		&DiscoverReq{Query: "file:kv.dat", Nonce: 7},
		&DiscoverResp{Query: "file:kv.dat", Nonce: 7, Service: "fs0/kv.dat"},
		&OpenReq{Service: "fs0/kv.dat", App: 3, Token: 0xdeadbeef},
		&OpenResp{Service: "fs0/kv.dat", App: 3, OK: true, ConnID: 9, SharedBytes: 1 << 20},
		&ConnectReq{Service: "fs0/kv.dat", ConnID: 9, App: 3, RingVA: 0x10000, RingEntries: 128,
			DataVA: 0x20000, DataBytes: 1 << 20, ReqDoorbell: 0x100, RespDoorbell: 0x101},
		&ConnectResp{ConnID: 9, OK: false, Reason: "bad ring"},
		&CloseReq{Service: "fs0/kv.dat", ConnID: 9, App: 3},
		&CloseResp{ConnID: 9, OK: true},
		&AllocReq{App: 3, VA: 0x10000, Bytes: 1 << 20, Perm: 3, Huge: true},
		&AllocResp{App: 3, OK: true, VA: 0x10000, Frames: []uint64{5, 6, 7}, Perm: 3, Huge: true},
		&FreeReq{App: 3, VA: 0x10000, Bytes: 1 << 20},
		&FreeResp{App: 3, OK: true, VA: 0x10000, Bytes: 1 << 20},
		&GrantReq{App: 3, VA: 0x10000, Bytes: 4096, Target: 2, Perm: 1},
		&GrantResp{App: 3, OK: false, Reason: "unauthorized", VA: 0x10000, Target: 2},
		&AuthReq{App: 3, VA: 0x10000, Bytes: 4096, Target: 2, Perm: 1, Nonce: 88},
		&AuthResp{App: 3, OK: true, VA: 0x10000, Frames: []uint64{12}, Perm: 1, Nonce: 88, Huge: true},
		&RevokeReq{App: 3, VA: 0x10000, Bytes: 4096, Target: 2},
		&RevokeResp{App: 3, OK: true},
		&LoadReq{Image: "kvs.bin", Token: 1, Data: []byte{1, 2, 3}},
		&LoadResp{Image: "kvs.bin", OK: true},
		&FileIOReq{App: 3, Handle: 2, Seq: 9, Op: 1, Off: 4096, Len: 100, Data: []byte{5}},
		&FileIOResp{App: 3, Handle: 2, Seq: 9, Status: 0, Size: 123, Data: []byte{6, 7}},
		&ErrorNotify{App: 3, Resource: "fs0/kv.dat", Code: 5, Detail: "flash die failed"},
		&DeviceFailed{Device: 4},
		&Nack{Of: KindOpenReq, Seq: 77, Dst: 4, Code: NackDeadDst, Reason: "dev4 is failed"},
		&StateQuery{Nonce: 19},
		&StateResp{Nonce: 19, Regions: []OwnedRegion{
			{App: 3, VA: 0x10000, Pages: 4, Grantees: []DeviceID{2, 5}},
			{App: 3, VA: 0x40000, Pages: 512, Huge: true},
		}},
		&CreditUpdate{Window: 32, Credits: 16},
		&FabricReq{Origin: 3, ReqID: 901, Hops: 1, Payload: []byte{2, 1, 0, 'k'}},
		&FabricResp{ReqID: 901, Code: FabricServed, Dead: []DeviceID{5}, Payload: []byte{0, 0, 0, 0, 0}},
		&Replicate{Epoch: 2, Seq: 77, Del: false, Sync: true, Key: "key-00001", Value: []byte{9, 9}},
		&ReplicateAck{Seq: 77, OK: true, Epoch: 2, Dead: []DeviceID{5, 6}},
		&RingUpdate{Epoch: 3, Dead: []DeviceID{2, 5, 6}},
		&SpecGossip{SpecVer: 4, Size: 8, ConfigVersion: 2, MaxUnavailable: 1},
		&CondReport{Seq: 11, Ready: true, Cordoned: false, Upgrading: true,
			ConfigVersion: 2, RingVer: 3, PendingVer: 4, TransferVer: 4, Keys: 140},
		&Drain{Mode: DrainUpgrade, ConfigVersion: 2},
		&RingConfig{Ver: 3, Phase: RingPrepare, Members: []DeviceID{1, 2, 3, 9}},
		&TenantGrant{Tenant: 2, Device: 7, App: 0x100, CreditWindow: 16, KVSInflight: 8, RxBound: 4},
		&DenialReport{Tenant: 2, Victim: 1, Class: 3, Of: uint16(KindGrantReq), Detail: "cross-tenant grant refused"},
		&LeaseRenew{Seq: 12, Until: 5_000_000},
		&LeaseGrant{Seq: 12, Until: 5_000_000},
		&LeaseRevoke{Seq: 12, Dead: []DeviceID{3, 7}},
	}
}

func TestRoundTripEveryType(t *testing.T) {
	for _, m := range allMessages() {
		env := Envelope{Src: 1, Dst: 2, Seq: 31, Msg: m}
		b := env.Encode()
		got, err := Decode(b)
		if err != nil {
			t.Errorf("%v: decode: %v", m.Kind(), err)
			continue
		}
		if got.Src != 1 || got.Dst != 2 || got.Seq != 31 {
			t.Errorf("%v: routing lost: %+v", m.Kind(), got)
		}
		if !reflect.DeepEqual(got.Msg, m) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", m.Kind(), got.Msg, m)
		}
	}
}

func TestEveryKindCovered(t *testing.T) {
	covered := map[Kind]bool{}
	for _, m := range allMessages() {
		covered[m.Kind()] = true
	}
	for k := KindInvalid + 1; k < kindMax; k++ {
		if !covered[k] {
			t.Errorf("kind %v has no round-trip coverage", k)
		}
		if dispatch(k, nil, &coder{mode: decoding}) == nil {
			t.Errorf("kind %v missing from the dispatch registry", k)
		}
		if s := k.String(); strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name in kindNames: it prints as %s", uint16(k), s)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	env := Envelope{Src: 1, Dst: 2, Msg: &Heartbeat{Seq: 1}}
	b := env.Encode()

	// Truncated at every boundary must error, never panic.
	for i := 0; i < len(b); i++ {
		if _, err := Decode(b[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage rejected.
	if _, err := Decode(append(append([]byte{}, b...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown kind rejected.
	bad := append([]byte{}, b...)
	bad[4] = 0xEE
	bad[5] = 0xEE
	if _, err := Decode(bad); err == nil {
		t.Error("unknown kind accepted")
	}
}

// Property: no byte string makes Decode panic.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: AllocResp frame lists of arbitrary contents round trip.
func TestAllocRespFramesProperty(t *testing.T) {
	f := func(frames []uint64, va uint64, ok bool) bool {
		m := &AllocResp{App: 1, OK: ok, VA: va, Frames: frames}
		got, err := Decode(Envelope{Src: 1, Dst: 2, Msg: m}.Encode())
		if err != nil {
			return false
		}
		gm := got.Msg.(*AllocResp)
		if len(frames) == 0 {
			return len(gm.Frames) == 0
		}
		return reflect.DeepEqual(gm.Frames, frames)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary strings in DiscoverReq round trip.
func TestStringFieldProperty(t *testing.T) {
	f := func(q string, nonce uint32) bool {
		if len(q) > 65535 {
			q = q[:65535]
		}
		m := &DiscoverReq{Query: q, Nonce: nonce}
		got, err := Decode(Envelope{Src: 9, Dst: Broadcast, Msg: m}.Encode())
		if err != nil {
			return false
		}
		return got.Msg.(*DiscoverReq).Query == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodedSize(t *testing.T) {
	m := &Heartbeat{Seq: 1}
	env := Envelope{Src: 1, Dst: 2, Msg: m}
	// EncodedSize excludes the link-layer seq tag and incarnation stamp
	// (4 bytes each) from accounting.
	if EncodedSize(m) != len(env.Encode())-8 {
		t.Errorf("EncodedSize = %d, wire = %d", EncodedSize(m), len(env.Encode()))
	}
	// The incarnation stamp itself must not change accounted size either.
	stamped := Envelope{Src: 1, Dst: 2, Seq: 9, Inc: 4, Msg: m}
	if EncodedSize(m) != len(stamped.Encode())-8 {
		t.Error("incarnation stamp leaked into EncodedSize accounting")
	}
}

// TestHelloIncarnationBackwardCompat checks that the incarnation field
// is a trailing optional: a pre-incarnation encoding (no trailing u32)
// still decodes, and a first-boot Hello encodes without the field.
func TestHelloIncarnationBackwardCompat(t *testing.T) {
	old := &Hello{Role: RoleNIC, Name: "nic0", Services: []string{"net"}}
	legacy := frame(Envelope{Src: 1, Dst: BusID, Seq: 7}, KindHello,
		le{}.u8(uint8(old.Role)).str(old.Name).u16(1).str("net"))
	env, err := Decode(legacy)
	if err != nil {
		t.Fatalf("legacy Hello rejected: %v", err)
	}
	if got := env.Msg.(*Hello); got.Incarnation != 0 || got.Name != "nic0" {
		t.Errorf("legacy Hello decoded wrong: %+v", got)
	}
	// Zero incarnation encodes to the legacy wire form exactly.
	firstBoot := Envelope{Src: 1, Dst: BusID, Seq: 7, Msg: old}
	if got := firstBoot.Encode(); string(got) != string(legacy) {
		t.Errorf("first-boot Hello not byte-identical to legacy form:\n got %x\nwant %x", got, legacy)
	}
	// Nonzero incarnation round-trips.
	rej := &Hello{Role: RoleNIC, Name: "nic0", Services: []string{"net"}, Incarnation: 2}
	env, err = Decode(Envelope{Src: 1, Dst: BusID, Seq: 8, Msg: rej}.Encode())
	if err != nil {
		t.Fatalf("rejoin Hello rejected: %v", err)
	}
	if got := env.Msg.(*Hello).Incarnation; got != 2 {
		t.Errorf("Incarnation = %d, want 2", got)
	}
}

// TestStateRespBomb mirrors TestU64ListBomb for the region list: a
// claimed huge region count with a tiny payload must error cleanly.
func TestStateRespBomb(t *testing.T) {
	bomb := frame(Envelope{Src: 1, Dst: 2}, KindStateResp, le{}.
		u32(1).      // Nonce
		u16(0xFFF0)) // claimed region count
	if _, err := Decode(bomb); err == nil {
		t.Error("region-count bomb accepted")
	}
}

// TestDecodeListBombs holds the list guards to the element: a count is
// refused unless its elements, at their smallest wire size (19 bytes for
// a region, 2 for a string), fit in what is left of the frame. Each frame
// here claims 65 535 elements and carries a little more than 65 535
// bytes, enough for a guard that counts one byte an element, so the
// decoder must refuse it before it makes the list.
func TestDecodeListBombs(t *testing.T) {
	pad := make([]byte, 65535)
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"StateResp", frame(Envelope{Src: BusID, Dst: 3}, KindStateResp, le{}.u32(1).u16(0xFFFF).raw(pad...))},
		{"Hello", frame(Envelope{Src: 1, Dst: BusID}, KindHello, le{}.u8(uint8(RoleNIC)).str("").u16(0xFFFF).raw(pad...))},
	} {
		// The least of a few tries: under -race, sync.Pool drops items at
		// random, so the error's formatting may allocate a fresh printer.
		grew := ^uint64(0)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(c.frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: a count of 65 535 in a %d B frame decoded", c.name, len(c.frame))
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew >= 4<<10 {
			t.Errorf("%s: refusing a %d B frame allocated %d B, want < 4 KiB", c.name, len(c.frame), grew)
		}
	}
}

func TestDedupWindow(t *testing.T) {
	var d DedupWindow
	if d.Duplicate(1, 0) || d.Duplicate(1, 0) {
		t.Error("untagged envelopes must never be suppressed")
	}
	if d.Duplicate(1, 5) {
		t.Error("first sighting of seq 5 flagged")
	}
	if !d.Duplicate(1, 5) {
		t.Error("replay of seq 5 not flagged")
	}
	if d.Duplicate(2, 5) {
		t.Error("windows must be per-peer")
	}
	// Out-of-order arrival inside the window is not a duplicate...
	if d.Duplicate(1, 3) {
		t.Error("older-but-unseen seq 3 flagged")
	}
	// ...but its replay is.
	if !d.Duplicate(1, 3) {
		t.Error("replay of seq 3 not flagged")
	}
	// Far ahead: window slides.
	if d.Duplicate(1, 500) {
		t.Error("seq 500 flagged")
	}
	// Fallen off the 64-entry window: stale, treated as duplicate.
	if !d.Duplicate(1, 5) {
		t.Error("stale seq below window accepted")
	}
	d.Forget(1)
	if d.Duplicate(1, 5) {
		t.Error("Forget did not clear the window")
	}
}

func TestU64ListBomb(t *testing.T) {
	// A claimed huge frame count with a tiny payload must error cleanly,
	// not allocate gigabytes.
	bomb := frame(Envelope{Src: 1, Dst: 2}, KindAllocResp, le{}.
		u32(1). // App
		u8(1).  // OK
		u16(0). // Reason
		u64(0). // VA
		u32(0xFFFFFFF0))
	if _, err := Decode(bomb); err == nil {
		t.Error("length bomb accepted")
	}
}

func TestStringers(t *testing.T) {
	if Broadcast.String() != "broadcast" || BusID.String() != "bus" || DeviceID(3).String() != "dev3" {
		t.Error("DeviceID.String wrong")
	}
	if KindAllocResp.String() != "alloc.resp" {
		t.Error("Kind.String wrong")
	}
	if Kind(999).String() != "kind(999)" {
		t.Error("unknown Kind.String wrong")
	}
	if RoleMemoryController.String() != "memctrl" || Role(99).String() != "role(99)" {
		t.Error("Role.String wrong")
	}
}
