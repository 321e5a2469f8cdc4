package fabric

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
)

// mustBoot builds and boots a cluster or fails the test.
func mustBoot(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	cl := MustNew(cfg)
	if err := cl.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	return cl
}

// do issues one client op at the given ingress and runs the engine
// until the reply arrives (or the deadline passes).
func do(t testing.TB, cl *Cluster, ingress msg.DeviceID, req kvs.Request) kvs.Response {
	t.Helper()
	var out kvs.Response
	got := false
	cl.Ingress(ingress)(kvs.EncodeRequest(req), func(b []byte) {
		resp, err := kvs.DecodeResponse(b)
		if err != nil {
			t.Fatalf("bad response: %v", err)
		}
		out, got = resp, true
	})
	deadline := cl.Eng.Now().Add(sim.Second)
	for !got && cl.Eng.Now() < deadline {
		cl.Eng.RunFor(100 * sim.Microsecond)
	}
	if !got {
		t.Fatalf("op %v %q never answered", req.Op, req.Key)
	}
	return out
}

func val64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestClusterBootAndBasicOps(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 1})
	// Writes and reads land regardless of which machine the client hits.
	for i := uint64(0); i < 32; i++ {
		key := keyFor(int(i))
		ing := cl.MachineIDs()[int(i)%4]
		if resp := do(t, cl, ing, kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(i)}); resp.Status != kvs.StatusOK {
			t.Fatalf("put %s: status %d", key, resp.Status)
		}
	}
	for i := uint64(0); i < 32; i++ {
		key := keyFor(int(i))
		ing := cl.MachineIDs()[int(3-i%4)]
		resp := do(t, cl, ing, kvs.Request{Op: kvs.OpGet, Key: key})
		if resp.Status != kvs.StatusOK {
			t.Fatalf("get %s: status %d", key, resp.Status)
		}
		if got := binary.LittleEndian.Uint64(resp.Value); got != i {
			t.Fatalf("get %s: value %d, want %d", key, got, i)
		}
	}
	st := cl.RouterStatsSum()
	if st.Local == 0 || st.Remote == 0 {
		t.Errorf("expected a mix of local and remote serves, got local=%d remote=%d", st.Local, st.Remote)
	}
	if st.ViewChanges != 0 {
		t.Errorf("no machine died, but %d view changes", st.ViewChanges)
	}
}

func TestReplicationPlacesValueOnBackup(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 2})
	key := "replica-check"
	own := cl.Ring.Owners(key, nil, 2)
	if len(own) != 2 {
		t.Fatalf("owners = %v", own)
	}
	if resp := do(t, cl, own[0], kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(7)}); resp.Status != kvs.StatusOK {
		t.Fatalf("put: %d", resp.Status)
	}
	// Both owners' shard stores hold the key; nobody else does.
	for _, m := range cl.Machines {
		has := m.Store.Keys() > 0
		wantHas := m.ID == own[0] || m.ID == own[1]
		if has != wantHas {
			t.Errorf("machine %d: keys=%d, want present=%v (owners %v)", m.ID, m.Store.Keys(), wantHas, own)
		}
	}
}

func TestHeadFlavorRelaysRemoteOps(t *testing.T) {
	cl := mustBoot(t, Config{N: 4, Seed: 3, Flavor: FlavorHead})
	// Find a key owned by neither the head (1) nor the ingress (3).
	key := ""
	for i := 0; i < 1000; i++ {
		k := keyFor(i)
		own := cl.Ring.Owners(k, nil, 2)
		if own[0] != 1 && own[0] != 3 {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no suitable key found")
	}
	if resp := do(t, cl, 3, kvs.Request{Op: kvs.OpPut, Key: key, Value: val64(9)}); resp.Status != kvs.StatusOK {
		t.Fatalf("put: %d", resp.Status)
	}
	if resp := do(t, cl, 3, kvs.Request{Op: kvs.OpGet, Key: key}); resp.Status != kvs.StatusOK {
		t.Fatalf("get: %d", resp.Status)
	}
	if relayed := cl.Machine(1).Router.Stats().HeadRelayed; relayed == 0 {
		t.Error("head relayed nothing; remote ops bypassed the head")
	}
}

func TestSingleMachineSoloAcks(t *testing.T) {
	cl := mustBoot(t, Config{N: 1, Seed: 4})
	if resp := do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: "k", Value: val64(1)}); resp.Status != kvs.StatusOK {
		t.Fatalf("put: %d", resp.Status)
	}
	if st := cl.RouterStatsSum(); st.SoloAcks == 0 {
		t.Error("N=1 write did not solo-ack")
	}
}

func keyFor(i int) string { return fmt.Sprintf("fkey-%05d", i) }

// keyOwnedBy returns the first test key whose primary is machine id.
func keyOwnedBy(cl *Cluster, id msg.DeviceID) string {
	k, _ := keyLedBy(cl.Ring, id, 0)
	return k
}

// keyLedBy returns the first test key from keyFor(from) on whose primary
// under ring is id, and its index.
func keyLedBy(ring *Ring, id msg.DeviceID, from int) (string, int) {
	for i := from; ; i++ {
		if ring.Owners(keyFor(i), nil, 1)[0] == id {
			return keyFor(i), i
		}
	}
}

// remoteGetRack is a two-machine rack with the value cache on, holding a
// 64-byte value under a key machine 2 owns, and a get of that key for
// machine 1's ingress.
func remoteGetRack(t testing.TB) (*Cluster, []byte) {
	cl := mustBoot(t, Config{N: 2, Seed: 5, CacheEntries: 64, MachineMemory: 4 << 20})
	key := keyOwnedBy(cl, 2)
	if resp := do(t, cl, 1, kvs.Request{Op: kvs.OpPut, Key: key, Value: make([]byte, 64)}); resp.Status != kvs.StatusOK {
		t.Fatalf("put: %d", resp.Status)
	}
	return cl, kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
}

// TestRemoteGetAllocs pins the whole fabric op path: a get that enters at
// machine 1, is forwarded to its owner, served from the NIC cache there
// and answered back. One allocation is left: the key string of the owner's
// request decode. The client NIC's delivery, which is also the Replier the
// router answers, comes off the NIC's list, since the router answers it
// once and lets go (smartnic.RequestApp). The owner's store answers its
// served record in place (kvs.Answerer), which encodes the response into
// client scratch and goes back on the client's list; the forwarded op's
// pendingReq and the owner's storeOp come off their owners' free lists, as
// do each frame's arrival and far-NIC record; both routers decode into
// their own bodies, and their ring lookups fill router scratch. The frames
// are cut from chunks, and the ingress routes on the key in place without
// decoding. It read 2 while the client's delivery was allocated per op, 4
// while the served record and the encoded response were allocated per op,
// 6 while the pendingReq and the storeOp were too, 10 while every arrival
// (which embedded the far NIC's record) and decoded body was, 13 while the
// NIC handed the router a reply func, the owner made a reply closure and
// each ring lookup allocated its result, and 16 when each frame was its
// own allocation and both ends decoded. The bound is the count and one to
// spare.
func TestRemoteGetAllocs(t *testing.T) {
	cl, get := remoteGetRack(t)
	ingress := cl.Ingress(1)
	var last []byte
	reply := func(b []byte) { last = b }
	remote, hits := cl.RouterStatsSum().Remote, cl.Machine(2).Store.Stats().CacheHits
	n := testing.AllocsPerRun(200, func() {
		ingress(get, reply)
		cl.Eng.Run()
	})
	if resp, err := kvs.DecodeResponse(last); err != nil || resp.Status != kvs.StatusOK || len(resp.Value) != 64 {
		t.Fatalf("get answered %+v, %v", resp, err)
	}
	if cl.RouterStatsSum().Remote-remote < 200 || cl.Machine(2).Store.Stats().CacheHits-hits < 200 {
		t.Fatal("the gets were not remote cache hits")
	}
	t.Logf("a remote cached get: %v allocations", n)
	if n > 2 {
		t.Errorf("a remote cached get allocates %v times, want <= 2", n)
	}
}

// BenchmarkRemoteGet is TestRemoteGetAllocs' path: a get from machine 1's
// ingress, forwarded to its owner, served from the NIC cache there and
// answered back, with the engine run until the answer lands.
func BenchmarkRemoteGet(b *testing.B) {
	cl, get := remoteGetRack(b)
	ingress := cl.Ingress(1)
	reply := func([]byte) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ingress(get, reply)
		cl.Eng.Run()
	}
}

// TestFlashOpAllocs pins the same path with the value cache off, so the
// owner's store goes to its SSD: one virtqueue round trip per get, and per
// put on the primary and on the backup. A round trip costs nothing of its
// own: the SSD reads the request into its pair's buffer, answers from its
// request record's array and the NIC reaps into its driver's buffer (a
// put's request buffer on the NIC is the one allocation left); its two
// doorbell writes come off the fabric's list. A put also builds its inode
// page (and a page when its append starts one); its key's gate comes off
// the primary's list, and its write task keeps its targets and acks in its
// own arrays, and the task itself comes off the primary's list. The
// store's op is the fileStoreOp that carries the file request, so it is
// allocated per op. The rest is the fabric path above: the client NIC's
// delivery comes off its list, the owner's store answers its served
// record, and the backup's its applied record, in place, and both records
// come off free lists. Nothing else is left at the file-op ends of the
// queue (DESIGN.md "The file op"): with a closure per stage and a copy per
// layer there these read 36 and 104. They read 2 and 9: 3 and 11 while
// each client delivery and write task was allocated, 5 and 15 while the
// served and applied records and each store answer's encoding (which a
// write task and an applied record decoded at once) were allocated per op,
// 8 and 21 while each round trip made its request buffer at the SSD and
// its response buffer at both ends, 11 and 30 while each doorbell write,
// forwarded op and key gate was also its own record and a write task
// allocated its ack map and target slice, 15 and 38 while every frame's
// arrival and far-NIC record and every body a router decoded were
// allocated, 18 and 46 while replies were funcs and ring lookups allocated
// (a put also made the primary's apply closure and looked up its
// replication set twice), and 21 and 54 before frames were cut from
// chunks, the outgoing Replicate and its ack were router-owned bodies, and
// the ingress stopped decoding what it forwards. Bounds are the measured
// counts and one to spare.
func TestFlashOpAllocs(t *testing.T) {
	cl := mustBoot(t, Config{N: 2, Seed: 5, MachineMemory: 4 << 20})
	key := keyOwnedBy(cl, 2)
	ingress := cl.Ingress(1)
	put := kvs.EncodeRequest(kvs.Request{Op: kvs.OpPut, Key: key, Value: make([]byte, 64)})
	get := kvs.EncodeRequest(kvs.Request{Op: kvs.OpGet, Key: key})
	var last []byte
	reply := func(b []byte) { last = b }
	run := func(req []byte) func() {
		return func() {
			ingress(req, reply)
			cl.Eng.Run()
		}
	}
	for i := 0; i < 8; i++ {
		run(put)() // reach steady state: the value's extent exists, the queues' pair records are built
		run(get)()
	}
	dmas := cl.Machine(2).Sys.Fabric.Stats().DMAs
	gets := testing.AllocsPerRun(200, run(get))
	if resp, err := kvs.DecodeResponse(last); err != nil || resp.Status != kvs.StatusOK || len(resp.Value) != 64 {
		t.Fatalf("get answered %+v, %v", resp, err)
	}
	puts := testing.AllocsPerRun(200, run(put))
	if resp, err := kvs.DecodeResponse(last); err != nil || resp.Status != kvs.StatusOK {
		t.Fatalf("put answered %+v, %v", resp, err)
	}
	if cl.Machine(2).Sys.Fabric.Stats().DMAs-dmas < 400*16 {
		t.Fatal("the ops did not go through the owner's virtqueue")
	}
	t.Logf("a remote flash get: %v allocations, a put: %v", gets, puts)
	if gets > 3 {
		t.Errorf("a remote flash get allocates %v times, want <= 3", gets)
	}
	if puts > 10 {
		t.Errorf("a remote flash put allocates %v times, want <= 10", puts)
	}
}

// TestLeaseRoundAllocs pins what the lease chatter costs the host. On an
// idle decentralized rack every frame is a LeaseRenew or a LeaseGrant, and
// each costs only its share of a chunk: its arrival and far-NIC records
// come off free lists and the far router decodes it into its own body
// (0.009 per frame measured). It read 2.01 while the arrival (which
// embedded the far NIC's record) and the decoded body were allocated per
// frame, and 3.71 when each frame was its own allocation, every grant and
// round allocated its body, and every round its map.
func TestLeaseRoundAllocs(t *testing.T) {
	cl := mustBoot(t, Config{N: 8, Seed: 17, Leases: true, MachineMemory: 4 << 20})
	cl.Eng.RunFor(5 * sim.Millisecond)
	frames, grants := cl.Network().Stats().Frames, cl.RouterStatsSum().LeaseGrants
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl.Eng.RunFor(20 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	frames, grants = cl.Network().Stats().Frames-frames, cl.RouterStatsSum().LeaseGrants-grants
	if grants < 1000 || frames < 2*grants-64 || frames > 2*grants+64 {
		t.Fatalf("%d frames for %d grants: the rack is not idle lease chatter", frames, grants)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(frames)
	t.Logf("a lease frame: %.3f allocations", per)
	if per > 0.05 {
		t.Errorf("a lease frame costs %.3f allocations, want <= 0.05", per)
	}
}

// TestRackSetupAllocs pins what building and booting a rack costs the
// host: 4.0 MB for eight machines of the default 8 MiB each (measured;
// half of it the FTL's two maps per SSD), 88 frames resident between them.
// Declared DRAM alone used to be 64 MiB here, and a slice header for every
// flash page 6 MiB more.
func TestRackSetupAllocs(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl := mustBoot(t, Config{N: 8, Seed: 11})
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("New+Boot of 8 machines: %d bytes", got)
	if got > 6<<20 {
		t.Errorf("New+Boot of 8 machines allocated %d bytes, want under 6 MiB", got)
	}
	var resident uint64
	for _, m := range cl.Machines {
		resident += m.Sys.Mem.ResidentFrames()
	}
	t.Logf("%d frames resident after boot", resident)
	if resident > 88+8 {
		t.Errorf("%d frames resident after boot, want at most 96", resident)
	}
}
