package centralos

import (
	"errors"
	"fmt"
	"testing"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/kvs"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/smartssd"
	"nocpu/internal/trace"
)

const (
	cpuID = msg.DeviceID(1)
	ssdID = msg.DeviceID(2)
	nicID = msg.DeviceID(3)
)

type centralbed struct {
	eng   *sim.Engine
	tr    *trace.Tracer
	bus   *bus.Bus
	cpu   *CPU
	ssd   *smartssd.SSD
	nic   *smartnic.NIC
	store *kvs.Store
}

func newCentralbed(t *testing.T, mode kvs.Mode) *centralbed {
	t.Helper()
	cb := &centralbed{eng: sim.NewEngine(), tr: trace.New(0)}
	tr := cb.tr
	mem := physmem.MustNew(32 * 1024 * physmem.PageSize)
	fab := interconnect.NewFabric(cb.eng, mem, interconnect.DefaultCosts)
	// No memory controller attaches: the bus is pure transport here.
	cb.bus = bus.New(cb.eng, bus.DefaultConfig, tr)

	cpu, err := New(cb.eng, cb.bus, fab, tr, Config{ID: cpuID, Name: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	cb.cpu = cpu
	ssd, err := smartssd.New(cb.eng, cb.bus, fab, tr, smartssd.Config{
		Device: device.Config{ID: ssdID, Name: "ssd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cb.ssd = ssd
	nic, err := smartnic.New(cb.eng, cb.bus, fab, tr, smartnic.Config{
		Device: device.Config{ID: nicID, Name: "nic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cb.nic = nic

	// The kernel holds direct handles to the device IOMMUs and mounts
	// the volume into its registry.
	cpu.AttachDeviceIOMMU(ssdID, ssd.Device().IOMMU())
	cpu.AttachDeviceIOMMU(nicID, nic.Device().IOMMU())
	cpu.RegisterFile("kv.dat", ssdID)

	cpu.Start()
	ssd.Start()
	nic.Start()
	cb.eng.Run()
	if !ssd.Ready() {
		t.Fatal("ssd not ready")
	}
	var done bool
	ssd.FS().Create("kv.dat", func(_ *smartssd.File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	cb.eng.Run()
	if !done {
		t.Fatal("create incomplete")
	}

	cb.store = kvs.New(kvs.Config{
		App: 10, FileName: "kv.dat", Mode: mode, Kernel: cpuID, QueueEntries: 64,
	})
	var bootErr error
	booted := false
	cb.store.OnReady = func(err error) { bootErr, booted = err, true }
	nic.AddApp(cb.store)
	cb.eng.Run()
	if !booted || bootErr != nil {
		t.Fatalf("boot (mode %d): booted=%v err=%v\ntrace:\n%s", mode, booted, bootErr, tr.String())
	}
	return cb
}

func (cb *centralbed) op(t *testing.T, req kvs.Request) kvs.Response {
	t.Helper()
	var resp kvs.Response
	got := false
	cb.nic.Deliver(10, kvs.EncodeRequest(req), func(b []byte) {
		r, err := kvs.DecodeResponse(b)
		if err != nil {
			t.Fatal(err)
		}
		resp, got = r, true
	})
	cb.eng.Run()
	if !got {
		t.Fatal("no response")
	}
	return resp
}

func TestCentralDirectPutGet(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	if r := cb.op(t, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte("central-direct")}); r.Status != kvs.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	r := cb.op(t, kvs.Request{Op: kvs.OpGet, Key: "k"})
	if r.Status != kvs.StatusOK || string(r.Value) != "central-direct" {
		t.Fatalf("get: %+v", r)
	}
	st := cb.cpu.Stats()
	if st.Syscalls < 2 {
		t.Errorf("setup made only %d syscalls", st.Syscalls)
	}
	// Direct mode: data-plane ops must NOT be syscalls.
	if st.MediatedIOs != 0 {
		t.Errorf("direct mode performed %d mediated I/Os", st.MediatedIOs)
	}
	if st.PagesMapped == 0 {
		t.Error("kernel mapped no pages")
	}
}

func TestCentralMediatedPutGet(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	if r := cb.op(t, kvs.Request{Op: kvs.OpPut, Key: "k", Value: []byte("via-kernel")}); r.Status != kvs.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	r := cb.op(t, kvs.Request{Op: kvs.OpGet, Key: "k"})
	if r.Status != kvs.StatusOK || string(r.Value) != "via-kernel" {
		t.Fatalf("get: %+v", r)
	}
	st := cb.cpu.Stats()
	if st.MediatedIOs < 2 {
		t.Errorf("mediated I/Os = %d, want >= 2", st.MediatedIOs)
	}
	if st.BytesCopied == 0 {
		t.Error("kernel copied nothing")
	}
	if st.Interrupts == 0 {
		t.Error("no completion interrupts")
	}
}

func TestMediatedSlowerThanDirect(t *testing.T) {
	// The headline shape: per-op latency must be strictly higher through
	// the kernel than peer-to-peer, by roughly the syscall+interrupt+copy
	// overhead.
	measure := func(mode kvs.Mode) sim.Duration {
		cb := newCentralbed(t, mode)
		cb.op(t, kvs.Request{Op: kvs.OpPut, Key: "k", Value: make([]byte, 1024)})
		start := cb.eng.Now()
		const n = 20
		for i := 0; i < n; i++ {
			cb.op(t, kvs.Request{Op: kvs.OpGet, Key: "k"})
		}
		return cb.eng.Now().Sub(start) / n
	}
	direct := measure(kvs.ModeCentralDirect)
	mediated := measure(kvs.ModeCentralMediated)
	if mediated <= direct {
		t.Fatalf("mediated (%v) not slower than direct (%v)", mediated, direct)
	}
	if mediated-direct < 2*sim.Microsecond {
		t.Errorf("mediation overhead only %v, expected >= ~2us (syscall+interrupt)", mediated-direct)
	}
}

func TestOpenUnregisteredFileFails(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	st2 := kvs.New(kvs.Config{App: 11, FileName: "nope.dat", Mode: kvs.ModeCentralDirect, Kernel: cpuID})
	var bootErr error
	st2.OnReady = func(err error) {
		if bootErr == nil {
			bootErr = err
		}
	}
	cb.nic.AddApp(st2)
	cb.eng.RunFor(5 * sim.Millisecond)
	if bootErr == nil {
		t.Fatal("open of unregistered file succeeded")
	}
}

func TestMediatedManyKeys(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("key%02d", i)
		if r := cb.op(t, kvs.Request{Op: kvs.OpPut, Key: key, Value: []byte(key + "-value")}); r.Status != kvs.StatusOK {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	for i := 0; i < 30; i += 5 {
		key := fmt.Sprintf("key%02d", i)
		r := cb.op(t, kvs.Request{Op: kvs.OpGet, Key: key})
		if r.Status != kvs.StatusOK || string(r.Value) != key+"-value" {
			t.Fatalf("get %s: %+v", key, r)
		}
	}
}

func TestKernelMmapSyscall(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	nicDev := cb.nic.Device()
	var alloc *msg.AllocResp
	var free *msg.FreeResp
	nicDev.Handle(msg.KindAllocResp, func(e msg.Envelope) { alloc = e.Msg.(*msg.AllocResp) })
	nicDev.Handle(msg.KindFreeResp, func(e msg.Envelope) { free = e.Msg.(*msg.FreeResp) })

	nicDev.Send(cpuID, &msg.AllocReq{App: 50, VA: 0x4000_0000, Bytes: 3 * physmem.PageSize})
	cb.eng.Run()
	if alloc == nil || !alloc.OK || len(alloc.Frames) != 3 {
		t.Fatalf("mmap: %+v", alloc)
	}
	// The kernel mapped the region into the caller's IOMMU.
	for i := 0; i < 3; i++ {
		if _, _, ok := nicDev.IOMMU().Lookup(50, iommu.VirtAddr(0x4000_0000+i*physmem.PageSize)); !ok {
			t.Fatalf("page %d not mapped", i)
		}
	}
	// Duplicate mmap of the same region is refused.
	alloc = nil
	nicDev.Send(cpuID, &msg.AllocReq{App: 50, VA: 0x4000_0000, Bytes: physmem.PageSize})
	cb.eng.Run()
	if alloc == nil || alloc.OK {
		t.Fatalf("duplicate mmap: %+v", alloc)
	}
	// Malformed requests are refused.
	alloc = nil
	nicDev.Send(cpuID, &msg.AllocReq{App: 50, VA: 0x4000_1001, Bytes: physmem.PageSize})
	cb.eng.Run()
	if alloc == nil || alloc.OK {
		t.Fatalf("unaligned mmap: %+v", alloc)
	}
	// munmap removes the mapping and frees the frames.
	nicDev.Send(cpuID, &msg.FreeReq{App: 50, VA: 0x4000_0000})
	cb.eng.Run()
	if free == nil || !free.OK {
		t.Fatalf("munmap: %+v", free)
	}
	if _, _, ok := nicDev.IOMMU().Lookup(50, 0x4000_0000); ok {
		t.Fatal("mapping survives munmap")
	}
	// Double munmap refused.
	free = nil
	nicDev.Send(cpuID, &msg.FreeReq{App: 50, VA: 0x4000_0000})
	cb.eng.Run()
	if free == nil || free.OK {
		t.Fatalf("double munmap: %+v", free)
	}
}

func TestKernelMmapChargesCPUTime(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	nicDev := cb.nic.Device()
	done := false
	nicDev.Handle(msg.KindAllocResp, func(e msg.Envelope) { done = true })
	start := cb.eng.Now()
	nicDev.Send(cpuID, &msg.AllocReq{App: 60, VA: 0x5000_0000, Bytes: 64 * physmem.PageSize})
	cb.eng.Run()
	if !done {
		t.Fatal("no response")
	}
	// Must include at least syscall + 64 pages of mmap work.
	minWork := DefaultConfig.SyscallCost + 64*DefaultConfig.MmapPerPage
	if got := cb.eng.Now().Sub(start); got < minWork {
		t.Fatalf("mmap took %v, below kernel work %v", got, minWork)
	}
}

// A syscall admitted before a kernel reboot does not run after it. At
// 1.5us of trap and 16us of mapping, a 64-page mmap is still in service
// when a 5us reboot completes; its stage must not map into the IOMMU the
// reboot flushed, write the new kernel's region table or answer.
func TestSyscallDoesNotOutliveReboot(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	cb.cpu.cfg.ResetDelay = 5 * sim.Microsecond
	nicDev := cb.nic.Device()
	var alloc *msg.AllocResp
	nicDev.Handle(msg.KindAllocResp, func(e msg.Envelope) { alloc = e.Msg.(*msg.AllocResp) })
	nicDev.Send(cpuID, &msg.AllocReq{App: 60, VA: 0x5000_0000, Bytes: 64 * physmem.PageSize})
	for cb.cpu.cores.Pending() == 0 && cb.eng.Step() {
	}
	if err := cb.bus.FailDevice(cpuID, "test"); err != nil {
		t.Fatal(err)
	}
	cb.eng.Run()
	if n := cb.cpu.Stats().Reboots; n != 1 {
		t.Fatalf("kernel rebooted %d times, want 1", n)
	}
	if alloc != nil {
		t.Errorf("the rebooted kernel answered its predecessor's mmap: %+v", alloc)
	}
	if _, _, ok := nicDev.IOMMU().Lookup(60, 0x5000_0000); ok {
		t.Error("a stale mmap stage mapped into the flushed IOMMU")
	}
	if len(cb.cpu.mmaps) != 0 {
		t.Errorf("the rebooted kernel's region table holds %d stale regions", len(cb.cpu.mmaps))
	}
}

// A mediated I/O the kernel held when it rebooted is no longer outstanding.
// Its next stage does nothing after the reboot, and a request stranded in
// a quiesced queue never completes, so only the reboot can give its slot
// of the backlog bound back.
func TestRebootForgetsMediatedIOs(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	cb.cpu.cfg.ResetDelay = 1 * sim.Microsecond
	var h uint32
	for h = range cb.cpu.kernelConns {
	}
	cb.nic.Device().Send(cpuID, &msg.FileIOReq{App: 10, Handle: h, Seq: 100, Op: uint8(smartssd.OpWrite), Data: make([]byte, 4096)})
	for cb.cpu.cores.Pending() == 0 && cb.eng.Step() {
	}
	if cb.cpu.ioOutstanding != 1 {
		t.Fatalf("%d mediated I/Os outstanding before the reboot, want 1", cb.cpu.ioOutstanding)
	}
	if err := cb.bus.FailDevice(cpuID, "test"); err != nil {
		t.Fatal(err)
	}
	cb.eng.Run()
	if n := cb.cpu.Stats().Reboots; n != 1 {
		t.Fatalf("kernel rebooted %d times, want 1", n)
	}
	if n, g := cb.cpu.ioOutstanding, cb.cpu.IOGauge().Cur(); n != 0 || g != 0 {
		t.Errorf("after the reboot %d mediated I/Os are outstanding (gauge %d), want 0", n, g)
	}
}

// A Reset that reaches the kernel while its reboot is pending joins that
// reboot. The bus sends one such Reset when a heartbeat the kernel sent
// before it was failed lands after the failure.
func TestSecondResetJoinsPendingReboot(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	cb.cpu.cfg.HeartbeatEvery = 10 * sim.Microsecond
	cb.cpu.cfg.ResetDelay = 50 * sim.Microsecond
	cb.cpu.scheduleHeartbeat()
	for seq := cb.cpu.hbSeq; cb.cpu.hbSeq == seq && cb.eng.Step(); {
	}
	resets := cb.bus.Stats().Resets
	if err := cb.bus.FailDevice(cpuID, "test"); err != nil {
		t.Fatal(err)
	}
	cb.eng.RunFor(cb.cpu.cfg.ResetDelay / 2)
	if n := cb.bus.Stats().Resets - resets; n != 2 {
		t.Fatalf("the bus sent %d Resets inside the reset delay, want 2", n)
	}
	cb.eng.RunFor(2 * cb.cpu.cfg.ResetDelay)
	if n := cb.cpu.Stats().Reboots; n != 1 {
		t.Fatalf("kernel rebooted %d times, want 1", n)
	}
	if !cb.cpu.Alive() {
		t.Error("kernel is not running after its reboot")
	}
}

// TestKernelClose covers both forms of the close syscall: a mediated
// handle is the kernel's own and is dropped there; a direct connection's
// close is forwarded to its provider. The app is answered either way.
func TestKernelClose(t *testing.T) {
	forwarded := func(cb *centralbed) bool {
		for _, ev := range cb.tr.Filter("close.req") {
			if ev.Src == "cpu" && ev.Dst == "ssd" {
				return true
			}
		}
		return false
	}
	closeConn := func(t *testing.T, cb *centralbed, req *msg.CloseReq) {
		t.Helper()
		var resp *msg.CloseResp
		cb.nic.Device().Handle(msg.KindCloseResp, func(e msg.Envelope) { resp = e.Msg.(*msg.CloseResp) })
		cb.nic.Device().Send(cpuID, req)
		cb.eng.Run()
		if resp == nil || !resp.OK || resp.ConnID != req.ConnID {
			t.Fatalf("close of %+v answered %+v", req, resp)
		}
	}
	t.Run("mediated handle", func(t *testing.T) {
		cb := newCentralbed(t, kvs.ModeCentralMediated)
		if len(cb.cpu.kernelConns) != 1 {
			t.Fatalf("kernel holds %d mediated handles, want 1", len(cb.cpu.kernelConns))
		}
		var h uint32
		for h = range cb.cpu.kernelConns {
		}
		closeConn(t, cb, &msg.CloseReq{Service: "mediated:kv.dat", ConnID: h, App: 10})
		if _, ok := cb.cpu.kernelConns[h]; ok {
			t.Error("mediated handle survives its close")
		}
		if forwarded(cb) {
			t.Error("the close of a kernel-owned handle went to the provider")
		}
	})
	t.Run("direct connection", func(t *testing.T) {
		cb := newCentralbed(t, kvs.ModeCentralDirect)
		closeConn(t, cb, &msg.CloseReq{Service: "file:kv.dat", ConnID: 1, App: 10})
		if !forwarded(cb) {
			t.Error("a direct connection's close was not forwarded to its provider")
		}
	})
}

func TestKernelSerializesUnderLoad(t *testing.T) {
	// Issue a burst of opens from many apps; the pool has 4 cores, so the
	// kernel must still answer all of them (queued), and syscall count
	// must match.
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	const apps = 16
	ready := 0
	for i := 0; i < apps; i++ {
		st := kvs.New(kvs.Config{
			App: msg.AppID(100 + i), FileName: "kv.dat",
			Mode: kvs.ModeCentralDirect, Kernel: cpuID, QueueEntries: 16,
		})
		st.OnReady = func(err error) {
			if err == nil {
				ready++
			}
		}
		cb.nic.AddApp(st)
	}
	cb.eng.Run()
	if ready != apps {
		t.Fatalf("ready = %d of %d", ready, apps)
	}
}

// A refused kernel mapping is all or nothing: the frames go back and
// nothing the call installed stays — but a page that was there before,
// which is what "already mapped" reports, is the earlier owner's to keep.
func TestRefusedMappingLeavesNothingBehind(t *testing.T) {
	const app, va = msg.AppID(1), uint64(0x4000_0000)
	eng := sim.NewEngine()
	mem := physmem.MustNew(1024 * physmem.PageSize)
	fab := interconnect.NewFabric(eng, mem, interconnect.DefaultCosts)
	cpu, err := New(eng, bus.New(eng, bus.DefaultConfig, nil), fab, nil, Config{ID: cpuID, Name: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	dev := iommu.New("dev", mem, iommu.DefaultConfig)
	cpu.AttachDeviceIOMMU(nicID, dev)

	t.Run("domain check refuses", func(t *testing.T) {
		refused := errors.New("foreign isolation domain")
		dev.SetDomainCheck(func(iommu.PASID) error { return refused })
		defer dev.SetDomainCheck(nil)
		free := mem.FreeFramesCount()
		if err := cpu.Misprogram(nicID, app, va, 2*physmem.PageSize); !errors.Is(err, refused) {
			t.Fatalf("Misprogram: %v, want the device's refusal", err)
		}
		if got := mem.FreeFramesCount(); got != free {
			t.Errorf("refused mapping leaked %d frames", free-got)
		}
		if _, _, ok := dev.Lookup(iommu.PASID(app), iommu.VirtAddr(va)); ok {
			t.Error("refused mapping left a page mapped")
		}
	})
	t.Run("second page already mapped", func(t *testing.T) {
		owner, err := mem.AllocFrames(1)
		if err != nil {
			t.Fatal(err)
		}
		second := iommu.VirtAddr(va + physmem.PageSize)
		if err := dev.CreateContext(iommu.PASID(app)); err != nil {
			t.Fatal(err)
		}
		if err := dev.Map(iommu.PASID(app), second, owner, iommu.PermRW); err != nil {
			t.Fatal(err)
		}
		free, mapped := mem.FreeFramesCount(), cpu.Stats().PagesMapped
		if err := cpu.Misprogram(nicID, app, va, 2*physmem.PageSize); err == nil {
			t.Fatal("mapping over an existing page accepted")
		}
		if got := mem.FreeFramesCount(); got != free {
			t.Errorf("refused mapping leaked %d frames", free-got)
		}
		if _, _, ok := dev.Lookup(iommu.PASID(app), iommu.VirtAddr(va)); ok {
			t.Error("the page installed before the refusal is still mapped")
		}
		if f, _, ok := dev.Lookup(iommu.PASID(app), second); !ok || f != owner {
			t.Errorf("rollback took the earlier owner's page (ok=%v frame=%d, want %d)", ok, f, owner)
		}
		if got := cpu.Stats().PagesMapped; got != mapped {
			t.Errorf("PagesMapped went %d -> %d on a refused mapping", mapped, got)
		}
	})
}
