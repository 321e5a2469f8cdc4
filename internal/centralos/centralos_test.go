package centralos

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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
	fab   *interconnect.Fabric
	cpu   *CPU
	ssd   *smartssd.SSD
	nic   *smartnic.NIC
	store *kvs.Store
}

func newCentralbed(t *testing.T, mode kvs.Mode) *centralbed {
	t.Helper()
	return newCentralbedWith(t, mode, Config{})
}

// newCentralbedWith boots the bed with the kernel configured by cfg (its
// ID and name are the bed's).
func newCentralbedWith(t *testing.T, mode kvs.Mode, cfg Config) *centralbed {
	t.Helper()
	cb := &centralbed{eng: sim.NewEngine(), tr: trace.New()}
	tr := cb.tr
	mem := physmem.MustNew(32 * 1024 * physmem.PageSize)
	fab := interconnect.NewFabric(cb.eng, mem, interconnect.DefaultCosts)
	cb.fab = fab
	// No memory controller attaches: the bus is pure transport here.
	cb.bus = bus.New(cb.eng, bus.DefaultConfig, tr)

	cfg.ID, cfg.Name = cpuID, "cpu"
	cpu, err := New(cb.eng, cb.bus, fab, tr, cfg)
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
	cb.settle()
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
	cb.settle()
	if !done {
		t.Fatal("create incomplete")
	}

	cb.store = kvs.New(kvs.Config{
		App: 10, FileName: "kv.dat", Mode: mode, Control: cpuID, QueueEntries: 64,
	})
	var bootErr error
	booted := false
	cb.store.OnReady = func(err error) { bootErr, booted = err, true }
	nic.AddApp(cb.store)
	cb.settle()
	if !booted || bootErr != nil {
		t.Fatalf("boot (mode %d): booted=%v err=%v\ntrace:\n%s", mode, booted, bootErr, tr.String())
	}
	return cb
}

// settle runs the bed until it quiesces or, while the kernel heartbeats,
// for 10ms (booting takes about 1.1ms).
func (cb *centralbed) settle() {
	if cb.cpu.cfg.HeartbeatEvery > 0 {
		cb.eng.RunFor(10 * sim.Millisecond)
		return
	}
	cb.eng.Run()
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

// mediatedHandles lists the kernel's live mediated handles: the sessions
// whose queue the kernel owns and has connected.
func mediatedHandles(c *CPU) []uint32 {
	var hs []uint32
	for _, o := range c.sessions.All() {
		if o.kf != nil && o.verdict != nil {
			hs = append(hs, o.ID)
		}
	}
	return hs
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
	st2 := kvs.New(kvs.Config{App: 11, FileName: "nope.dat", Mode: kvs.ModeCentralDirect, Control: cpuID})
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
	// A byte-identical second munmap is a retransmission: it replays the
	// first answer and frees nothing.
	first, frames := *free, cb.cpu.mem.FreeFramesCount()
	free = nil
	nicDev.Send(cpuID, &msg.FreeReq{App: 50, VA: 0x4000_0000})
	cb.eng.Run()
	if free == nil || *free != first {
		t.Fatalf("retransmitted munmap: %+v, want the first answer %+v", free, first)
	}
	if got := cb.cpu.mem.FreeFramesCount(); got != frames {
		t.Errorf("retransmitted munmap moved the free frame count %d -> %d", frames, got)
	}
	// A later munmap naming another size is a distinct double free.
	free = nil
	nicDev.Send(cpuID, &msg.FreeReq{App: 50, VA: 0x4000_0000, Bytes: 3 * physmem.PageSize})
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

// A retransmitted mmap or munmap (the first answer was lost) replays
// the first answer, as the decentralized machine's controller does: the
// same frames, not mapped again; the same Bytes, nothing freed again.
func TestKernelMmapRetransmissionReplays(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	nicDev := cb.nic.Device()
	var alloc *msg.AllocResp
	var free *msg.FreeResp
	nicDev.Handle(msg.KindAllocResp, func(e msg.Envelope) { alloc = e.Msg.(*msg.AllocResp) })
	nicDev.Handle(msg.KindFreeResp, func(e msg.Envelope) { free = e.Msg.(*msg.FreeResp) })
	send := func(m msg.Message) {
		alloc, free = nil, nil
		nicDev.Send(cpuID, m)
		cb.eng.Run()
	}
	req := &msg.AllocReq{App: 50, VA: 0x4000_0000, Bytes: 3 * physmem.PageSize}
	send(req)
	if alloc == nil || !alloc.OK {
		t.Fatalf("mmap: %+v", alloc)
	}
	first := alloc.Frames
	frames, mapped := cb.cpu.mem.FreeFramesCount(), cb.cpu.Stats().PagesMapped
	send(req)
	if alloc == nil || !alloc.OK || !slices.Equal(alloc.Frames, first) {
		t.Fatalf("retransmitted mmap: %+v, want OK with frames %v", alloc, first)
	}
	if got := cb.cpu.mem.FreeFramesCount(); got != frames {
		t.Errorf("retransmitted mmap moved the free frame count %d -> %d", frames, got)
	}
	if got := cb.cpu.Stats().PagesMapped; got != mapped {
		t.Errorf("retransmitted mmap mapped again: PagesMapped %d -> %d", mapped, got)
	}

	unmap := &msg.FreeReq{App: 50, VA: 0x4000_0000, Bytes: 3 * physmem.PageSize}
	send(unmap)
	if free == nil || !free.OK || free.Bytes != 3*physmem.PageSize {
		t.Fatalf("munmap: %+v", free)
	}
	frames = cb.cpu.mem.FreeFramesCount()
	send(unmap)
	if free == nil || !free.OK || free.Bytes != 3*physmem.PageSize {
		t.Fatalf("retransmitted munmap: %+v, want OK with Bytes %d", free, 3*physmem.PageSize)
	}
	if got := cb.cpu.mem.FreeFramesCount(); got != frames {
		t.Errorf("retransmitted munmap moved the free frame count %d -> %d", frames, got)
	}
}

// Two identical munmaps admitted together, queued behind four busy kernel
// cores, free the region once: the second finds it gone and replays. The
// test takes every free frame the moment the first has run, so a second
// free of the region's frames would give back frames the test now holds.
func TestDuplicateMunmapFreesOnce(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralDirect)
	nicDev := cb.nic.Device()
	var frees []*msg.FreeResp
	nicDev.Handle(msg.KindAllocResp, func(msg.Envelope) {})
	nicDev.Handle(msg.KindFreeResp, func(e msg.Envelope) { frees = append(frees, e.Msg.(*msg.FreeResp)) })
	const va, bytes = uint64(0x4000_0000), 64 * physmem.PageSize
	nicDev.Send(cpuID, &msg.AllocReq{App: 50, VA: va, Bytes: bytes})
	cb.eng.Run()
	if _, _, ok := nicDev.IOMMU().Lookup(50, iommu.VirtAddr(va)); !ok {
		t.Fatal("mmap did not take effect")
	}
	admit := func(n int) {
		for cb.cpu.cores.Pending() < n && cb.eng.Step() {
		}
		if got := cb.cpu.cores.Pending(); got != n {
			t.Fatalf("%d syscalls admitted, want %d", got, n)
		}
	}
	for i := uint64(1); i <= 4; i++ {
		nicDev.Send(cpuID, &msg.AllocReq{App: 50, VA: va + i*0x100_0000, Bytes: bytes})
	}
	admit(4)
	for i := 0; i < 2; i++ {
		nicDev.Send(cpuID, &msg.FreeReq{App: 50, VA: va, Bytes: bytes})
	}
	admit(6)
	// Run to the first munmap: the step after which the region is unmapped.
	for {
		if _, _, ok := nicDev.IOMMU().Lookup(50, iommu.VirtAddr(va)); !ok {
			break
		}
		if !cb.eng.Step() {
			t.Fatal("the region was never unmapped")
		}
	}
	var held int
	for ; ; held++ {
		if _, err := cb.cpu.mem.AllocFrames(1); err != nil {
			break
		}
	}
	before := cb.cpu.mem.FreeFramesCount()
	cb.eng.Run()
	if len(frees) != 2 || !frees[0].OK || *frees[1] != *frees[0] {
		t.Fatalf("munmaps answered %v, want two identical OKs", frees)
	}
	if after := cb.cpu.mem.FreeFramesCount(); after != before {
		t.Errorf("after the first munmap freed the region, %d frames went back (free count %d -> %d, %d held by the test)",
			after-before, before, after, held)
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
	// The store reopens its file after the reboot, so the new table holds
	// that queue region; it must hold nothing at the stale mmap's address.
	if n := cb.cpu.regions.Frames(60, 0x5000_0000); n != 0 {
		t.Errorf("the rebooted kernel's region table holds the stale mmap's %d frames", n)
	}
}

// A mediated I/O the kernel held when it rebooted is no longer outstanding.
// Its next stage does nothing after the reboot, and a request stranded in
// a quiesced queue never completes, so only the reboot can give its slot
// of the backlog bound back.
func TestRebootForgetsMediatedIOs(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	cb.cpu.cfg.ResetDelay = 1 * sim.Microsecond
	h := mediatedHandles(cb.cpu)[0]
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
	const every = 10 * sim.Microsecond
	cb := newCentralbedWith(t, kvs.ModeCentralDirect, Config{HeartbeatEvery: every, ResetDelay: 50 * sim.Microsecond})
	// The kernel has beaten every 10us since it started at time 0. Fail it
	// 1ns before the next beat, so that beat leaves before the Reset lands.
	cb.eng.RunFor(every - 1 - sim.Duration(cb.eng.Now())%every)
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

// TestKernelClose covers both forms of the close syscall. Either way the
// kernel closes its own session at the provider, under the provider's
// ConnID, and the app's close never reaches the provider; the app is
// answered either way.
func TestKernelClose(t *testing.T) {
	closes := func(cb *centralbed, src string) (n int) {
		for _, ev := range cb.tr.Filter("close.req") {
			if ev.Src == src && ev.Dst == "ssd" {
				n++
			}
		}
		return n
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
		// An open the SSD refuses takes a kernel ID and no SSD one, so the
		// next session's two IDs differ.
		cb.cpu.RegisterFile("ghost.dat", ssdID)
		app := &fileApp{}
		cb.nic.AddApp(app)
		cb.eng.Run()
		app.rt.OpenFile(smartnic.KernelMediated, cpuID, "ghost.dat", 0, 16, func(smartnic.FileAPI, error) {})
		cb.eng.Run()
		app.rt.OpenFile(smartnic.KernelMediated, cpuID, "kv.dat", 0, 16, func(smartnic.FileAPI, error) {})
		cb.eng.Run()
		all := cb.cpu.sessions.All()
		o := all[len(all)-1]
		if o.App != app.AppID() || o.ID == o.conn {
			t.Fatalf("session %d (app %d) is the SSD's %d", o.ID, o.App, o.conn)
		}
		closeConn(t, cb, &msg.CloseReq{Service: "mediated:kv.dat", ConnID: o.ID, App: o.App})
		if _, refusal := cb.cpu.sessions.Opened(nicID, o.App, o.ID); refusal == "" {
			t.Error("mediated handle survives its close")
		}
		if n := closes(cb, "cpu"); n != 1 {
			t.Errorf("the kernel sent the SSD %d closes, want 1", n)
		}
		if n := closes(cb, "nic"); n != 0 {
			t.Errorf("the app's close reached the SSD %d times", n)
		}
		// Only a close under the SSD's ConnID ends its session there.
		freeBell(t, cb.fab, o.kf.drv.RespBell+1, "the SSD's request doorbell")
	})
	t.Run("direct connection", func(t *testing.T) {
		cb := newCentralbed(t, kvs.ModeCentralDirect)
		closeConn(t, cb, &msg.CloseReq{Service: "file:kv.dat", ConnID: 1, App: 10})
		if closes(cb, "cpu") != 1 || closes(cb, "nic") != 0 {
			t.Error("a direct connection's close did not go to its provider through the kernel alone")
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
			Mode: kvs.ModeCentralDirect, Control: cpuID, QueueEntries: 16,
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

// The kernel's close keeps the table's rules: an ID nobody opened is
// refused, only the opener closes, and the closer's repeated close is
// acknowledged again, to nobody else.
func TestKernelCloseRules(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	nicDev := cb.nic.Device()
	var resp *msg.CloseResp
	nicDev.Handle(msg.KindCloseResp, func(e msg.Envelope) { resp = e.Msg.(*msg.CloseResp) })
	closeAs := func(app msg.AppID, id uint32) *msg.CloseResp {
		resp = nil
		nicDev.Send(cpuID, &msg.CloseReq{Service: "mediated:kv.dat", ConnID: id, App: app})
		cb.eng.Run()
		return resp
	}
	h := mediatedHandles(cb.cpu)[0]
	for _, tc := range []struct {
		what string
		app  msg.AppID
		id   uint32
		ok   bool
	}{
		{"an ID nobody opened", 10, 777, false},
		{"another app's handle", 11, h, false},
		{"the opener's handle", 10, h, true},
		{"the opener's handle again", 10, h, true},
		{"the closed handle by another app", 11, h, false},
	} {
		if r := closeAs(tc.app, tc.id); r == nil || r.OK != tc.ok || r.ConnID != tc.id {
			t.Errorf("close of %s answered %+v, want OK %v", tc.what, r, tc.ok)
		}
	}
}

// fileApp is a bare NIC app whose runtime the test drives.
type fileApp struct{ rt *smartnic.Runtime }

func (a *fileApp) AppID() msg.AppID                  { return 50 }
func (a *fileApp) Boot(rt *smartnic.Runtime)         { a.rt = rt }
func (a *fileApp) ServeNetwork([]byte, func([]byte)) {}
func (a *fileApp) PeerFailed(msg.DeviceID)           {}

// fileStep is a FileCompletion that keeps what it was given.
type fileStep struct {
	calls int
	err   error
	size  uint64
	data  []byte
}

func (st *fileStep) FileDone(op *smartnic.FileOp, err error) {
	st.calls++
	st.err, st.size, st.data = err, op.Size, op.Data
}

// fileOp issues one request through issue and runs the bed; the request
// must complete once, without error.
func (cb *centralbed) fileOp(t *testing.T, what string, issue func(*smartnic.FileOp, smartnic.FileCompletion)) *fileStep {
	t.Helper()
	st := &fileStep{}
	issue(new(smartnic.FileOp), st)
	cb.eng.Run()
	if st.calls != 1 || st.err != nil {
		t.Fatalf("%s: %d completions, err %v", what, st.calls, st.err)
	}
	return st
}

// Both kernel placements run one record sequence over the one open: stat,
// write, read back, truncate, stat again, close. The close ends the
// session: the app's next open gets a fresh one, and it serves.
func TestKernelReopenAfterClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode kvs.Mode
	}{{"direct", kvs.ModeCentralDirect}, {"mediated", kvs.ModeCentralMediated}} {
		t.Run(tc.name, func(t *testing.T) {
			cb := newCentralbed(t, tc.mode)
			created := false
			cb.ssd.FS().Create("probe.dat", func(_ *smartssd.File, err error) { created = err == nil })
			cb.eng.Run()
			if !created {
				t.Fatal("create probe.dat failed")
			}
			cb.cpu.RegisterFile("probe.dat", ssdID)
			app := &fileApp{}
			cb.nic.AddApp(app)
			open := func() (smartnic.FileAPI, uint32) {
				var f smartnic.FileAPI
				var err error
				app.rt.OpenFile(tc.mode, cpuID, "probe.dat", 0, 16, func(fa smartnic.FileAPI, e error) { f, err = fa, e })
				cb.eng.Run()
				if err != nil || f == nil {
					t.Fatalf("open: %v", err)
				}
				all := cb.cpu.sessions.All()
				return f, all[len(all)-1].ID
			}
			writeRead := func(f smartnic.FileAPI, data string) {
				t.Helper()
				cb.fileOp(t, "write", func(op *smartnic.FileOp, done smartnic.FileCompletion) {
					copy(op.Payload(len(data)), data)
					f.WriteOp(op, 0, done)
				})
				got := cb.fileOp(t, "read", func(op *smartnic.FileOp, done smartnic.FileCompletion) {
					f.ReadOp(op, 0, len(data), done)
				}).data
				if string(got) != data {
					t.Errorf("read back %q, want %q", got, data)
				}
			}
			f, first := open()
			if size := cb.fileOp(t, "stat", f.StatOp).size; size != 0 {
				t.Errorf("a new file's stat = %d", size)
			}
			writeRead(f, "first")
			cb.fileOp(t, "truncate", f.TruncateOp)
			if size := cb.fileOp(t, "stat after truncate", f.StatOp).size; size != 0 {
				t.Errorf("stat after truncate = %d, want 0", size)
			}
			closed := false
			f.Close(func(err error) {
				if err != nil {
					t.Errorf("close: %v", err)
				}
				closed = true
			})
			cb.eng.Run()
			if !closed {
				t.Fatal("close did not complete")
			}
			f, second := open()
			if second == first {
				t.Fatalf("the reopen got closed session %d back", first)
			}
			writeRead(f, "fresh")
		})
	}
}

// freeBell fails the test unless bell can be registered again: nothing
// that an ended session built still answers it.
func freeBell(t *testing.T, fab *interconnect.Fabric, bell interconnect.DoorbellAddr, what string) {
	t.Helper()
	defer func() {
		if recover() != nil {
			t.Errorf("%s (doorbell %d) is still registered", what, bell)
		}
	}()
	fab.RegisterDoorbell(bell, func(uint64) {})
	fab.UnregisterDoorbell(bell)
}

// openClose runs one open-close cycle of app at placement p and returns
// the response doorbell of the queue's driver: the app's, or the kernel's
// for a mediated open.
func (cb *centralbed) openClose(t *testing.T, app *fileApp, p smartnic.Placement) interconnect.DoorbellAddr {
	t.Helper()
	var f smartnic.FileAPI
	app.rt.OpenFile(p, cpuID, "kv.dat", 0, 16, func(fa smartnic.FileAPI, err error) {
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		f = fa
	})
	cb.eng.Run()
	var bell interconnect.DoorbellAddr
	if fc, ok := f.(*smartnic.FileClient); ok {
		bell = fc.Conn.Queue.RespBell
	} else {
		all := cb.cpu.sessions.All()
		bell = all[len(all)-1].kf.drv.RespBell
	}
	closed := false
	f.Close(func(err error) {
		if err != nil {
			t.Errorf("close: %v", err)
		}
		closed = true
	})
	cb.eng.Run()
	if !closed {
		t.Fatal("close did not complete")
	}
	return bell
}

// A close gives back what its open took, on both kernel placements: after
// a first cycle, which builds the app's translation contexts (they outlive
// a close), three open-close cycles leave physical memory where it was,
// and every cycle leaves the queue's driver and SSD doorbells free. The SSD
// allocates its request doorbell right after the driver's response doorbell.
func TestKernelCloseGivesBackWhatOpenTook(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    smartnic.Placement
	}{{"direct", smartnic.KernelDirect}, {"mediated", smartnic.KernelMediated}} {
		p := tc.p
		t.Run(tc.name, func(t *testing.T) {
			cb := newCentralbed(t, kvs.ModeCentralDirect)
			app := &fileApp{}
			cb.nic.AddApp(app)
			cb.eng.Run()
			var allocated uint64
			for cycle := 0; cycle <= 3; cycle++ {
				bell := cb.openClose(t, app, p)
				if got := cb.fab.Memory().AllocatedBytes(); cycle == 0 {
					allocated = got
				} else if got != allocated {
					t.Errorf("cycle %d: %d bytes allocated after the close, want %d", cycle, got, allocated)
				}
				freeBell(t, cb.fab, bell, "the driver's response doorbell")
				freeBell(t, cb.fab, bell+1, "the SSD's request doorbell")
			}
		})
	}
}

// A mediated open refused after its map stage gives back what the stage
// took: the SSD refuses the kernel's connect, and the queue region and the
// kernel driver's doorbell go back. A first cycle builds the app's
// translation contexts.
func TestRefusedMediatedOpenGivesBackItsQueue(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	app := &fileApp{}
	cb.nic.AddApp(app)
	cb.eng.Run()
	cb.openClose(t, app, smartnic.KernelMediated)
	allocated := cb.fab.Memory().AllocatedBytes()
	var openErr error
	app.rt.OpenFile(smartnic.KernelMediated, cpuID, "kv.dat", 0, 16, func(_ smartnic.FileAPI, err error) { openErr = err })
	// Step to the kernel's ConnectReq, then answer it first.
	var o *session
	for o == nil && cb.eng.Step() {
		for _, s := range cb.cpu.sessions.All() {
			if _, connecting := s.asked.(*msg.ConnectReq); connecting && s.App == app.AppID() {
				o = s
			}
		}
	}
	if o == nil {
		t.Fatal("the open never reached its connect")
	}
	cb.ssd.Device().Send(cpuID, &msg.ConnectResp{ConnID: o.conn, Reason: "refused"})
	cb.eng.Run()
	if openErr == nil || !strings.Contains(openErr.Error(), "refused") {
		t.Fatalf("open answered %v, want the refusal", openErr)
	}
	if got := cb.fab.Memory().AllocatedBytes(); got != allocated {
		t.Errorf("%d bytes allocated after the refusal, want %d", got, allocated)
	}
	freeBell(t, cb.fab, o.kf.drv.RespBell, "the kernel driver's response doorbell")
}

// A mediated close with an I/O still in the kernel's queue fails that I/O
// and gives its backlog slot back: the app's op completes once, with an
// error, and the kernel holds no I/O outstanding.
func TestMediatedCloseFailsQueuedIO(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	app := &fileApp{}
	cb.nic.AddApp(app)
	cb.eng.Run()
	var f smartnic.FileAPI
	app.rt.OpenFile(smartnic.KernelMediated, cpuID, "kv.dat", 0, 16, func(fa smartnic.FileAPI, _ error) { f = fa })
	cb.eng.Run()
	st, op := &fileStep{}, new(smartnic.FileOp)
	copy(op.Payload(4), "data")
	f.WriteOp(op, 0, st)
	for cb.cpu.ioOutstanding == 0 && cb.eng.Step() {
	}
	f.Close(func(error) {})
	cb.eng.Run()
	if st.calls != 1 || st.err == nil {
		t.Errorf("the queued write completed %d times, err %v; want once, failed", st.calls, st.err)
	}
	if cb.cpu.ioOutstanding != 0 {
		t.Errorf("%d mediated I/Os outstanding after the close", cb.cpu.ioOutstanding)
	}
}

// A mediated handle is its opener's: a FileIOReq from another NIC that
// names app 10's handle under app 10's ID is refused and reads nothing.
func TestMediatedHandleRefusesAnotherNIC(t *testing.T) {
	cb := newCentralbed(t, kvs.ModeCentralMediated)
	if r := cb.op(t, kvs.Request{Op: kvs.OpPut, Key: "secret", Value: []byte("hunter2")}); r.Status != kvs.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	nic2, err := smartnic.New(cb.eng, cb.bus, cb.fab, cb.tr, smartnic.Config{Device: device.Config{ID: nicID + 1, Name: "nic2"}})
	if err != nil {
		t.Fatal(err)
	}
	nic2.Start()
	cb.eng.Run()
	var resp *msg.FileIOResp
	nic2.Device().Handle(msg.KindFileIOResp, func(e msg.Envelope) { resp = e.Msg.(*msg.FileIOResp) })
	nic2.Device().Send(cpuID, &msg.FileIOReq{App: 10, Handle: mediatedHandles(cb.cpu)[0], Seq: 1, Op: uint8(smartssd.OpRead), Len: 4096})
	cb.eng.Run()
	if resp == nil || smartssd.Status(resp.Status) != smartssd.StatusBadRequest || len(resp.Data) != 0 {
		t.Fatalf("another NIC's read of app 10's handle answered %+v, want StatusBadRequest and no data", resp)
	}
}
