// Package centralos is the comparison baseline: the same machine, but
// with a general-purpose CPU running a kernel as the centralized control
// plane — the Omni-X / M3X / IX configuration the paper positions itself
// against, and the "traditional stack" beyond that.
//
// The CPU attaches to the same transport and devices as the decentralized
// machine. Differences:
//
//   - There is no memory-controller device and the bus performs no
//     privileged work: the kernel holds direct handles to every device
//     IOMMU (as a kernel does, via MMIO) and programs them itself.
//   - Applications make syscalls (messages to the CPU) for every control
//     operation: open, mmap+grant (folded into open), connect, close.
//     Each syscall costs a trap + dispatch and occupies a CPU core.
//   - Service discovery is a kernel registry lookup — centralized state
//     instead of broadcast.
//
// Two data-path modes are supported:
//
//   - Direct (Omni-X style): after setup, the app's virtqueue runs
//     peer-to-peer; only the control plane is centralized.
//   - Mediated (traditional stack): the kernel owns the device queue and
//     every file I/O is a FileIOReq syscall, paying trap, kernel work,
//     copy, and completion-interrupt costs.
package centralos

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"nocpu/internal/bus"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/smartssd"
	"nocpu/internal/trace"
	"nocpu/internal/virtio"
)

// Config tunes the CPU and kernel cost model.
type Config struct {
	ID    msg.DeviceID
	Name  string
	Cores int
	// SyscallCost is trap + kernel entry/exit + dispatch.
	SyscallCost sim.Duration
	// RegistryCost is a kernel name-table lookup.
	RegistryCost sim.Duration
	// MmapPerPage is kernel frame allocation + one IOMMU PTE store.
	MmapPerPage sim.Duration
	// InterruptCost is a device-completion interrupt (kernel-mediated
	// I/O pays one per completion).
	InterruptCost sim.Duration
	// CopyBytesPerNs is kernel memcpy bandwidth for mediated I/O.
	CopyBytesPerNs float64
	// QueueEntries sizes the kernel's own device queues.
	QueueEntries uint16
	IOMMU        iommu.Config
	// HeartbeatEvery makes the kernel heartbeat on the management
	// transport, so a bus watchdog can detect a kernel panic. 0 (the
	// default) sends none — required for machines without a watchdog.
	HeartbeatEvery sim.Duration
	// ResetDelay is the kernel reboot time after a bus Reset (the
	// baseline's recovery path). 0 disables recovery: a Reset is ignored.
	ResetDelay sim.Duration
	// IOBacklogBound caps mediated file I/Os in flight inside the kernel
	// (admitted by sysFileIO but not yet completed). At the bound new
	// I/Os are rejected with StatusBusy instead of queueing without
	// limit on the syscall cores. 0 = unbounded, the legacy behavior.
	IOBacklogBound int
}

// DefaultConfig models a competent kernel on a server CPU.
var DefaultConfig = Config{
	Cores:          4,
	SyscallCost:    1500 * sim.Nanosecond,
	RegistryCost:   300 * sim.Nanosecond,
	MmapPerPage:    250 * sim.Nanosecond,
	InterruptCost:  1000 * sim.Nanosecond,
	CopyBytesPerNs: 8,
	QueueEntries:   128,
}

// Stats counts kernel activity.
type Stats struct {
	Syscalls    uint64
	MediatedIOs uint64
	Interrupts  uint64
	PagesMapped uint64
	BytesCopied uint64
	Reboots     uint64
	// IOShed counts mediated I/Os refused with StatusBusy at the
	// IOBacklogBound.
	IOShed uint64
}

// CPU is the kernel device.
type CPU struct {
	eng  *sim.Engine
	cfg  Config
	tr   *trace.Tracer
	port *bus.Port
	dma  *interconnect.Port
	mmu  *iommu.IOMMU
	mem  *physmem.Memory

	cores *sim.Pool

	// iommus are the kernel's direct MMIO handles to device IOMMUs.
	iommus map[msg.DeviceID]*iommu.IOMMU
	// registry maps file names to the storage device holding them (the
	// kernel's mount table).
	registry map[string]msg.DeviceID

	// appVA is the kernel's per-app mmap pointer.
	appVA map[msg.AppID]uint64

	// Syscalls waiting on a provider's OpenResp or ConnectResp.
	pendingOpen    map[openKey]*syscall
	pendingConnect map[uint32]*syscall
	kernelConns    map[uint32]*kernelFile // mediated handles
	nextHandle     uint32

	// ioOutstanding counts mediated I/Os admitted by sysFileIO and not
	// yet completed; ioG tracks it against IOBacklogBound (Q1 audit).
	ioOutstanding int
	ioG           *metrics.Gauge

	// completedOpens is the kernel's at-most-once cache for the open
	// syscall: a retransmitted OpenReq (lost response) replays the recorded
	// verdict instead of re-running mmap/grant and leaking a second region.
	// The verdict keeps the origin NIC so the kernel can push ErrorNotify
	// to affected apps when the backing device dies.
	completedOpens map[openKey]*openVerdict

	hello, hb  sim.Timer // the next Hello and heartbeat; Kill stops both
	boot       sim.Timer // the reboot after a bus Reset
	helloTries int
	hbSeq      uint64
	alive      bool

	// mmaps is the kernel's per-app region table for the explicit
	// mmap/munmap syscalls (AllocReq/FreeReq addressed to the CPU).
	mmaps map[mmapKey]mmapRec

	stats Stats
}

type openKey struct {
	app     msg.AppID
	service string
}

func (k openKey) compare(o openKey) int {
	return cmp.Or(cmp.Compare(k.app, o.app), strings.Compare(k.service, o.service))
}

// openVerdict is a completed open: the cached response plus the NIC it
// was delivered to.
type openVerdict struct {
	resp   *msg.OpenResp
	origin msg.DeviceID
}

// kernelFile is the kernel's own connection to a device file (mediated
// mode): the queue's driver half lives on the CPU.
type kernelFile struct {
	handle uint32
	app    msg.AppID
	dev    msg.DeviceID // the device serving the queue
	drv    *virtio.Driver
	// At-most-once execution for mediated I/O (§4): completed caches
	// recent responses by syscall seq so a retransmitted FileIOReq replays
	// the result instead of re-applying the write; inflight suppresses
	// duplicates of a request still in the device queue.
	completed map[uint32]*msg.FileIOResp
	inflight  map[uint32]bool
}

// ioWindow bounds the completed-response cache per handle; app seqs are
// monotonic, so anything this far behind can no longer be retransmitted.
const ioWindow = 256

// New builds the CPU and attaches it to the bus and fabric.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*CPU, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = DefaultConfig.Cores
	}
	if cfg.SyscallCost == 0 {
		cfg.SyscallCost = DefaultConfig.SyscallCost
	}
	if cfg.RegistryCost == 0 {
		cfg.RegistryCost = DefaultConfig.RegistryCost
	}
	if cfg.MmapPerPage == 0 {
		cfg.MmapPerPage = DefaultConfig.MmapPerPage
	}
	if cfg.InterruptCost == 0 {
		cfg.InterruptCost = DefaultConfig.InterruptCost
	}
	if cfg.CopyBytesPerNs == 0 {
		cfg.CopyBytesPerNs = DefaultConfig.CopyBytesPerNs
	}
	if cfg.QueueEntries == 0 {
		cfg.QueueEntries = DefaultConfig.QueueEntries
	}
	c := &CPU{
		eng:            eng,
		cfg:            cfg,
		tr:             tr,
		mem:            fab.Memory(),
		mmu:            iommu.New(cfg.Name, fab.Memory(), cfg.IOMMU),
		cores:          sim.NewPool(eng, cfg.Cores),
		iommus:         make(map[msg.DeviceID]*iommu.IOMMU),
		registry:       make(map[string]msg.DeviceID),
		appVA:          make(map[msg.AppID]uint64),
		pendingOpen:    make(map[openKey]*syscall),
		pendingConnect: make(map[uint32]*syscall),
		kernelConns:    make(map[uint32]*kernelFile),
		mmaps:          make(map[mmapKey]mmapRec),
		completedOpens: make(map[openKey]*openVerdict),
		ioG:            metrics.NewGauge(cfg.IOBacklogBound),
	}
	c.dma = fab.NewPort(cfg.Name, c.mmu)
	port, err := b.Attach(cfg.ID, cfg.Name, msg.RoleAccelerator, c.mmu, c.receive)
	if err != nil {
		return nil, err
	}
	c.port = port
	return c, nil
}

// Start boots the kernel (announces the CPU on the transport). The Hello
// retransmits with backoff until the bus acknowledges it (§4: enrollment
// must survive a lossy bus); the timer never fires in a fault-free run.
func (c *CPU) Start() {
	c.alive = true
	c.helloTries = 0
	c.sendHello()
	c.scheduleHeartbeat()
}

const (
	helloRetryBase = 2 * sim.Millisecond
	helloRetryMax  = 5
)

func (c *CPU) sendHello() {
	c.port.Send(msg.BusID, &msg.Hello{Role: msg.RoleAccelerator, Name: c.cfg.Name, Incarnation: c.port.Incarnation()})
	if c.helloTries >= helloRetryMax {
		c.tr.Record(c.eng.Now(), c.cfg.Name, "", "hello-abandoned", fmt.Sprintf("after %d attempts", c.helloTries+1))
		return
	}
	delay := helloRetryBase << uint(c.helloTries)
	c.helloTries++
	c.hello.Arm(c.eng, delay, (*helloRetry)(c))
}

// helloRetry, heartbeat and reboot are the kernel as an event: pointer
// conversions, so arming them allocates nothing.
type helloRetry CPU

func (e *helloRetry) Fire() { (*CPU)(e).sendHello() }

// Stats returns a copy of the counters.
func (c *CPU) Stats() Stats { return c.stats }

// IOGauge exposes mediated-I/O backlog depth vs IOBacklogBound
// (overload Q1 audit).
func (c *CPU) IOGauge() *metrics.Gauge { return c.ioG }

// Alive reports whether the kernel is running.
func (c *CPU) Alive() bool { return c.alive }

// scheduleHeartbeat arms the kernel's liveness beacon when configured.
func (c *CPU) scheduleHeartbeat() {
	if c.cfg.HeartbeatEvery <= 0 {
		return
	}
	c.hb.Arm(c.eng, c.cfg.HeartbeatEvery, (*heartbeat)(c))
}

type heartbeat CPU

func (e *heartbeat) Fire() {
	c := (*CPU)(e)
	if !c.alive {
		return
	}
	c.hbSeq++
	c.port.Send(msg.BusID, &msg.Heartbeat{Seq: c.hbSeq})
	c.scheduleHeartbeat()
}

// Kill simulates a kernel panic (fault injection): the CPU stops
// answering syscalls and heartbeats until the bus watchdog resets it.
func (c *CPU) Kill() {
	c.alive = false
	c.hello.Stop()
	c.hb.Stop()
}

// onBusReset runs the baseline's recovery: after ResetDelay the kernel
// reboots with a new incarnation. ResetDelay 0 means no recovery path (the
// pre-crash-work machines). A second Reset before the reboot (the bus
// resends one for each heartbeat it gets from a device it failed) joins the
// reboot already coming, as a device mid-reset ignores one.
func (c *CPU) onBusReset(m *msg.Reset) {
	if c.cfg.ResetDelay <= 0 || c.boot.Pending() {
		return
	}
	c.Kill()
	c.boot.Arm(c.eng, c.cfg.ResetDelay, (*reboot)(c))
}

// reboot is the kernel's crash-recovery path — and the baseline's
// structural weakness the paper argues against (§2.3: the kernel is a
// single point of failure). Everything the kernel held in RAM is gone:
// syscall continuations, mediated queues, the at-most-once open cache,
// the per-app region and mmap tables. Reinitializing the translation
// units it drives (as a booting kernel must) tears down every live
// context, so even direct-mode data planes that never touched the CPU die
// with it and every application reconnects from scratch. Contrast with
// the decentralized machine, where a device crash is contained to that
// device's resources. Physical frames reachable only through the lost
// tables leak until a full power cycle; the reproduction accepts that
// (bounded by crashes per run) rather than pretending the kernel can
// recover state it no longer has. A syscall the dead incarnation admitted
// does nothing when its next stage comes up (syscall.Fire), so the mediated
// I/Os it held are no longer outstanding.
type reboot CPU

func (e *reboot) Fire() {
	c := (*CPU)(e)
	c.port.NewIncarnation()
	for _, id := range sortedKeys(c.iommus, cmp.Compare[msg.DeviceID]) {
		flushContexts(c.iommus[id])
	}
	flushContexts(c.mmu)
	for _, h := range sortedKeys(c.kernelConns, cmp.Compare[uint32]) {
		c.kernelConns[h].drv.Quiesce()
	}
	c.kernelConns = make(map[uint32]*kernelFile)
	c.pendingOpen = make(map[openKey]*syscall)
	c.pendingConnect = make(map[uint32]*syscall)
	c.completedOpens = make(map[openKey]*openVerdict)
	c.mmaps = make(map[mmapKey]mmapRec)
	c.appVA = make(map[msg.AppID]uint64)
	c.ioOutstanding = 0
	c.ioG.Set(0)
	c.stats.Reboots++
	c.tr.Record(c.eng.Now(), c.cfg.Name, "", "kernel.reboot", fmt.Sprintf("inc=%d", c.port.Incarnation()))
	c.Start()
}

// flushContexts destroys every live PASID context on one unit.
func flushContexts(u *iommu.IOMMU) {
	for _, p := range u.PASIDs() {
		_ = u.DestroyContext(p)
	}
}

// sortedKeys returns m's keys in the order compare gives, for the loops
// whose effects must not follow map order.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, compare)
	return ks
}

// AttachDeviceIOMMU gives the kernel its MMIO handle to a device's
// translation unit.
func (c *CPU) AttachDeviceIOMMU(id msg.DeviceID, mmu *iommu.IOMMU) {
	c.iommus[id] = mmu
}

// Misprogram models a compromised (or merely buggy) kernel: it maps the
// app's pages straight into the named device's translation unit, no
// authorization asked. In the centralized architecture the kernel IS
// the authorization, so nothing stands in the way; on a machine whose
// devices carry per-device isolation domains (core.Options.Tenancy),
// the device's own IOMMU refuses the foreign context and the returned
// error is the typed refusal. E20's compromised-kernel cell measures
// exactly this difference in blast radius.
func (c *CPU) Misprogram(dev msg.DeviceID, app msg.AppID, va, bytes uint64) error {
	mmu, ok := c.iommus[dev]
	if !ok {
		return fmt.Errorf("centralos: no iommu handle for device %d", dev)
	}
	_, err := c.mapRegion(app, va, bytes, mmu)
	return err
}

// RegisterFile mounts a file into the kernel's registry.
func (c *CPU) RegisterFile(name string, dev msg.DeviceID) {
	c.registry[name] = dev
}

// receive handles all traffic addressed to the CPU.
func (c *CPU) receive(env msg.Envelope) {
	if r, ok := env.Msg.(*msg.Reset); ok {
		// A Reset reaches even a dead CPU (the bus lets it through so the
		// watchdog can revive what it failed).
		c.onBusReset(r)
		return
	}
	if !c.alive {
		// A panicked kernel answers nothing; requesters retry until the
		// reboot completes.
		return
	}
	switch m := env.Msg.(type) {
	case *msg.OpenReq:
		c.stats.Syscalls++
		c.trap(env.Src, m, c.cfg.SyscallCost+c.cfg.RegistryCost)
	case *msg.OpenResp:
		c.onDeviceOpenResp(env.Src, m)
	case *msg.ConnectReq, *msg.CloseReq:
		c.stats.Syscalls++
		c.trap(env.Src, m, c.cfg.SyscallCost)
	case *msg.ConnectResp:
		if s, ok := c.pendingConnect[m.ConnID]; ok {
			delete(c.pendingConnect, m.ConnID)
			c.connected(s, m)
		}
	case *msg.FileIOReq:
		c.sysFileIO(env.Src, m)
	case *msg.AllocReq:
		c.sysMmap(env.Src, m)
	case *msg.FreeReq:
		c.sysMunmap(env.Src, m)
	case *msg.HelloAck:
		c.hello.Stop()
	case *msg.DeviceFailed:
		c.onPeerFailed(m.Device)
	case *msg.CreditUpdate:
		// Flow-control replenishment: pure port plumbing.
		c.port.AddCredits(m.Credits, m.ForInc)
	}
}

// onPeerFailed purges kernel state involving a dead device. Open flows
// waiting on it are dropped (the app's call retransmits them after the
// device recovers); mediated queues into it are quiesced, and the
// at-most-once open cache forgets verdicts that named it so a post-reset
// reopen re-runs the real work instead of replaying a dead connection.
func (c *CPU) onPeerFailed(dev msg.DeviceID) {
	for k, s := range c.pendingOpen {
		if s.src == dev {
			delete(c.pendingOpen, k)
		}
	}
	for _, k := range sortedKeys(c.completedOpens, openKey.compare) {
		v := c.completedOpens[k]
		name := v.resp.Service
		mediated := false
		if n, ok := strings.CutPrefix(name, "mediated:"); ok {
			name, mediated = n, true
		} else if n, ok := strings.CutPrefix(name, "file:"); ok {
			name = n
		}
		if v.origin == dev {
			// The consumer's NIC died: after its reboot the app's reopen
			// is a genuinely new open (new rings, new doorbells), not a
			// retransmission, so the cached verdict must not replay.
			delete(c.completedOpens, k)
			if kf, ok := c.kernelConns[v.resp.ConnID]; mediated && ok && kf.app == k.app {
				kf.drv.Quiesce()
				delete(c.kernelConns, v.resp.ConnID)
			}
			continue
		}
		if c.registry[name] == dev {
			delete(c.completedOpens, k)
			// §4: tell the consumer its resource died. The app's runtime
			// cannot see this itself — its file handle names the kernel,
			// not the storage device behind it.
			c.port.Send(v.origin, &msg.ErrorNotify{
				App: k.app, Resource: v.resp.Service, Code: 1,
				Detail: fmt.Sprintf("device %d serving %q failed", dev, name),
			})
		}
	}
	// Mediated handles ride kernel→device queues; when the device died the
	// endpoint half is gone for good (it drops connections on reset).
	for _, h := range sortedKeys(c.kernelConns, cmp.Compare[uint32]) {
		if kf := c.kernelConns[h]; kf.dev == dev {
			kf.drv.Quiesce()
			delete(c.kernelConns, h)
		}
	}
}

// mapRegion allocates frames and maps them into the given device IOMMUs
// under the app's PASID, through the same range routine the bus programs
// with. It is all or nothing: a refusal — a device's own domain check
// turning the kernel down, a page that is already mapped — unmaps what
// this call installed (never an earlier owner's page) and frees the
// frames.
func (c *CPU) mapRegion(app msg.AppID, va, bytes uint64, mmus ...*iommu.IOMMU) ([]physmem.Frame, error) {
	pasid, base := iommu.PASID(app), iommu.VirtAddr(va)
	pages := pagesOf(bytes)
	frames := make([]physmem.Frame, 0, pages)
	undo := func(mapped []*iommu.IOMMU) {
		for _, mmu := range mapped {
			mmu.UnmapRange(pasid, base, len(frames), false)
		}
		for _, f := range frames {
			_ = c.mem.FreeFrames(f, 1)
		}
	}
	for i := 0; i < pages; i++ {
		f, err := c.mem.AllocFrames(1)
		if err != nil {
			undo(nil)
			return nil, err
		}
		frames = append(frames, f)
	}
	for i, mmu := range mmus {
		if err := iommu.MapRange(mmu, pasid, base, frames, iommu.PermRW, false); err != nil {
			undo(mmus[:i])
			return nil, err
		}
	}
	c.stats.PagesMapped += uint64(len(frames) * len(mmus))
	return frames, nil
}

// pagesOf rounds a byte count up to whole 4 KiB pages.
func pagesOf(bytes uint64) int {
	return int((bytes + physmem.PageSize - 1) / physmem.PageSize)
}

// vaFor advances the app's mmap pointer.
func (c *CPU) vaFor(app msg.AppID, bytes uint64) uint64 {
	va, ok := c.appVA[app]
	if !ok {
		va = 0x2000_0000
	}
	c.appVA[app] = va + uint64(pagesOf(bytes)+1)*physmem.PageSize
	return va
}

// syscall is one kernel entry as a record, from the trap to the answer:
// who made it, what it asked, the kernel incarnation that admitted it and
// the stage it is in. It is the event of every stage the cores run (the
// entry, an open's mmap work, a mediated I/O's completion interrupt), what
// an open or a connect leaves in pendingOpen/pendingConnect, and the
// virtio.Completion of a mediated I/O.
type syscall struct {
	c         *CPU
	src       msg.DeviceID
	inc       uint32
	req       msg.Message
	stage     sysStage
	grant     *msg.OpenResp   // an open: the provider's answer
	mmus      [2]*iommu.IOMMU // what an open (both) or mmap maps into, munmap out of
	va, bytes uint64
	frames    []physmem.Frame
	kf        *kernelFile // a mediated open's queue, a mediated I/O's handle
	resp      smartssd.FileResp
}

type sysStage uint8

const (
	sysEntry     sysStage = iota // trap, dispatch and the call's own work
	sysMap                       // an open's mmap + grant of the queue region
	sysInterrupt                 // a mediated I/O's completion interrupt and copy-out
)

// trap admits a syscall: its entry runs on a core after cost.
func (c *CPU) trap(src msg.DeviceID, req msg.Message, cost sim.Duration) *syscall {
	s := &syscall{c: c, src: src, inc: c.port.Incarnation(), req: req}
	c.cores.Submit(cost, s)
	return s
}

// Fire runs the stage the cores just finished. A stage a previous
// incarnation admitted does nothing: the kernel that took the call is
// gone, and so is everything the stage would read or write.
func (s *syscall) Fire() {
	c := s.c
	if s.inc != c.port.Incarnation() {
		return
	}
	switch s.stage {
	case sysMap:
		c.mapQueue(s)
	case sysInterrupt:
		s.completeIO(s.resp)
	default:
		switch m := s.req.(type) {
		case *msg.OpenReq:
			c.open(s, m)
		case *msg.ConnectReq:
			c.connect(s, m)
		case *msg.CloseReq:
			c.close(s, m)
		case *msg.FileIOReq:
			if err := s.kf.drv.SubmitOp(smartssd.EncodeFileReq(smartssd.FileReq{
				Op: smartssd.FileOp(m.Op), Off: m.Off, Len: m.Len, Data: m.Data,
			}), s); err != nil {
				s.completeIO(smartssd.FileResp{Status: smartssd.StatusIOError})
			}
		case *msg.AllocReq:
			c.mmap(s, m)
		case *msg.FreeReq:
			c.munmap(s, m)
		}
	}
}

// open runs the open syscall, both direct ("file:X") and mediated
// ("mediated:X"), up to the provider's OpenResp.
func (c *CPU) open(s *syscall, m *msg.OpenReq) {
	if done, ok := c.completedOpens[openKey{m.App, m.Service}]; ok {
		// Retransmitted open (lost response): replay the recorded
		// verdict rather than mmap a second region.
		resp := *done.resp
		c.port.Send(s.src, &resp)
		return
	}
	name, ok := strings.CutPrefix(m.Service, "mediated:")
	if !ok {
		name, ok = strings.CutPrefix(m.Service, "file:")
	}
	if !ok {
		c.refuseOpen(s, "unknown service class")
		return
	}
	dev, ok := c.registry[name]
	if !ok {
		c.refuseOpen(s, "no such file in registry")
		return
	}
	c.pendingOpen[openKey{m.App, "file:" + name}] = s
	c.port.Send(dev, &msg.OpenReq{Service: "file:" + name, App: m.App, Token: m.Token})
}

// refuseOpen answers the app's open with a refusal.
func (c *CPU) refuseOpen(s *syscall, reason string) {
	m := s.req.(*msg.OpenReq)
	c.port.Send(s.src, &msg.OpenResp{Service: m.Service, App: m.App, OK: false, Reason: reason})
}

// openDone records the open's verdict for replay and answers the app.
func (c *CPU) openDone(s *syscall, resp *msg.OpenResp) {
	c.completedOpens[openKey{resp.App, resp.Service}] = &openVerdict{resp: resp, origin: s.src}
	out := *resp
	c.port.Send(s.src, &out)
}

// onDeviceOpenResp continues an open after the device answered the
// kernel: the kernel performs the mmap + grant in one step, mapping the
// queue region into the provider and into the app's device (direct) or
// its own unit (mediated).
func (c *CPU) onDeviceOpenResp(dev msg.DeviceID, m *msg.OpenResp) {
	s, ok := c.pendingOpen[openKey{m.App, m.Service}]
	if !ok {
		return
	}
	delete(c.pendingOpen, openKey{m.App, m.Service})
	if !m.OK {
		c.refuseOpen(s, m.Reason)
		return
	}
	first, ok1 := c.iommus[s.src]
	if strings.HasPrefix(s.req.(*msg.OpenReq).Service, "mediated:") {
		first, ok1 = c.mmu, true
		s.kf = &kernelFile{app: m.App, dev: dev, completed: make(map[uint32]*msg.FileIOResp), inflight: make(map[uint32]bool)}
	}
	devMMU, ok2 := c.iommus[dev]
	if !ok1 || !ok2 {
		c.refuseOpen(s, "kernel has no IOMMU handle")
		return
	}
	lay := virtio.NewLayout(0, c.cfg.QueueEntries, virtio.CellSizeFromQuote(m.SharedBytes, 128))
	s.bytes = uint64(lay.DataVA) + uint64(lay.DataBytes())
	s.va = c.vaFor(m.App, s.bytes)
	s.grant, s.mmus, s.stage = m, [2]*iommu.IOMMU{first, devMMU}, sysMap
	c.cores.Submit(sim.Duration(2*pagesOf(s.bytes))*c.cfg.MmapPerPage, s)
}

// mapQueue is an open's mmap + grant. A direct open is done; a mediated
// one goes on to connect the kernel's own driver to the device endpoint.
func (c *CPU) mapQueue(s *syscall) {
	m, app := s.grant, s.req.(*msg.OpenReq)
	if _, err := c.mapRegion(m.App, s.va, s.bytes, s.mmus[:]...); err != nil {
		c.refuseOpen(s, err.Error())
		return
	}
	if s.kf == nil {
		c.openDone(s, &msg.OpenResp{
			Service: app.Service, App: m.App, OK: true,
			ConnID: m.ConnID, SharedBytes: m.SharedBytes, Base: s.va,
		})
		return
	}
	lay := virtio.NewLayout(iommu.VirtAddr(s.va), c.cfg.QueueEntries, virtio.CellSizeFromQuote(m.SharedBytes, 128))
	drv, err := virtio.NewDriver(c.dma, iommu.PASID(m.App), lay, 0)
	if err != nil {
		c.refuseOpen(s, err.Error())
		return
	}
	c.nextHandle++
	s.kf.handle, s.kf.drv = c.nextHandle, drv
	c.pendingConnect[m.ConnID] = s
	c.port.Send(s.kf.dev, &msg.ConnectReq{Service: m.Service, ConnID: m.ConnID, App: m.App,
		RingVA: uint64(lay.Base), RingEntries: c.cfg.QueueEntries, DataVA: uint64(lay.DataVA),
		DataBytes: uint64(lay.DataBytes()), RespDoorbell: uint64(drv.RespBell)})
}

// connect forwards a direct-mode connect syscall to the provider.
func (c *CPU) connect(s *syscall, m *msg.ConnectReq) {
	name, ok := strings.CutPrefix(m.Service, "file:")
	if !ok {
		c.port.Send(s.src, &msg.ConnectResp{ConnID: m.ConnID, OK: false, Reason: "unknown service class"})
		return
	}
	dev, ok := c.registry[name]
	if !ok {
		c.port.Send(s.src, &msg.ConnectResp{ConnID: m.ConnID, OK: false, Reason: "no such file"})
		return
	}
	c.pendingConnect[m.ConnID] = s
	fwd := *m
	c.port.Send(dev, &fwd)
}

// connected hands the provider's ConnectResp to the syscall waiting on it:
// a forwarded connect, or a mediated open whose queue is now connected.
func (c *CPU) connected(s *syscall, cr *msg.ConnectResp) {
	if _, fwd := s.req.(*msg.ConnectReq); fwd {
		out := *cr
		c.port.Send(s.src, &out)
		return
	}
	if !cr.OK {
		c.refuseOpen(s, cr.Reason)
		return
	}
	var bell uint64
	if _, err := fmt.Sscanf(cr.Reason, "reqbell=%d", &bell); err != nil {
		c.refuseOpen(s, "no doorbell")
		return
	}
	s.kf.drv.SetRequestBell(bell)
	c.kernelConns[s.kf.handle] = s.kf
	c.openDone(s, &msg.OpenResp{
		Service: s.req.(*msg.OpenReq).Service, App: s.kf.app, OK: true,
		ConnID: s.kf.handle, SharedBytes: uint64(s.kf.drv.CellSize() - smartssd.ReqHeaderBytes),
	})
}

// close runs a close syscall: the kernel's own mediated handle is dropped
// here; a direct connection's close is forwarded to its provider.
func (c *CPU) close(s *syscall, m *msg.CloseReq) {
	if _, ok := c.kernelConns[m.ConnID]; ok {
		delete(c.kernelConns, m.ConnID)
	} else if dev, ok := c.registry[strings.TrimPrefix(m.Service, "file:")]; ok {
		fwd := *m
		c.port.Send(dev, &fwd)
		// Fire-and-forget: the provider's CloseResp returns to the
		// kernel and is dropped; the app's close is acknowledged here.
	}
	c.port.Send(s.src, &msg.CloseResp{ConnID: m.ConnID, OK: true})
}

// sysFileIO admits a mediated I/O on behalf of the app.
func (c *CPU) sysFileIO(src msg.DeviceID, m *msg.FileIOReq) {
	c.stats.Syscalls++
	c.stats.MediatedIOs++
	kf, ok := c.kernelConns[m.Handle]
	if !ok || kf.app != m.App {
		c.port.Send(src, &msg.FileIOResp{App: m.App, Handle: m.Handle, Seq: m.Seq, Status: uint8(smartssd.StatusBadRequest)})
		return
	}
	// At-most-once: replay a completed syscall's response; swallow a
	// duplicate of one still in flight (its response goes out when the
	// device completes).
	if done, was := kf.completed[m.Seq]; was {
		resp := *done
		c.port.Send(src, &resp)
		return
	}
	if kf.inflight[m.Seq] {
		return
	}
	// Admission: bound the kernel's mediated-I/O backlog. Rejected
	// requests are not recorded in the at-most-once window — StatusBusy
	// is retryable, and a retransmit competes for admission afresh.
	if bound := c.cfg.IOBacklogBound; bound > 0 && c.ioOutstanding >= bound {
		c.stats.IOShed++
		c.port.Send(src, &msg.FileIOResp{App: m.App, Handle: m.Handle, Seq: m.Seq, Status: uint8(smartssd.StatusBusy)})
		return
	}
	kf.inflight[m.Seq] = true
	c.ioOutstanding++
	c.ioG.Set(c.ioOutstanding)
	// Copy-in for writes (app buffer -> kernel page cache).
	inCopy := sim.Duration(float64(len(m.Data)) / c.cfg.CopyBytesPerNs)
	c.stats.BytesCopied += uint64(len(m.Data))
	c.trap(src, m, c.cfg.SyscallCost+inCopy).kf = kf
}

// RequestDone implements virtio.Completion for a mediated I/O: the device
// answered, and a completion interrupt copies the answer out.
func (s *syscall) RequestDone(b []byte, err error) {
	if err == nil {
		s.resp, err = smartssd.DecodeFileResp(b)
	}
	if err != nil {
		s.completeIO(smartssd.FileResp{Status: smartssd.StatusIOError})
		return
	}
	c := s.c
	outCopy := sim.Duration(float64(len(s.resp.Data)) / c.cfg.CopyBytesPerNs)
	c.stats.BytesCopied += uint64(len(s.resp.Data))
	c.stats.Interrupts++
	s.stage = sysInterrupt
	c.cores.Submit(c.cfg.InterruptCost+outCopy, s)
}

// completeIO records a mediated I/O's final response for replay, then
// sends it.
func (s *syscall) completeIO(r smartssd.FileResp) {
	c, m, kf := s.c, s.req.(*msg.FileIOReq), s.kf
	c.ioOutstanding--
	c.ioG.Set(c.ioOutstanding)
	delete(kf.inflight, m.Seq)
	resp := &msg.FileIOResp{App: m.App, Handle: m.Handle, Seq: m.Seq, Status: uint8(r.Status), Size: r.Size, Data: r.Data}
	kf.completed[m.Seq] = resp
	if m.Seq > ioWindow {
		delete(kf.completed, m.Seq-ioWindow)
	}
	out := *resp
	c.port.Send(s.src, &out)
}

type mmapKey struct {
	app msg.AppID
	va  uint64
}

type mmapRec struct {
	dev    msg.DeviceID
	frames []physmem.Frame
}

// sysMmap is the kernel's explicit shared-memory map syscall: allocate
// frames and install them in the calling device's IOMMU at the requested
// VA. Mirrors the decentralized AllocReq flow so E8 compares like for
// like.
func (c *CPU) sysMmap(src msg.DeviceID, m *msg.AllocReq) {
	c.stats.Syscalls++
	deny := func(reason string) {
		c.port.Send(src, &msg.AllocResp{App: m.App, OK: false, Reason: reason, VA: m.VA})
	}
	mmu, ok := c.iommus[src]
	if !ok {
		deny("kernel has no IOMMU handle for caller")
		return
	}
	if m.App == 0 || m.Bytes == 0 || m.VA%physmem.PageSize != 0 {
		deny("malformed mmap")
		return
	}
	if _, dup := c.mmaps[mmapKey{m.App, m.VA}]; dup {
		deny("region exists")
		return
	}
	c.trap(src, m, c.cfg.SyscallCost+sim.Duration(pagesOf(m.Bytes))*c.cfg.MmapPerPage).mmus[0] = mmu
}

func (c *CPU) mmap(s *syscall, m *msg.AllocReq) {
	frames, err := c.mapRegion(m.App, m.VA, m.Bytes, s.mmus[0])
	if err != nil {
		c.port.Send(s.src, &msg.AllocResp{App: m.App, OK: false, Reason: err.Error(), VA: m.VA})
		return
	}
	out := make([]uint64, len(frames))
	for i, f := range frames {
		out[i] = uint64(f)
	}
	c.mmaps[mmapKey{m.App, m.VA}] = mmapRec{dev: s.src, frames: frames}
	c.port.Send(s.src, &msg.AllocResp{App: m.App, OK: true, VA: m.VA, Frames: out, Perm: m.Perm})
}

// sysMunmap releases a region mapped by sysMmap.
func (c *CPU) sysMunmap(src msg.DeviceID, m *msg.FreeReq) {
	c.stats.Syscalls++
	rec, ok := c.mmaps[mmapKey{m.App, m.VA}]
	if !ok || rec.dev != src {
		c.port.Send(src, &msg.FreeResp{App: m.App, OK: false, Reason: "no such region", VA: m.VA})
		return
	}
	s := c.trap(src, m, c.cfg.SyscallCost+sim.Duration(len(rec.frames))*c.cfg.MmapPerPage)
	s.mmus[0], s.frames = c.iommus[src], rec.frames
}

func (c *CPU) munmap(s *syscall, m *msg.FreeReq) {
	pages := len(s.frames)
	s.mmus[0].UnmapRange(iommu.PASID(m.App), iommu.VirtAddr(m.VA), pages, false)
	for _, f := range s.frames {
		_ = c.mem.FreeFrames(f, 1)
	}
	delete(c.mmaps, mmapKey{m.App, m.VA})
	c.port.Send(s.src, &msg.FreeResp{App: m.App, OK: true, VA: m.VA, Bytes: uint64(pages) * physmem.PageSize})
}
