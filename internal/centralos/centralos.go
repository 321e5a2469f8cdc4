// Package centralos is the comparison baseline: the same machine, but
// with a general-purpose CPU running a kernel as the centralized control
// plane — the Omni-X / M3X / IX configuration the paper positions itself
// against, and the "traditional stack" beyond that.
//
// The CPU attaches to the same transport and devices as the decentralized
// machine. Differences:
//
//   - There is no memory-controller device and the bus performs no
//     privileged work: the kernel owns the controller's region table
//     (memctrl.Regions) and a device's session table (device.Instances),
//     holds direct handles to every device IOMMU (as a kernel does, via
//     MMIO) and programs them itself.
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
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/iommu"
	"nocpu/internal/memctrl"
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
	// HeartbeatEvery makes the kernel heartbeat on the management
	// transport, so a bus watchdog can detect a kernel panic. 0 sends
	// none; core fills it as it does a device's.
	HeartbeatEvery sim.Duration
	// ResetDelay is the kernel reboot time after a bus Reset (the
	// baseline's recovery path). 0 disables recovery: a Reset is ignored.
	// core fills it (150µs) when left zero.
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
	// IOShed counts mediated I/Os refused StatusBusy at IOBacklogBound.
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
	// registry is the kernel's mount table: file name -> storage device.
	registry map[string]msg.DeviceID

	// appVA is the kernel's per-app mmap pointer.
	appVA map[msg.AppID]uint64

	// sessions is the device's instance table, placed in the kernel.
	sessions device.Instances[*session]

	// ioOutstanding counts mediated I/Os admitted by sysFileIO and not
	// yet completed; ioG tracks it against IOBacklogBound (Q1 audit).
	ioOutstanding int
	ioG           *metrics.Gauge

	enr   device.Enrollment // Hello, heartbeat and credits; Kill stops it
	boot  sim.Timer         // the reboot after a bus Reset
	alive bool

	// regions holds the mmap syscalls' regions and, owned by the kernel
	// itself, an open's queue and a misprogrammed mapping.
	regions *memctrl.Regions

	stats Stats
}

// session is one open the kernel brokers, from the trap to the close: the
// table's instance, whose ID the app sees in both modes, and what the
// kernel keeps to stand between the app and the provider.
type session struct {
	device.Instance
	dev  msg.DeviceID // the provider
	name string       // the file in the registry
	conn uint32       // the provider's ConnID, once it answered
	// asked is what the session waits on the provider for (the open, a
	// connect), matched by its answer and resent by a retransmitted open.
	asked   msg.Message
	verdict *msg.OpenResp // the app's answer, replayed under rule 1
	kf      *kernelFile   // a mediated open's queue
	mapped  *syscall      // the map stage that installed the queue region
}

// kernelFile is a mediated session's queue, its driver half on the CPU,
// and at-most-once I/O (§4): completed replays a retransmitted FileIOReq's
// recorded response instead of re-applying the write, and inflight
// suppresses duplicates of a request still in the device queue.
type kernelFile struct {
	drv       *virtio.Driver
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
	cfg.SyscallCost = cmp.Or(cfg.SyscallCost, DefaultConfig.SyscallCost)
	cfg.RegistryCost = cmp.Or(cfg.RegistryCost, DefaultConfig.RegistryCost)
	cfg.MmapPerPage = cmp.Or(cfg.MmapPerPage, DefaultConfig.MmapPerPage)
	cfg.InterruptCost = cmp.Or(cfg.InterruptCost, DefaultConfig.InterruptCost)
	cfg.CopyBytesPerNs = cmp.Or(cfg.CopyBytesPerNs, DefaultConfig.CopyBytesPerNs)
	cfg.QueueEntries = cmp.Or(cfg.QueueEntries, DefaultConfig.QueueEntries)
	c := &CPU{
		eng:      eng,
		cfg:      cfg,
		tr:       tr,
		mem:      fab.Memory(),
		mmu:      iommu.New(cfg.Name, fab.Memory(), iommu.DefaultConfig),
		cores:    sim.NewPool(eng, cfg.Cores),
		iommus:   make(map[msg.DeviceID]*iommu.IOMMU),
		registry: make(map[string]msg.DeviceID),
		appVA:    make(map[msg.AppID]uint64),
		regions:  memctrl.NewRegions(fab.Memory(), 0),
		ioG:      metrics.NewGauge(cfg.IOBacklogBound),
	}
	c.dma = fab.NewPort(cfg.Name, c.mmu)
	port, err := b.Attach(cfg.ID, cfg.Name, msg.RoleAccelerator, c.mmu, c.receive)
	if err != nil {
		return nil, err
	}
	c.port = port
	c.enr = device.NewEnrollment(eng, tr, port, msg.RoleAccelerator, cfg.Name, cfg.HeartbeatEvery)
	return c, nil
}

// Start boots the kernel: it enrolls on the transport as a device does,
// without a self-test.
func (c *CPU) Start() {
	c.alive = true
	c.enr.Enroll(nil)
}

// Stats returns a copy of the counters.
func (c *CPU) Stats() Stats { return c.stats }

// IOGauge exposes mediated-I/O backlog depth vs IOBacklogBound
// (overload Q1 audit).
func (c *CPU) IOGauge() *metrics.Gauge { return c.ioG }

// Alive reports whether the kernel is running.
func (c *CPU) Alive() bool { return c.alive }

// Kill simulates a kernel panic (fault injection): the CPU stops
// answering syscalls and heartbeats until the bus watchdog resets it.
func (c *CPU) Kill() {
	c.alive = false
	c.enr.Stop()
}

// onBusReset runs the baseline's recovery: after ResetDelay (0: none) the
// kernel reboots with a new incarnation. A second Reset before the reboot
// (the bus resends one for each heartbeat it gets from a device it failed)
// joins the reboot already coming, as a device mid-reset ignores one.
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
// syscall continuations, the sessions and their mediated queues (IDs go on
// from where they were, so a stale handle names nothing), the region table
// (swapped for an empty one, freeing nothing) and the mmap pointers.
// Reinitializing the translation units it drives tears down every live
// context, so even direct-mode data planes that never touched the CPU die
// with it; on the decentralized machine a device crash is contained to
// that device's resources. Frames reachable only through the lost tables
// leak until a full power cycle (bounded by crashes per run). A syscall
// the dead incarnation admitted does nothing when its next stage comes up
// (syscall.Fire), so the mediated I/Os it held are no longer outstanding.
type reboot CPU

func (e *reboot) Fire() {
	c := (*CPU)(e)
	c.port.NewIncarnation()
	ids := make([]msg.DeviceID, 0, len(c.iommus))
	for id := range c.iommus {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		flushContexts(c.iommus[id])
	}
	flushContexts(c.mmu)
	c.end(false, func(*session) bool { return true })
	c.regions = memctrl.NewRegions(c.mem, 0)
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

// AttachDeviceIOMMU gives the kernel its MMIO handle to a device's
// translation unit.
func (c *CPU) AttachDeviceIOMMU(id msg.DeviceID, mmu *iommu.IOMMU) {
	c.iommus[id] = mmu
}

// Misprogram models a compromised (or merely buggy) kernel: it maps the
// app's pages straight into the named device's translation unit, no
// authorization asked, since the kernel IS the authorization. On a machine
// whose devices carry isolation domains (core.Options.Tenancy) the
// device's own IOMMU refuses the foreign context, and the error is that
// typed refusal: E20's compromised-kernel cell measures the difference.
func (c *CPU) Misprogram(dev msg.DeviceID, app msg.AppID, va, bytes uint64) error {
	mmu, ok := c.iommus[dev]
	if !ok {
		return fmt.Errorf("centralos: no iommu handle for device %d", dev)
	}
	_, err := c.mapRegion(c.cfg.ID, &msg.AllocReq{App: app, VA: va, Bytes: bytes}, mmu)
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
		c.onDeviceConnectResp(env.Src, m)
	case *msg.FileIOReq:
		c.sysFileIO(env.Src, m)
	case *msg.AllocReq:
		c.sysMmap(env.Src, m)
	case *msg.FreeReq:
		c.sysMunmap(env.Src, m)
	case *msg.DeviceFailed:
		c.onPeerFailed(m.Device)
	case *msg.HelloAck, *msg.CreditUpdate:
		c.enr.Receive(m)
	}
}

// onPeerFailed drops the sessions a dead device opened (its reopen is a
// new open), then those it served, telling an answered one's app (§4: its
// handle names the kernel, not the device behind it).
func (c *CPU) onPeerFailed(dev msg.DeviceID) {
	c.end(false, func(o *session) bool { return o.Client == dev })
	for _, o := range c.end(false, func(o *session) bool { return o.dev == dev }) {
		if o.verdict != nil {
			c.port.Send(o.Client, &msg.ErrorNotify{App: o.App, Resource: o.Service, Code: 1,
				Detail: fmt.Sprintf("device %d serving %q failed", dev, o.name)})
		}
	}
}

// end is the one teardown of a kernel session, whatever ends it: the sessions
// gone reports leave the table, in id order, and a mediated one's driver stops.
// A close or refusal (give) first fails the I/Os still queued, then frees the
// queue region; a death or the reboot does neither, as that moves E15 goldens.
func (c *CPU) end(give bool, gone func(*session) bool) []*session {
	out := c.sessions.Drop(gone)
	for _, o := range out {
		if o.kf != nil && o.kf.drv != nil {
			if give { // each failed I/O completes, and gives its backlog slot back
				o.kf.drv.Abort(fmt.Errorf("centralos: session %d ended", o.ID))
			}
			o.kf.drv.Quiesce()
		}
		if s := o.mapped; give && s != nil {
			c.regions.Free(c.cfg.ID, &msg.FreeReq{App: o.App, VA: s.va}, s.mmus[:]...)
		}
	}
	return out
}

// mapRegion answers an AllocReq from the kernel's table and maps a fresh
// region into the given device IOMMUs under the app's PASID, through the
// bus's range routine; a replay was mapped when it was fresh. It is all or
// nothing: a refusal (a device's domain check, a page already mapped)
// unmaps what this call installed, never an earlier owner's page, gives
// the region back to the table and is the call's error.
func (c *CPU) mapRegion(owner msg.DeviceID, m *msg.AllocReq, mmus ...*iommu.IOMMU) (*msg.AllocResp, error) {
	r, fresh := c.regions.Alloc(owner, m)
	if !r.OK {
		return r, fmt.Errorf("centralos: %s", r.Reason)
	}
	if !fresh {
		return r, nil
	}
	for i, mmu := range mmus {
		if err := iommu.MapRange(mmu, iommu.PASID(m.App), iommu.VirtAddr(m.VA), r.Frames, iommu.PermRW, r.Huge); err != nil {
			c.regions.Free(owner, &msg.FreeReq{App: m.App, VA: m.VA}, mmus[:i]...)
			return &msg.AllocResp{App: m.App, OK: false, Reason: err.Error(), VA: m.VA}, err
		}
	}
	_, per := iommu.PageGeometry(r.Huge)
	c.stats.PagesMapped += uint64(len(r.Frames) * per * len(mmus))
	return r, nil
}

// vaFor advances the app's mmap pointer.
func (c *CPU) vaFor(app msg.AppID, bytes uint64) uint64 {
	va, ok := c.appVA[app]
	if !ok {
		va = 0x2000_0000
	}
	c.appVA[app] = va + uint64(memctrl.Pages(bytes)+1)*physmem.PageSize
	return va
}

// syscall is one kernel entry as a record: who made it, what it asked,
// the kernel incarnation that admitted it and its stage. It is the event
// of every stage the cores run (the entry, an open's mmap work, a mediated
// I/O's completion interrupt) and the virtio.Completion of a mediated I/O.
type syscall struct {
	c         *CPU
	src       msg.DeviceID
	inc       uint32
	req       msg.Message
	stage     sysStage
	o         *session        // the session an open's map stage or a mediated I/O is for
	grant     *msg.OpenResp   // an open: the provider's answer
	mmus      [2]*iommu.IOMMU // what an open (both) or mmap maps into, munmap out of
	va, bytes uint64
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
			if err := s.o.kf.drv.SubmitOp(smartssd.EncodeFileReq(smartssd.FileReq{
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
// ("mediated:X"), up to the provider's OpenResp. Under replay rule 1 a
// retransmission gets the recorded verdict back or, while the session
// waits on the provider, resends what it asked; in the map stage it is
// dropped, as the answer is on the cores.
func (c *CPU) open(s *syscall, m *msg.OpenReq) {
	if o, ok := c.sessions.Reopen(s.src, m); ok {
		if o.verdict != nil {
			resp := *o.verdict
			c.port.Send(s.src, &resp)
		} else if o.asked != nil {
			c.port.Send(o.dev, o.asked)
		}
		return
	}
	name, mediated := strings.CutPrefix(m.Service, "mediated:")
	ok := mediated
	if !ok {
		name, ok = strings.CutPrefix(m.Service, "file:")
	}
	dev, mounted := c.registry[name]
	if reason := "unknown service class"; !ok || !mounted {
		if ok {
			reason = "no such file in registry"
		}
		c.port.Send(s.src, &msg.OpenResp{Service: m.Service, App: m.App, Reason: reason})
		return
	}
	o := c.sessions.Add(s.src, m, &session{dev: dev, name: name, asked: &msg.OpenReq{Service: "file:" + name, App: m.App, Token: m.Token}})
	if mediated {
		o.kf = &kernelFile{completed: make(map[uint32]*msg.FileIOResp), inflight: make(map[uint32]bool)}
	}
	c.port.Send(dev, o.asked)
}

// refuseOpen answers a session's open with a refusal and ends it.
func (c *CPU) refuseOpen(o *session, reason string) {
	c.end(true, func(x *session) bool { return x == o })
	c.port.Send(o.Client, &msg.OpenResp{Service: o.Service, App: o.App, Reason: reason})
}

// accept records a session's verdict for replay and sends it.
func (c *CPU) accept(o *session, shared, base uint64) {
	o.verdict = &msg.OpenResp{Service: o.Service, App: o.App, OK: true, ConnID: o.ID, SharedBytes: shared, Base: base}
	out := *o.verdict
	c.port.Send(o.Client, &out)
}

// waiting is the first session whose request asked of dev answers fits.
func (c *CPU) waiting(dev msg.DeviceID, answers func(asked msg.Message) bool) *session {
	for _, o := range c.sessions.All() {
		if o.dev == dev && o.asked != nil && answers(o.asked) {
			return o
		}
	}
	return nil
}

// onDeviceOpenResp continues an open the provider answered: one mmap +
// grant maps the queue region into the provider and into the app's device
// (direct) or the kernel's own unit (mediated).
func (c *CPU) onDeviceOpenResp(dev msg.DeviceID, m *msg.OpenResp) {
	o := c.waiting(dev, func(asked msg.Message) bool {
		r, ok := asked.(*msg.OpenReq)
		return ok && r.App == m.App && r.Service == m.Service
	})
	if o == nil {
		return
	}
	o.asked = nil
	if !m.OK {
		c.refuseOpen(o, m.Reason)
		return
	}
	first, devMMU := c.iommus[o.Client], c.iommus[dev]
	if o.kf != nil {
		first = c.mmu
	}
	if first == nil || devMMU == nil {
		c.refuseOpen(o, "kernel has no IOMMU handle")
		return
	}
	o.conn = m.ConnID
	lay := virtio.NewLayout(0, c.cfg.QueueEntries, virtio.CellSizeFromQuote(m.SharedBytes, 128))
	s := &syscall{c: c, src: o.Client, inc: c.port.Incarnation(), stage: sysMap, o: o, grant: m, mmus: [2]*iommu.IOMMU{first, devMMU}}
	s.bytes = uint64(lay.DataVA) + uint64(lay.DataBytes())
	s.va = c.vaFor(m.App, s.bytes)
	c.cores.Submit(sim.Duration(2*memctrl.Pages(s.bytes))*c.cfg.MmapPerPage, s)
}

// mapQueue is an open's mmap + grant, for a session still open. A direct
// open is done; a mediated one goes on to connect the kernel's own driver
// to the device endpoint.
func (c *CPU) mapQueue(s *syscall) {
	o, m := s.o, s.grant
	if _, refusal := c.sessions.Opened(o.Client, o.App, o.ID); refusal != "" {
		return
	}
	if _, err := c.mapRegion(c.cfg.ID, &msg.AllocReq{App: o.App, VA: s.va, Bytes: s.bytes}, s.mmus[:]...); err != nil {
		c.refuseOpen(o, err.Error())
		return
	}
	o.mapped = s
	if o.kf == nil {
		c.accept(o, m.SharedBytes, s.va)
		return
	}
	lay := virtio.NewLayout(iommu.VirtAddr(s.va), c.cfg.QueueEntries, virtio.CellSizeFromQuote(m.SharedBytes, 128))
	drv, err := virtio.NewDriver(c.dma, iommu.PASID(o.App), lay, 0)
	if err != nil {
		c.refuseOpen(o, err.Error())
		return
	}
	o.kf.drv = drv
	o.asked = &msg.ConnectReq{Service: m.Service, ConnID: o.conn, App: o.App,
		RingVA: uint64(lay.Base), RingEntries: c.cfg.QueueEntries, DataVA: uint64(lay.DataVA),
		DataBytes: uint64(lay.DataBytes()), RespDoorbell: uint64(drv.RespBell)}
	c.port.Send(o.dev, o.asked)
}

// connect forwards a direct session's connect syscall to its provider,
// under the provider's ConnID.
func (c *CPU) connect(s *syscall, m *msg.ConnectReq) {
	o, refusal := c.sessions.Opened(s.src, m.App, m.ConnID)
	if refusal == "" && (o.verdict == nil || o.kf != nil) {
		refusal = "not a direct connection"
	}
	if refusal != "" {
		c.port.Send(s.src, &msg.ConnectResp{ConnID: m.ConnID, Reason: refusal})
		return
	}
	fwd := *m
	fwd.ConnID = o.conn
	o.asked = &fwd
	c.port.Send(o.dev, &fwd)
}

// onDeviceConnectResp answers the session waiting on the provider's
// ConnectResp: a forwarded connect, under the kernel's ID, or a mediated
// open whose queue is now connected.
func (c *CPU) onDeviceConnectResp(dev msg.DeviceID, cr *msg.ConnectResp) {
	o := c.waiting(dev, func(asked msg.Message) bool {
		r, ok := asked.(*msg.ConnectReq)
		return ok && r.ConnID == cr.ConnID
	})
	if o == nil {
		return
	}
	o.asked = nil
	if o.kf == nil {
		out := *cr
		out.ConnID = o.ID
		c.port.Send(o.Client, &out)
		return
	}
	if !cr.OK {
		c.refuseOpen(o, cr.Reason)
		return
	}
	var bell uint64
	if _, err := fmt.Sscanf(cr.Reason, "reqbell=%d", &bell); err != nil {
		c.refuseOpen(o, "no doorbell")
		return
	}
	o.kf.drv.SetRequestBell(bell)
	c.accept(o, uint64(o.kf.drv.CellSize()-smartssd.ReqHeaderBytes), 0)
}

// close runs a close syscall on the table's rules: the session ends, and
// the kernel closes its own provider session (whose CloseResp it drops).
func (c *CPU) close(s *syscall, m *msg.CloseReq) {
	c.port.Send(s.src, c.sessions.Close(s.src, m, func(o *session) {
		c.end(true, func(x *session) bool { return x == o })
		if o.conn != 0 {
			c.port.Send(o.dev, &msg.CloseReq{Service: "file:" + o.name, ConnID: o.conn, App: o.App})
		}
	}))
}

// sysFileIO admits a mediated I/O on behalf of the app.
func (c *CPU) sysFileIO(src msg.DeviceID, m *msg.FileIOReq) {
	c.stats.Syscalls++
	c.stats.MediatedIOs++
	o, refusal := c.sessions.Opened(src, m.App, m.Handle)
	if refusal != "" || o.kf == nil || o.verdict == nil {
		c.port.Send(src, &msg.FileIOResp{App: m.App, Handle: m.Handle, Seq: m.Seq, Status: uint8(smartssd.StatusBadRequest)})
		return
	}
	// At-most-once: replay a completed syscall's response; swallow a
	// duplicate of one still in flight (its response goes out when the
	// device completes).
	if done, was := o.kf.completed[m.Seq]; was {
		resp := *done
		c.port.Send(src, &resp)
		return
	}
	if o.kf.inflight[m.Seq] {
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
	o.kf.inflight[m.Seq] = true
	c.ioOutstanding++
	c.ioG.Set(c.ioOutstanding)
	// Copy-in for writes (app buffer -> kernel page cache).
	inCopy := sim.Duration(float64(len(m.Data)) / c.cfg.CopyBytesPerNs)
	c.stats.BytesCopied += uint64(len(m.Data))
	c.trap(src, m, c.cfg.SyscallCost+inCopy).o = o
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
	c, m, kf := s.c, s.req.(*msg.FileIOReq), s.o.kf
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

// sysMmap is the kernel's explicit shared-memory map syscall. It runs the
// controller's table and installs a fresh region in the caller's IOMMU, so
// E8 compares like for like: only the trap and its cost differ.
func (c *CPU) sysMmap(src msg.DeviceID, m *msg.AllocReq) {
	c.stats.Syscalls++
	mmu, ok := c.iommus[src]
	if !ok {
		c.port.Send(src, &msg.AllocResp{App: m.App, OK: false, Reason: "kernel has no IOMMU handle for caller", VA: m.VA})
		return
	}
	c.trap(src, m, c.cfg.SyscallCost+sim.Duration(memctrl.Pages(m.Bytes))*c.cfg.MmapPerPage).mmus[0] = mmu
}

func (c *CPU) mmap(s *syscall, m *msg.AllocReq) {
	r, _ := c.mapRegion(s.src, m, s.mmus[0])
	c.port.Send(s.src, r)
}

// sysMunmap releases a region mapped by sysMmap, charged per frame it
// holds at admission. A caller with no IOMMU handle owns no region, so
// Free refuses it before it would unmap.
func (c *CPU) sysMunmap(src msg.DeviceID, m *msg.FreeReq) {
	c.stats.Syscalls++
	c.trap(src, m, c.cfg.SyscallCost+sim.Duration(c.regions.Frames(m.App, m.VA))*c.cfg.MmapPerPage).mmus[0] = c.iommus[src]
}

// munmap unmaps and frees inside Regions.Free; a duplicate queued behind
// the first finds the region gone and replays.
func (c *CPU) munmap(s *syscall, m *msg.FreeReq) {
	c.port.Send(s.src, c.regions.Free(s.src, m, s.mmus[0]))
}
