package smartnic

import (
	"fmt"
	"slices"

	"nocpu/internal/device"
	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
)

// Runtime is the per-application system-bus library (§4
// "Programmability"). It exposes discovery, shared-memory allocation,
// grants and service connections; OpenService composes them into the full
// Figure-2 initialization sequence.
type Runtime struct {
	nic *NIC
	app msg.AppID

	// nextVA is the app's trivial virtual-address-space allocator: the
	// address space is huge and regions are rarely freed, so a bump
	// allocator suffices.
	nextVA uint64

	// DiscoverTimeout bounds how long one discovery attempt waits for an
	// answer (retransmissions back off from here per Retry).
	DiscoverTimeout sim.Duration

	// Retry bounds timeouts and retransmission for every control request
	// (retry.go).
	Retry RetryPolicy

	// Demand-paging state (see demand.go).
	lazy          []lazyRegion
	lazyMemctrl   msg.DeviceID
	lazyAllocs    int // demand allocations since boot; a test reads it
	pendingFaults map[uint64][]func(error)

	// conns tracks the app's open connections so a crash reset can quiesce
	// their virtqueues (recovery.go).
	conns []*Connection
	// openers holds the client half of every session from its OpenReq
	// until it ends here (a failed open, a close) or the NIC resets, so
	// NIC.onResponse tells an accept that came after its open gave up from
	// a replay to a live session. Like conns, it keeps a session whose
	// queue failed until then.
	openers []*device.Opener
}

// vaBase is where each app's bump allocator starts; low VAs stay unused to
// catch bugs.
const vaBase = 0x1000_0000

func newRuntime(n *NIC, app msg.AppID) *Runtime {
	return &Runtime{
		nic:             n,
		app:             app,
		nextVA:          vaBase,
		DiscoverTimeout: 10 * sim.Millisecond,
		Retry:           DefaultRetryPolicy,
		pendingFaults:   make(map[uint64][]func(error)),
	}
}

// Engine returns the simulation engine (apps schedule timers with it).
func (rt *Runtime) Engine() *sim.Engine { return rt.nic.dev.Engine() }

// reserveVA carves a page-aligned region out of the app's address space.
func (rt *Runtime) reserveVA(bytes uint64) uint64 {
	va := rt.nextVA
	pages := (bytes + physmem.PageSize - 1) / physmem.PageSize
	rt.nextVA += (pages + 1) * physmem.PageSize // guard page between regions
	return va
}

// Discover broadcasts a service query (§3 step 1) and waits for the first
// provider (§3 step 2), retransmitting the same nonce on timeout so late
// answers to any attempt count.
func (rt *Runtime) Discover(query string, cb func(provider msg.DeviceID, service string, err error)) {
	n := rt.nic
	n.nextNonce++
	req := &msg.DiscoverReq{Query: query, Nonce: n.nextNonce}
	n.call(rt.Retry.withBase(rt.DiscoverTimeout), msg.Broadcast, req,
		callKey{kind: msg.KindDiscoverResp, id: uint64(req.Nonce)}, discoverAnswer(cb))
}

// AllocShared asks the memory controller for shared memory mapped into
// this app's address space (§3 step 5); the bus programs this NIC's IOMMU
// before the response arrives (§3 step 6).
func (rt *Runtime) AllocShared(memctrl msg.DeviceID, bytes uint64, cb func(va uint64, err error)) {
	rt.alloc(memctrl, rt.reserveVA(bytes), bytes, false, cb)
}

// AllocSharedHuge is AllocShared with 2 MiB mappings: the controller
// hands out contiguous runs and the bus installs one PTE per 2 MiB,
// cutting table-programming cost ~512x and extending TLB reach (E13).
func (rt *Runtime) AllocSharedHuge(memctrl msg.DeviceID, bytes uint64, cb func(va uint64, err error)) {
	// Round the reservation so the next region stays huge-aligned.
	runs := (bytes + iommu.HugePageSize - 1) / iommu.HugePageSize
	va := rt.nextVA
	if rem := va % iommu.HugePageSize; rem != 0 {
		va += iommu.HugePageSize - rem
	}
	rt.nextVA = va + (runs+1)*iommu.HugePageSize
	rt.alloc(memctrl, va, bytes, true, cb)
}

// alloc requests backing for exactly [va, va+bytes): an eager region
// whose VA the caller just reserved, or one demand-paged chunk
// (demand.go). cb receives va on success.
func (rt *Runtime) alloc(memctrl msg.DeviceID, va, bytes uint64, huge bool, cb func(va uint64, err error)) {
	rt.nic.lastMemctrl = memctrl
	req := &msg.AllocReq{App: rt.app, VA: va, Bytes: bytes, Perm: uint8(iommu.PermRW), Huge: huge}
	rt.nic.call(rt.Retry, memctrl, req, callKey{kind: msg.KindAllocResp, app: rt.app, id: va}, vaAnswer(cb))
}

// Free returns a shared region to the controller.
func (rt *Runtime) Free(memctrl msg.DeviceID, va, bytes uint64, cb func(error)) {
	req := &msg.FreeReq{App: rt.app, VA: va, Bytes: bytes}
	rt.nic.call(rt.Retry, memctrl, req, callKey{kind: msg.KindFreeResp, app: rt.app, id: va}, errAnswer(cb))
}

// Grant asks the bus to extend one of this app's regions to another
// device (§3 step 7, first half).
func (rt *Runtime) Grant(va, bytes uint64, target msg.DeviceID, cb func(error)) {
	req := &msg.GrantReq{App: rt.app, VA: va, Bytes: bytes, Target: target, Perm: uint8(iommu.PermRW)}
	rt.nic.call(rt.Retry, msg.BusID, req, callKey{kind: msg.KindGrantResp, app: rt.app, id: va, sub: uint32(target)}, errAnswer(cb))
}

// Load uploads an image to dev's loader service (§2.1) under the
// device's loader token.
func (rt *Runtime) Load(dev msg.DeviceID, image string, token uint64, data []byte, cb func(error)) {
	req := &msg.LoadReq{Image: image, Token: token, Data: data}
	rt.nic.call(rt.Retry, dev, req, callKey{kind: msg.KindLoadResp, name: image, sub: uint32(dev)}, errAnswer(cb))
}

// open is §3 steps 3-4 of o's session with provider: a device's service,
// or the kernel in the centralized baseline. cb receives the provider's
// acceptance once o took it, or its refusal or the call's failure as an
// error.
func (rt *Runtime) open(o *device.Opener, provider msg.DeviceID, service string, token uint64, cb func(*msg.OpenResp, error)) {
	rt.openers = append(rt.openers, o)
	rt.nic.call(rt.Retry, provider, o.Open(provider, service, rt.app, token), callKey{kind: msg.KindOpenResp, app: rt.app, name: service},
		rawAnswer(func(_ msg.DeviceID, resp msg.Message, err error) {
			or, _ := resp.(*msg.OpenResp)
			if err == nil {
				err = o.Opened(or)
			}
			cb(or, err)
		}))
}

// connect builds o's queue over the shared region at base and programs the
// provider's half with it (§3 step 7b).
func (rt *Runtime) connect(o *device.Opener, base uint64, entries uint16, cb func(error)) {
	req, err := o.Connect(rt.nic.dev.DMA(), base, entries)
	if err != nil {
		cb(fmt.Errorf("driver: %w", err))
		return
	}
	rt.nic.call(rt.Retry, o.Provider, req, callKey{kind: msg.KindConnectResp, id: uint64(o.ConnID), sub: uint32(o.Provider)},
		rawAnswer(func(_ msg.DeviceID, resp msg.Message, err error) {
			if err == nil {
				err = o.Connected(resp.(*msg.ConnectResp))
			}
			cb(err)
		}))
}

// Connection is an established service connection: its client half of the
// session (the provider, the provider's ConnID and the queue) and the
// shared region the queue lives in.
type Connection struct {
	device.Opener
	rt      *Runtime
	VA      uint64 // shared region base
	Bytes   uint64
	memctrl msg.DeviceID // whom the region's free goes to; 0: the kernel mapped it
}

// Placement is where a file open runs and where its I/O goes. The same
// client code runs all three, so an experiment compares the machines on
// identical workloads.
type Placement uint8

// The placements.
const (
	// Decentralized is the paper's machine: bus discovery, memory
	// controller authorization, peer-to-peer virtqueue.
	Decentralized Placement = iota
	// KernelDirect is the Omni-X-style baseline: the kernel's open maps
	// the queue region, and the data plane stays peer-to-peer.
	KernelDirect
	// KernelMediated is the traditional stack: every file op is a
	// syscall through the kernel.
	KernelMediated
)

// OpenFile opens name at placement p through control: the memory
// controller for Decentralized, the kernel otherwise. entries sizes a
// peer-to-peer queue. A failed open's error reads
// `smartnic: open "<service>": <stage>: …`, wrapping the cause.
func (rt *Runtime) OpenFile(p Placement, control msg.DeviceID, name string, token uint64, entries uint16, cb func(FileAPI, error)) {
	switch p {
	case KernelMediated:
		m := &mediatedFile{rt: rt}
		m.via = m
		rt.open(&m.Opener, control, "mediated:"+name, token, func(or *msg.OpenResp, err error) {
			if err != nil {
				rt.ended(&m.Opener)
				cb(nil, openError("mediated:"+name, "open", err))
				return
			}
			m.maxIO = int(or.SharedBytes)
			cb(m, nil)
		})
	case KernelDirect:
		rt.openAt(0, control, "file:"+name, token, entries, fileConn(cb))
	default:
		rt.OpenService(control, "file:"+name, token, entries, fileConn(cb))
	}
}

// OpenFileCreate is a decentralized OpenFile that creates the file on the
// storage device if it does not exist ("file+create:<name>" — used for
// app-private files like index snapshots).
func (rt *Runtime) OpenFileCreate(memctrl msg.DeviceID, name string, token uint64, entries uint16, cb func(FileAPI, error)) {
	rt.OpenService(memctrl, "file+create:"+name, token, entries, fileConn(cb))
}

// fileConn hands a queue placement's connection on as a FileClient.
func fileConn(cb func(FileAPI, error)) func(*Connection, error) {
	return func(c *Connection, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		fc := &FileClient{Conn: c}
		fc.via = fc
		cb(fc, nil)
	}
}

func openError(service, stage string, err error) error {
	return fmt.Errorf("smartnic: open %q: %s: %w", service, stage, err)
}

// OpenService runs the complete Figure-2 sequence:
//
//  1. broadcast discovery of the query
//  2. provider responds
//  3. OpenReq with the authorization token
//  4. OpenResp with connection id + shared memory size
//  5. AllocReq to the memory controller
//  6. bus programs this device's IOMMU, AllocResp arrives
//  7. GrantReq extends the region to the provider; ConnectReq programs
//     the provider's virtqueue endpoint
//
// cb receives a live Connection whose Queue is ready for requests.
func (rt *Runtime) OpenService(memctrl msg.DeviceID, query string, token uint64, entries uint16, cb func(*Connection, error)) {
	// Step 1-2: discovery.
	rt.Discover(query, func(provider msg.DeviceID, service string, err error) {
		if err != nil {
			cb(nil, openError(query, "discover", err))
			return
		}
		rt.openAt(memctrl, provider, service, token, entries, cb)
	})
}

// openAt is Figure 2 from step 3 against provider: a device's service, or
// the kernel. The provider's verdict decides the rest. One that carries a
// Base is the kernel's: it mapped the queue region for the app, which
// connects at once. Otherwise the app allocates the region through memctrl
// and grants it to the provider first. A failed open gives back what it
// took, and closes what a device accepted.
func (rt *Runtime) openAt(memctrl, provider msg.DeviceID, service string, token uint64, entries uint16, cb func(*Connection, error)) {
	conn := &Connection{rt: rt}
	fail := func(stage string, err error) {
		if req := conn.Abandon(); req != nil && memctrl != 0 {
			rt.closeAt(provider, req, func(error) {})
		}
		conn.release(func(error) {}) // neither answer is waited for
		cb(nil, openError(service, stage, err))
	}
	connected := func(err error) {
		if err != nil {
			fail("connect", err)
			return
		}
		if conn.memctrl != 0 {
			rt.conns = append(rt.conns, conn)
		}
		cb(conn, nil)
	}
	// Step 3-4: open.
	rt.open(&conn.Opener, provider, service, token, func(or *msg.OpenResp, err error) {
		if err != nil {
			fail("open", err)
			return
		}
		if or.Base != 0 {
			// The kernel's region. Its connection stays out of rt.conns, so
			// a NIC reset does not quiesce it, and a failed connect leaves
			// the app's session at the kernel open (memctrl is 0): either
			// moves the E15 goldens, and waits for the one re-baseline.
			conn.VA, conn.Bytes = or.Base, or.SharedBytes
			rt.connect(&conn.Opener, or.Base, entries, connected)
			return
		}
		size := conn.RegionBytes(entries)
		// Step 5-6: allocate shared memory (bus maps our IOMMU).
		rt.AllocShared(memctrl, size, func(region uint64, err error) {
			if err != nil {
				fail("alloc", err)
				return
			}
			conn.memctrl, conn.VA, conn.Bytes = memctrl, region, size
			// Step 7a: grant the region to the provider; 7b: connect.
			rt.Grant(region, size, provider, func(err error) {
				if err != nil {
					fail("grant", err)
					return
				}
				rt.connect(&conn.Opener, region, entries, connected)
			})
		})
	})
}

// Close ends the session at its provider and, answered or not, releases it here.
func (c *Connection) Close(cb func(error)) {
	c.rt.closeAt(c.Provider, c.Abandon(), func(err error) {
		c.release(func(error) { cb(err) })
	})
}

// release gives back what an open took here, as a failed open does: the
// driver, and the region the app allocated, freed best effort like the
// rejoin sweep; then runs on the free's answer (at once on a kernel's).
func (c *Connection) release(then func(error)) {
	if i := slices.Index(c.rt.conns, c); i >= 0 { // off the crash-teardown list
		c.rt.conns = slices.Delete(c.rt.conns, i, i+1)
	}
	c.rt.ended(&c.Opener)
	if c.Queue != nil {
		c.Queue.Quiesce()
	}
	if c.memctrl == 0 {
		then(nil)
		return
	}
	c.rt.Free(c.memctrl, c.VA, c.Bytes, then)
}

// ended takes a session that ended here off the openers.
func (rt *Runtime) ended(o *device.Opener) {
	if i := slices.Index(rt.openers, o); i >= 0 {
		rt.openers = slices.Delete(rt.openers, i, i+1)
	}
}

// closeAt asks provider to end the session req names.
func (rt *Runtime) closeAt(provider msg.DeviceID, req *msg.CloseReq, cb func(error)) {
	rt.nic.call(rt.Retry, provider, req, callKey{kind: msg.KindCloseResp, id: uint64(req.ConnID), sub: uint32(provider)}, errAnswer(cb))
}
