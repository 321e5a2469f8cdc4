package smartnic

import (
	"errors"
	"fmt"
	"slices"

	"nocpu/internal/iommu"
	"nocpu/internal/msg"
	"nocpu/internal/physmem"
	"nocpu/internal/sim"
	"nocpu/internal/virtio"
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

	// OnResourceError receives §4 error notifications from providers.
	OnResourceError func(*msg.ErrorNotify)

	// DiscoverTimeout bounds how long one discovery attempt waits for an
	// answer (retransmissions back off from here per Retry).
	DiscoverTimeout sim.Duration

	// Retry bounds timeouts and retransmission for every control request
	// (retry.go).
	Retry RetryPolicy

	// Demand-paging state (see demand.go).
	lazy          []lazyRegion
	lazyMemctrl   msg.DeviceID
	lazyAllocs    int
	pendingFaults map[uint64][]func(error)

	// conns tracks the app's open connections so a crash reset can quiesce
	// their virtqueues (recovery.go).
	conns []*Connection
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

// NIC returns the hosting device.
func (rt *Runtime) NIC() *NIC { return rt.nic }

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
		callKey{kind: msg.KindDiscoverResp, id: uint64(req.Nonce)},
		func(src msg.DeviceID, resp msg.Message, err error) {
			if err != nil {
				cb(0, "", err)
				return
			}
			cb(src, resp.(*msg.DiscoverResp).Service, nil)
		})
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
	rt.nic.call(rt.Retry, memctrl, req, callKey{kind: msg.KindAllocResp, app: rt.app, id: va},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			if err != nil {
				cb(0, err)
			} else if m := resp.(*msg.AllocResp); !m.OK {
				cb(0, fmt.Errorf("smartnic: alloc failed: %s", m.Reason))
			} else {
				cb(va, nil)
			}
		})
}

// Free returns a shared region to the controller.
func (rt *Runtime) Free(memctrl msg.DeviceID, va, bytes uint64, cb func(error)) {
	req := &msg.FreeReq{App: rt.app, VA: va, Bytes: bytes}
	rt.nic.call(rt.Retry, memctrl, req, callKey{kind: msg.KindFreeResp, app: rt.app, id: va},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			if m, _ := resp.(*msg.FreeResp); err == nil && !m.OK {
				err = fmt.Errorf("smartnic: free failed: %s", m.Reason)
			}
			cb(err)
		})
}

// Grant asks the bus to extend one of this app's regions to another
// device (§3 step 7, first half).
func (rt *Runtime) Grant(va, bytes uint64, target msg.DeviceID, cb func(error)) {
	req := &msg.GrantReq{App: rt.app, VA: va, Bytes: bytes, Target: target, Perm: uint8(iommu.PermRW)}
	rt.nic.call(rt.Retry, msg.BusID, req, callKey{kind: msg.KindGrantResp, app: rt.app, id: va, sub: uint32(target)},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			if m, _ := resp.(*msg.GrantResp); err == nil && !m.OK {
				err = fmt.Errorf("smartnic: grant to %v denied: %s", target, m.Reason)
			}
			cb(err)
		})
}

// Load uploads an image to dev's loader service (§2.1) under the
// device's loader token.
func (rt *Runtime) Load(dev msg.DeviceID, image string, token uint64, data []byte, cb func(error)) {
	req := &msg.LoadReq{Image: image, Token: token, Data: data}
	rt.nic.call(rt.Retry, dev, req, callKey{kind: msg.KindLoadResp, name: image, sub: uint32(dev)},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			if m, _ := resp.(*msg.LoadResp); err == nil && !m.OK {
				err = fmt.Errorf("smartnic: load of %q refused: %s", image, m.Reason)
			}
			cb(err)
		})
}

// open is §3 steps 3-4 against provider: a device's service, or the
// kernel in the centralized baseline. cb receives the provider's
// acceptance, or its refusal or the call's failure as an error.
func (rt *Runtime) open(provider msg.DeviceID, service string, token uint64, cb func(*msg.OpenResp, error)) {
	req := &msg.OpenReq{Service: service, App: rt.app, Token: token}
	rt.nic.call(rt.Retry, provider, req, callKey{kind: msg.KindOpenResp, app: rt.app, name: service},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			or, _ := resp.(*msg.OpenResp)
			if err == nil && !or.OK {
				err = errors.New(or.Reason)
			}
			cb(or, err)
		})
}

// connect builds the driver half of a queue over the shared region at
// base, then programs the provider's half with it (§3 step 7b; the
// driver comes first so the ConnectReq can carry the response doorbell).
// A failed connect gives its doorbell back.
func (rt *Runtime) connect(provider msg.DeviceID, service string, connID uint32, base uint64, entries uint16, cellSize int, cb func(*virtio.Driver, error)) {
	n := rt.nic
	layout := virtio.NewLayout(iommu.VirtAddr(base), entries, cellSize)
	drv, err := virtio.NewDriver(n.dev.DMA(), iommu.PASID(rt.app), layout, 0)
	if err != nil {
		cb(nil, fmt.Errorf("driver: %w", err))
		return
	}
	req := &msg.ConnectReq{
		Service: service, ConnID: connID, App: rt.app,
		RingVA: uint64(layout.Base), RingEntries: entries,
		DataVA: uint64(layout.DataVA), DataBytes: uint64(layout.DataBytes()),
		RespDoorbell: uint64(drv.RespBell),
	}
	n.call(rt.Retry, provider, req, callKey{kind: msg.KindConnectResp, id: uint64(connID), sub: uint32(provider)},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			var bell uint64
			if err == nil {
				if cr := resp.(*msg.ConnectResp); !cr.OK {
					err = errors.New(cr.Reason)
				} else if _, serr := fmt.Sscanf(cr.Reason, "reqbell=%d", &bell); serr != nil {
					err = errors.New("no request doorbell in response")
				}
			}
			if err != nil {
				drv.Quiesce()
				cb(nil, err)
				return
			}
			drv.SetRequestBell(bell)
			cb(drv, nil)
		})
}

// Connection is an established service connection with its virtqueue.
type Connection struct {
	rt       *Runtime
	Provider msg.DeviceID
	Service  string
	ConnID   uint32
	VA       uint64 // shared region base
	Bytes    uint64
	Queue    *virtio.Driver
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
		service := "mediated:" + name
		rt.open(control, service, token, func(or *msg.OpenResp, err error) {
			if err != nil {
				cb(nil, openError(service, "open", err))
				return
			}
			m := &mediatedFile{rt: rt, kernel: control, service: service, handle: or.ConnID, maxIO: int(or.SharedBytes)}
			m.via = m
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
// and grants it to the provider first.
func (rt *Runtime) openAt(memctrl, provider msg.DeviceID, service string, token uint64, entries uint16, cb func(*Connection, error)) {
	// The region the app allocated: a failed open frees it again, best
	// effort like the rejoin sweep (the answer is not waited for).
	var va, shared uint64
	fail := func(stage string, err error) {
		if va != 0 {
			rt.Free(memctrl, va, shared, func(error) {})
		}
		cb(nil, openError(service, stage, err))
	}
	// Step 3-4: open.
	rt.open(provider, service, token, func(or *msg.OpenResp, err error) {
		if err != nil {
			fail("open", err)
			return
		}
		// Every provider quotes shared memory for a default 128-entry
		// ring: its cells are what the quote holds at that size, whatever
		// ring the app builds from them.
		cellSize := virtio.CellSizeFromQuote(or.SharedBytes, 128)
		// Step 7b: program the provider's queue.
		connect := func(base, bytes uint64) {
			rt.connect(provider, service, or.ConnID, base, entries, cellSize, func(drv *virtio.Driver, err error) {
				if err != nil {
					fail("connect", err)
					return
				}
				conn := &Connection{
					rt: rt, Provider: provider, Service: service,
					ConnID: or.ConnID, VA: base, Bytes: bytes, Queue: drv,
				}
				if va != 0 {
					rt.conns = append(rt.conns, conn)
				}
				cb(conn, nil)
			})
		}
		if or.Base != 0 {
			// The kernel's region. Its connection stays out of rt.conns, so
			// a NIC reset does not quiesce it: registering it moves the E15
			// goldens, and waits for the one re-baseline.
			connect(or.Base, or.SharedBytes)
			return
		}
		lay := virtio.NewLayout(0, entries, cellSize)
		size := uint64(lay.DataVA) + uint64(lay.DataBytes())
		// Step 5-6: allocate shared memory (bus maps our IOMMU).
		rt.AllocShared(memctrl, size, func(region uint64, err error) {
			if err != nil {
				fail("alloc", err)
				return
			}
			va, shared = region, size
			// Step 7a: grant the region to the provider.
			rt.Grant(va, shared, provider, func(err error) {
				if err != nil {
					fail("grant", err)
					return
				}
				connect(va, shared)
			})
		})
	})
}

// Close tears down the connection (service side and local doorbell). If
// the provider is unreachable the local half is released regardless.
func (c *Connection) Close(cb func(error)) {
	c.rt.closeAt(c.Provider, c.Service, c.ConnID, func(err error) {
		c.rt.nic.dev.Fabric().UnregisterDoorbell(c.Queue.RespBell)
		// Off the crash-teardown list.
		if i := slices.Index(c.rt.conns, c); i >= 0 {
			c.rt.conns = slices.Delete(c.rt.conns, i, i+1)
		}
		cb(err)
	})
}

// closeAt asks provider to end session id of service.
func (rt *Runtime) closeAt(provider msg.DeviceID, service string, id uint32, cb func(error)) {
	req := &msg.CloseReq{Service: service, ConnID: id, App: rt.app}
	rt.nic.call(rt.Retry, provider, req, callKey{kind: msg.KindCloseResp, id: uint64(id), sub: uint32(provider)},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			if m, _ := resp.(*msg.CloseResp); err == nil && !m.OK {
				err = fmt.Errorf("smartnic: close refused")
			}
			cb(err)
		})
}
