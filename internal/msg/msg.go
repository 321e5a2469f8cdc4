// Package msg defines the system-management-bus protocol of the CPU-less
// machine: device and application identifiers, the message vocabulary of
// §2.2/§3 of "The Last CPU", and a compact binary wire encoding.
//
// The protocol carries only control traffic — discovery, service open,
// memory allocation/grant, lifecycle and error notifications. Data moves
// over the interconnect (DMA + virtqueues), never over the bus.
//
// Messages are encoded to bytes on send: the bus charges transfer time by
// encoded size, and the codec is round-trip tested, so the protocol is a
// real wire format rather than passed Go pointers.
package msg

import (
	"encoding/binary"
	"fmt"
)

// DeviceID addresses a device on the system bus. 0 is invalid.
type DeviceID uint16

// Broadcast addresses every alive device (discovery, failure notices).
const Broadcast DeviceID = 0xFFFF

// BusID is the well-known address of the system bus itself.
const BusID DeviceID = 0xFFFE

func (d DeviceID) String() string {
	switch d {
	case Broadcast:
		return "broadcast"
	case BusID:
		return "bus"
	default:
		return fmt.Sprintf("dev%d", uint16(d))
	}
}

// AppID identifies an application. Per §2.2, "what uniquely identifies
// [an application] is its virtual address space": AppID doubles as the
// PASID under which the app's address space is instantiated in each
// participating device's IOMMU. 0 is invalid.
type AppID uint32

// Role describes what a device is, which the bus needs for its few
// policy-free authorization checks (only the registered memory controller
// may authorize mappings).
type Role uint8

// Device roles.
const (
	RoleAccelerator Role = iota + 1
	RoleMemoryController
	RoleStorage
	RoleNIC
)

func (r Role) String() string {
	switch r {
	case RoleAccelerator:
		return "accelerator"
	case RoleMemoryController:
		return "memctrl"
	case RoleStorage:
		return "storage"
	case RoleNIC:
		return "nic"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Kind discriminates message types on the wire.
type Kind uint16

// Message kinds. The groups mirror the paper: lifecycle (§2.2 "System
// Initialization"), discovery (SSDP-like), service sessions (§3 steps
// 1-4, 7), memory management (§3 steps 5-6), and error handling (§4).
const (
	KindInvalid Kind = iota

	// Lifecycle.
	KindHello     // device → bus: self-test passed, record me alive
	KindHelloAck  // bus → device
	KindHeartbeat // device → bus: watchdog keep-alive
	KindReset     // bus → device: attempt restart after failure
	KindResetDone // device → bus: back up after reset

	// Discovery.
	KindDiscoverReq  // device → broadcast: who provides this service?
	KindDiscoverResp // provider → requester

	// Service sessions.
	KindOpenReq     // requester → provider: open service instance (+token)
	KindOpenResp    // provider → requester: connection details + shm size
	KindConnectReq  // requester → provider: virtqueue layout in shared VA
	KindConnectResp // provider → requester
	KindCloseReq    // requester → provider
	KindCloseResp   // provider → requester

	// Memory management.
	KindAllocReq   // device → memctrl: allocate shared memory for app at VA
	KindAllocResp  // memctrl → device; bus intercepts and programs IOMMU
	KindFreeReq    // device → memctrl
	KindFreeResp   // memctrl → device; bus unmaps
	KindGrantReq   // device → bus: grant my app mapping to another device
	KindGrantResp  // bus → device
	KindAuthReq    // bus → memctrl: is this grant authorized?
	KindAuthResp   // memctrl → bus
	KindRevokeReq  // retired: the bus NACKs it; a grant ends when its owner frees the region
	KindRevokeResp // retired with RevokeReq; both stay for wire.lock

	// Loader service (§2.1: devices storing applications internally must
	// expose a loader).
	KindLoadReq
	KindLoadResp

	// Kernel-mediated file I/O (used only by the centralized-CPU
	// baseline: the app's data path is a syscall to the kernel, which
	// performs the device I/O on its behalf — the "traditional stack"
	// the paper argues against).
	KindFileIOReq
	KindFileIOResp

	// Errors (§4).
	KindErrorNotify  // device → consumers: resource suffered a fatal error
	KindDeviceFailed // bus → broadcast: a device died
	KindNack         // bus → sender: your message could not be delivered

	// Crash recovery (§4). A device revived by a bus Reset asks the bus
	// which of its resources survived the outage; the bus answers from
	// its management tables (ownerships and grants are bus state, so no
	// other device needs to be consulted).
	KindStateQuery // revived device → bus: which of my regions survived?
	KindStateResp  // bus → device: surviving regions and their grantees

	// Flow control. The bus replenishes a sender's per-link credit
	// window after absorbing its traffic; a sender out of credits stalls
	// deterministically instead of queueing unboundedly (overload
	// resilience — the performance-isolation half of the paper's §2
	// claim made mechanical).
	KindCreditUpdate // bus → device: window replenishment

	// Rack-scale fabric (internal/fabric). N machines joined by a modeled
	// datacenter network run a sharded, replicated KVS; these kinds carry
	// the cross-machine traffic. They reuse the bus Envelope framing —
	// Src/Dst are machine addresses on the fabric rather than device
	// addresses on a bus — so the codec, fuzz corpus and dedup window all
	// apply unchanged.
	KindFabricReq    // ingress router → shard owner: routed client request
	KindFabricResp   // shard owner → ingress router: routed response
	KindReplicate    // primary → backup: apply one write
	KindReplicateAck // backup → primary: write is durable at the replica
	KindRingUpdate   // head node → all machines: membership epoch + dead set

	// Fleet reconciliation (internal/reconcile). The management-plane
	// vocabulary of the level-triggered fleet reconciler: declared specs
	// gossip between machines, machines report status conditions, and
	// planned membership change runs as a prepare/commit protocol over
	// staged ring configurations. Like the fabric kinds, Src/Dst are
	// machine addresses.
	KindSpecGossip // reconciler → machines: declared fleet spec (versioned)
	KindCondReport // machine → reconciler: status conditions + transfer done
	KindDrain      // reconciler → machine: cordon / uncordon / upgrade order
	KindRingConfig // coordinator → machines: staged membership (prepare/commit/abort)

	// Multi-tenancy (internal/tenant). TenantGrant is retired: the bus
	// NACKs it, since no device may bind itself or an app to a tenant
	// domain (the machine's builder does, through core.Options.Tenancy),
	// and it stays for wire.lock. DenialReport is the typed, attributed
	// refusal every cross-tenant attack receives — the S1 invariant
	// ("never silently dropped") made a wire message so the attacker
	// provably observed a refusal.
	KindTenantGrant  // retired: the bus NACKs it; kept for wire.lock
	KindDenialReport // bus/device → offender: typed cross-tenant refusal

	// Epoch leases (internal/fabric). A machine may serve as primary (or
	// act as the reconcile actor) only while holding a virtual-clock
	// lease countersigned by a quorum of the ring membership. Renew asks
	// every member to countersign one round; Grant is the countersign;
	// Revoke is the typed refusal a member sends when its view already
	// holds the would-be holder dead — carrying that dead set, so a
	// fenced machine learns why it was fenced instead of timing out in
	// the dark. Src/Dst are machine addresses.
	KindLeaseRenew  // holder → ring members: countersign my lease for this round
	KindLeaseGrant  // member → holder: countersigned until the stated virtual time
	KindLeaseRevoke // member → holder: refused — my view holds you dead

	kindMax
)

var kindNames = map[Kind]string{
	KindHello: "hello", KindHelloAck: "hello.ack", KindHeartbeat: "heartbeat",
	KindReset: "reset", KindResetDone: "reset.done",
	KindDiscoverReq: "discover.req", KindDiscoverResp: "discover.resp",
	KindOpenReq: "open.req", KindOpenResp: "open.resp",
	KindConnectReq: "connect.req", KindConnectResp: "connect.resp",
	KindCloseReq: "close.req", KindCloseResp: "close.resp",
	KindAllocReq: "alloc.req", KindAllocResp: "alloc.resp",
	KindFreeReq: "free.req", KindFreeResp: "free.resp",
	KindGrantReq: "grant.req", KindGrantResp: "grant.resp",
	KindAuthReq: "auth.req", KindAuthResp: "auth.resp",
	KindRevokeReq: "revoke.req", KindRevokeResp: "revoke.resp",
	KindLoadReq: "load.req", KindLoadResp: "load.resp",
	KindFileIOReq: "fileio.req", KindFileIOResp: "fileio.resp",
	KindErrorNotify: "error.notify", KindDeviceFailed: "device.failed",
	KindNack:       "nack",
	KindStateQuery: "state.query", KindStateResp: "state.resp",
	KindCreditUpdate: "credit.update",
	KindFabricReq:    "fabric.req", KindFabricResp: "fabric.resp",
	KindReplicate: "replicate", KindReplicateAck: "replicate.ack",
	KindRingUpdate: "ring.update",
	KindSpecGossip: "spec.gossip", KindCondReport: "cond.report",
	KindDrain: "drain", KindRingConfig: "ring.config",
	KindTenantGrant: "tenant.grant", KindDenialReport: "denial.report",
	KindLeaseRenew: "lease.renew", KindLeaseGrant: "lease.grant",
	KindLeaseRevoke: "lease.revoke",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// Message is any bus message body.
type Message interface {
	Kind() Kind
	wire(c *coder)
}

// Envelope is a routed message.
//
// Seq is a link-layer sequence tag stamped by the sending port (0 means
// untagged). Receivers use it to suppress duplicates the fabric may
// inject (see DedupWindow); retransmitted requests carry fresh tags and
// rely on application-level idempotency instead.
//
// Inc is the sender's incarnation (boot count), also stamped by the
// port. A device revived after a crash bumps its incarnation, letting
// the bus fence any of the previous life's messages still in flight —
// their payloads may describe state that died with the old incarnation.
// 0 means the sender has never crashed.
type Envelope struct {
	Src DeviceID
	Dst DeviceID
	Seq uint32
	Inc uint32
	Msg Message
}

// Wire framing sizes: the envelope header is src, dst, kind (u16 each),
// payload length, sequence tag and incarnation (u32 each); the last two
// are link-layer tags that transfer-time accounting does not charge for.
const (
	headerSize  = 18
	linkTagSize = 8
)

// header moves the envelope's framing: source, destination and kind
// (u16 each), payload length, sequence tag and incarnation (u32 each).
func (e *Envelope) header(c *coder, k *Kind, n *uint32) {
	u16(c, &e.Src)
	u16(c, &e.Dst)
	u16(c, k)
	u32(c, n)
	u32(c, &e.Seq)
	u32(c, &e.Inc)
}

// AppendEncode appends the envelope's encoding to dst and returns the
// extended slice: header followed by the payload, written in one pass
// into the one buffer with the length patched in once the payload is
// down.
func (e Envelope) AppendEncode(dst []byte) []byte {
	c := coder{mode: encoding, buf: dst}
	k := e.Msg.Kind()
	var n uint32
	lenAt := len(dst) + 6 // after src, dst and kind
	e.header(&c, &k, &n)
	body := len(c.buf)
	dispatch(k, e.Msg, &c)
	binary.LittleEndian.PutUint32(c.buf[lenAt:], uint32(len(c.buf)-body))
	return c.buf
}

// Encode serializes the envelope into a fresh buffer of exactly its size.
func (e Envelope) Encode() []byte {
	return e.AppendEncode(make([]byte, 0, e.EncodedLen()))
}

// EncodedLen returns len(e.Encode()) without encoding: what a caller
// reserves before AppendEncode so the buffer is allocated once.
func (e Envelope) EncodedLen() int { return EncodedSize(e.Msg) + linkTagSize }

// Decode parses an envelope produced by Encode.
//
// The message's byte fields (FabricReq.Payload, Replicate.Value,
// FileIOReq.Data, ...) alias b rather than copy it: a frame is written
// once, when it is encoded, and only read afterwards. The caller must
// not modify b after Decode, and a handler must not write into a decoded
// byte field; one that needs a buffer of its own copies, and so does a
// handler that keeps a byte field past its return (a fabric frame shares
// its chunk with other frames, so a kept window pins them all). Strings
// and lists are copied as before.
func Decode(b []byte) (Envelope, error) { return DecodeInto(b, nil) }

// DecodeInto is Decode into bodies the caller owns. body, when not nil,
// is asked for the message of the frame's kind once the header is read:
// it returns a body of that kind's type, which the decode overwrites
// whole, or nil for a fresh one. Every field of a reused body is written
// and every list made anew, so it keeps nothing of the frame it held
// before; its byte fields borrow b as Decode's do. After an error the
// body holds a partial decode.
func DecodeInto(b []byte, body func(Kind) Message) (Envelope, error) {
	c := coder{mode: decoding, buf: b}
	var e Envelope
	var k Kind
	var n uint32
	e.header(&c, &k, &n)
	if c.err != nil {
		return Envelope{}, fmt.Errorf("msg: short header: %w", c.err)
	}
	if int(n) != len(c.buf)-c.off {
		return Envelope{}, fmt.Errorf("msg: payload length %d does not match remaining %d bytes", n, len(c.buf)-c.off)
	}
	var m Message
	if body != nil {
		m = body(k)
	}
	if e.Msg = dispatch(k, m, &c); e.Msg == nil {
		return Envelope{}, fmt.Errorf("msg: unknown kind %d", k)
	}
	if c.err != nil {
		return Envelope{}, fmt.Errorf("msg: decoding %v: %w", k, c.err)
	}
	if c.off != len(c.buf) {
		return Envelope{}, fmt.Errorf("msg: %d trailing bytes after %v", len(c.buf)-c.off, k)
	}
	return e, nil
}

// EncodedSize returns the wire size a message is charged for in
// transfer-time accounting. The link-layer sequence tag and incarnation
// stamp are excluded — like an Ethernet preamble they are fabric
// framing, not payload — so bus timing is independent of whether ports
// stamp tags.
func EncodedSize(m Message) int {
	c := coder{mode: sizing}
	dispatch(m.Kind(), m, &c)
	return c.off + headerSize - linkTagSize
}
