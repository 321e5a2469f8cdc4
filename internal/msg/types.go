package msg

import "fmt"

// This file defines every message body. Encoders and decoders must list
// fields in identical order; the round-trip tests in msg_test.go cover
// each type, and Decode rejects trailing bytes, so drift fails loudly.

// Hello announces a device after it passes self-test (§2.2 "System
// Initialization"). Services lists what it exposes, but the bus does not
// index them: discovery stays broadcast-based (no global state).
//
// Incarnation is the device's boot count: 0 on first power-on, bumped
// by every crash recovery. It is a trailing optional field — encoded
// only when nonzero — so a first-boot Hello is byte-identical to the
// pre-incarnation wire form and old encodings still decode (with
// Incarnation 0).
type Hello struct {
	Role        Role
	Name        string
	Services    []string
	Incarnation uint32
}

func (*Hello) Kind() Kind { return KindHello }
func (m *Hello) encode(w *writer) {
	w.u8(uint8(m.Role))
	w.str(m.Name)
	w.u16(uint16(len(m.Services)))
	for _, s := range m.Services {
		w.str(s)
	}
	if m.Incarnation != 0 {
		w.u32(m.Incarnation)
	}
}
func (m *Hello) decode(r *reader) {
	m.Role = Role(r.u8())
	m.Name = r.str()
	n := int(r.u16())
	if r.err != nil || n > len(r.buf) {
		r.err = errShort
		return
	}
	if n > 0 {
		m.Services = make([]string, n)
		for i := range m.Services {
			m.Services[i] = r.str()
		}
	}
	if r.err == nil && r.off < len(r.buf) {
		m.Incarnation = r.u32()
	}
}

// HelloAck confirms registration.
type HelloAck struct{}

func (*HelloAck) Kind() Kind     { return KindHelloAck }
func (*HelloAck) encode(*writer) {}
func (*HelloAck) decode(*reader) {}

// Heartbeat is the watchdog keep-alive.
type Heartbeat struct{ Seq uint64 }

func (*Heartbeat) Kind() Kind         { return KindHeartbeat }
func (m *Heartbeat) encode(w *writer) { w.u64(m.Seq) }
func (m *Heartbeat) decode(r *reader) { m.Seq = r.u64() }

// Reset orders a device to restart (§4: "The bus can also send a reset
// signal to the failed device in an attempt to restart it").
type Reset struct{ Reason string }

func (*Reset) Kind() Kind         { return KindReset }
func (m *Reset) encode(w *writer) { w.str(m.Reason) }
func (m *Reset) decode(r *reader) { m.Reason = r.str() }

// ResetDone reports a device back up after Reset.
type ResetDone struct{}

func (*ResetDone) Kind() Kind     { return KindResetDone }
func (*ResetDone) encode(*writer) {}
func (*ResetDone) decode(*reader) {}

// DiscoverReq asks, by broadcast, which device provides a service
// (§3 step 1: "a broadcast message (containing the file name)").
// Query is a service selector such as "file:kv.dat" or "loader".
type DiscoverReq struct {
	Query string
	Nonce uint32 // correlates responses with requests
}

func (*DiscoverReq) Kind() Kind { return KindDiscoverReq }
func (m *DiscoverReq) encode(w *writer) {
	w.str(m.Query)
	w.u32(m.Nonce)
}
func (m *DiscoverReq) decode(r *reader) {
	m.Query = r.str()
	m.Nonce = r.u32()
}

// DiscoverResp is a provider's answer (§3 step 2).
type DiscoverResp struct {
	Query   string
	Nonce   uint32
	Service string // concrete service name to open
}

func (*DiscoverResp) Kind() Kind { return KindDiscoverResp }
func (m *DiscoverResp) encode(w *writer) {
	w.str(m.Query)
	w.u32(m.Nonce)
	w.str(m.Service)
}
func (m *DiscoverResp) decode(r *reader) {
	m.Query = r.str()
	m.Nonce = r.u32()
	m.Service = r.str()
}

// OpenReq opens a service instance (§3 step 3, "including an
// authorization token").
type OpenReq struct {
	Service string
	App     AppID
	Token   uint64
}

func (*OpenReq) Kind() Kind { return KindOpenReq }
func (m *OpenReq) encode(w *writer) {
	w.str(m.Service)
	w.u32(uint32(m.App))
	w.u64(m.Token)
}
func (m *OpenReq) decode(r *reader) {
	m.Service = r.str()
	m.App = AppID(r.u32())
	m.Token = r.u64()
}

// OpenResp returns "the connection details and the amount of shared
// memory required" (§3 step 4).
type OpenResp struct {
	Service     string
	App         AppID
	OK          bool
	Reason      string
	ConnID      uint32
	SharedBytes uint64 // shared memory the connection requires
	// Base is used only by the centralized baseline: the kernel reports
	// where it mapped the shared region in the app's address space
	// (decentralized opens leave it 0 — the app allocates its own VA).
	Base uint64
}

func (*OpenResp) Kind() Kind { return KindOpenResp }
func (m *OpenResp) encode(w *writer) {
	w.str(m.Service)
	w.u32(uint32(m.App))
	w.bool(m.OK)
	w.str(m.Reason)
	w.u32(m.ConnID)
	w.u64(m.SharedBytes)
	w.u64(m.Base)
}
func (m *OpenResp) decode(r *reader) {
	m.Service = r.str()
	m.App = AppID(r.u32())
	m.OK = r.bool()
	m.Reason = r.str()
	m.ConnID = r.u32()
	m.SharedBytes = r.u64()
	m.Base = r.u64()
}

// ConnectReq programs the provider's end of the connection: where in the
// app's shared virtual address space the virtqueue and data region live,
// and which doorbells to use (§3 step 7: "programming the VIRTIO queues
// in the SSD using virtual addresses").
type ConnectReq struct {
	Service      string
	ConnID       uint32
	App          AppID
	RingVA       uint64 // virtqueue base (descriptor table + rings)
	RingEntries  uint16
	DataVA       uint64 // data buffer region base
	DataBytes    uint64
	ReqDoorbell  uint64 // requester rings this after posting avail entries
	RespDoorbell uint64 // provider rings this after posting used entries
}

func (*ConnectReq) Kind() Kind { return KindConnectReq }
func (m *ConnectReq) encode(w *writer) {
	w.str(m.Service)
	w.u32(m.ConnID)
	w.u32(uint32(m.App))
	w.u64(m.RingVA)
	w.u16(m.RingEntries)
	w.u64(m.DataVA)
	w.u64(m.DataBytes)
	w.u64(m.ReqDoorbell)
	w.u64(m.RespDoorbell)
}
func (m *ConnectReq) decode(r *reader) {
	m.Service = r.str()
	m.ConnID = r.u32()
	m.App = AppID(r.u32())
	m.RingVA = r.u64()
	m.RingEntries = r.u16()
	m.DataVA = r.u64()
	m.DataBytes = r.u64()
	m.ReqDoorbell = r.u64()
	m.RespDoorbell = r.u64()
}

// ConnectResp acknowledges ConnectReq.
type ConnectResp struct {
	ConnID uint32
	OK     bool
	Reason string
}

func (*ConnectResp) Kind() Kind { return KindConnectResp }
func (m *ConnectResp) encode(w *writer) {
	w.u32(m.ConnID)
	w.bool(m.OK)
	w.str(m.Reason)
}
func (m *ConnectResp) decode(r *reader) {
	m.ConnID = r.u32()
	m.OK = r.bool()
	m.Reason = r.str()
}

// CloseReq tears down a service connection.
type CloseReq struct {
	Service string
	ConnID  uint32
	App     AppID
}

func (*CloseReq) Kind() Kind { return KindCloseReq }
func (m *CloseReq) encode(w *writer) {
	w.str(m.Service)
	w.u32(m.ConnID)
	w.u32(uint32(m.App))
}
func (m *CloseReq) decode(r *reader) {
	m.Service = r.str()
	m.ConnID = r.u32()
	m.App = AppID(r.u32())
}

// CloseResp acknowledges CloseReq.
type CloseResp struct {
	ConnID uint32
	OK     bool
}

func (*CloseResp) Kind() Kind { return KindCloseResp }
func (m *CloseResp) encode(w *writer) {
	w.u32(m.ConnID)
	w.bool(m.OK)
}
func (m *CloseResp) decode(r *reader) {
	m.ConnID = r.u32()
	m.OK = r.bool()
}

// AllocReq asks the memory controller for Bytes of physical memory mapped
// at VA in the app's address space (§3 step 5).
type AllocReq struct {
	App   AppID
	VA    uint64
	Bytes uint64
	Perm  uint8 // iommu.Perm bits
	// Huge requests 2 MiB mappings: the controller allocates contiguous
	// naturally aligned runs and the bus installs huge PTEs.
	Huge bool
}

func (*AllocReq) Kind() Kind { return KindAllocReq }
func (m *AllocReq) encode(w *writer) {
	w.u32(uint32(m.App))
	w.u64(m.VA)
	w.u64(m.Bytes)
	w.u8(m.Perm)
	w.bool(m.Huge)
}
func (m *AllocReq) decode(r *reader) {
	m.App = AppID(r.u32())
	m.VA = r.u64()
	m.Bytes = r.u64()
	m.Perm = r.u8()
	m.Huge = r.bool()
}

// AllocResp is the memory controller's answer. The bus intercepts it in
// flight and programs the requester's IOMMU (§3 step 6: "Upon seeing the
// response from the memory, the system bus programs the IOMMU belonging
// to the NIC"). Frames lists the allocated physical frames, page by page.
type AllocResp struct {
	App    AppID
	OK     bool
	Reason string
	VA     uint64
	Frames []uint64
	Perm   uint8
	// Huge marks Frames as bases of contiguous 2 MiB runs rather than
	// individual 4 KiB frames.
	Huge bool
}

func (*AllocResp) Kind() Kind { return KindAllocResp }
func (m *AllocResp) encode(w *writer) {
	w.u32(uint32(m.App))
	w.bool(m.OK)
	w.str(m.Reason)
	w.u64(m.VA)
	w.u64s(m.Frames)
	w.u8(m.Perm)
	w.bool(m.Huge)
}
func (m *AllocResp) decode(r *reader) {
	m.App = AppID(r.u32())
	m.OK = r.bool()
	m.Reason = r.str()
	m.VA = r.u64()
	m.Frames = r.u64list()
	m.Perm = r.u8()
	m.Huge = r.bool()
}

// FreeReq returns memory to the controller.
type FreeReq struct {
	App   AppID
	VA    uint64
	Bytes uint64
}

func (*FreeReq) Kind() Kind { return KindFreeReq }
func (m *FreeReq) encode(w *writer) {
	w.u32(uint32(m.App))
	w.u64(m.VA)
	w.u64(m.Bytes)
}
func (m *FreeReq) decode(r *reader) {
	m.App = AppID(r.u32())
	m.VA = r.u64()
	m.Bytes = r.u64()
}

// FreeResp confirms a free; the bus unmaps the range from the requester's
// IOMMU (and any grantees) when it sees an OK response.
type FreeResp struct {
	App    AppID
	OK     bool
	Reason string
	VA     uint64
	Bytes  uint64
}

func (*FreeResp) Kind() Kind { return KindFreeResp }
func (m *FreeResp) encode(w *writer) {
	w.u32(uint32(m.App))
	w.bool(m.OK)
	w.str(m.Reason)
	w.u64(m.VA)
	w.u64(m.Bytes)
}
func (m *FreeResp) decode(r *reader) {
	m.App = AppID(r.u32())
	m.OK = r.bool()
	m.Reason = r.str()
	m.VA = r.u64()
	m.Bytes = r.u64()
}

// GrantReq asks the bus to extend one of the requester's app mappings to
// another device (§3 step 7 first half: "grant access to the shared
// memory to the SSD"). The bus must obtain memory-controller
// authorization before programming anything (§3: "must be first
// authorized by the memory controller").
type GrantReq struct {
	App    AppID
	VA     uint64
	Bytes  uint64
	Target DeviceID
	Perm   uint8
}

func (*GrantReq) Kind() Kind { return KindGrantReq }
func (m *GrantReq) encode(w *writer) {
	w.u32(uint32(m.App))
	w.u64(m.VA)
	w.u64(m.Bytes)
	w.u16(uint16(m.Target))
	w.u8(m.Perm)
}
func (m *GrantReq) decode(r *reader) {
	m.App = AppID(r.u32())
	m.VA = r.u64()
	m.Bytes = r.u64()
	m.Target = DeviceID(r.u16())
	m.Perm = r.u8()
}

// GrantResp reports the outcome of a GrantReq.
type GrantResp struct {
	App    AppID
	OK     bool
	Reason string
	VA     uint64
	Target DeviceID
}

func (*GrantResp) Kind() Kind { return KindGrantResp }
func (m *GrantResp) encode(w *writer) {
	w.u32(uint32(m.App))
	w.bool(m.OK)
	w.str(m.Reason)
	w.u64(m.VA)
	w.u16(uint16(m.Target))
}
func (m *GrantResp) decode(r *reader) {
	m.App = AppID(r.u32())
	m.OK = r.bool()
	m.Reason = r.str()
	m.VA = r.u64()
	m.Target = DeviceID(r.u16())
}

// AuthReq is the bus's authorization query to the memory controller.
type AuthReq struct {
	App    AppID
	VA     uint64
	Bytes  uint64
	Target DeviceID
	Perm   uint8
	Nonce  uint32
}

func (*AuthReq) Kind() Kind { return KindAuthReq }
func (m *AuthReq) encode(w *writer) {
	w.u32(uint32(m.App))
	w.u64(m.VA)
	w.u64(m.Bytes)
	w.u16(uint16(m.Target))
	w.u8(m.Perm)
	w.u32(m.Nonce)
}
func (m *AuthReq) decode(r *reader) {
	m.App = AppID(r.u32())
	m.VA = r.u64()
	m.Bytes = r.u64()
	m.Target = DeviceID(r.u16())
	m.Perm = r.u8()
	m.Nonce = r.u32()
}

// AuthResp carries the controller's verdict and, when authorized, the
// physical frames backing [VA, VA+Bytes) so the bus can program the
// target IOMMU.
type AuthResp struct {
	App    AppID
	OK     bool
	Reason string
	VA     uint64
	Frames []uint64
	Perm   uint8
	Nonce  uint32
	// Huge marks Frames as 2 MiB run bases (see AllocResp).
	Huge bool
}

func (*AuthResp) Kind() Kind { return KindAuthResp }
func (m *AuthResp) encode(w *writer) {
	w.u32(uint32(m.App))
	w.bool(m.OK)
	w.str(m.Reason)
	w.u64(m.VA)
	w.u64s(m.Frames)
	w.u8(m.Perm)
	w.u32(m.Nonce)
	w.bool(m.Huge)
}
func (m *AuthResp) decode(r *reader) {
	m.App = AppID(r.u32())
	m.OK = r.bool()
	m.Reason = r.str()
	m.VA = r.u64()
	m.Frames = r.u64list()
	m.Perm = r.u8()
	m.Nonce = r.u32()
	m.Huge = r.bool()
}

// RevokeReq removes a previously granted mapping from Target.
type RevokeReq struct {
	App    AppID
	VA     uint64
	Bytes  uint64
	Target DeviceID
}

func (*RevokeReq) Kind() Kind { return KindRevokeReq }
func (m *RevokeReq) encode(w *writer) {
	w.u32(uint32(m.App))
	w.u64(m.VA)
	w.u64(m.Bytes)
	w.u16(uint16(m.Target))
}
func (m *RevokeReq) decode(r *reader) {
	m.App = AppID(r.u32())
	m.VA = r.u64()
	m.Bytes = r.u64()
	m.Target = DeviceID(r.u16())
}

// RevokeResp reports the outcome of a RevokeReq.
type RevokeResp struct {
	App    AppID
	OK     bool
	Reason string
}

func (*RevokeResp) Kind() Kind { return KindRevokeResp }
func (m *RevokeResp) encode(w *writer) {
	w.u32(uint32(m.App))
	w.bool(m.OK)
	w.str(m.Reason)
}
func (m *RevokeResp) decode(r *reader) {
	m.App = AppID(r.u32())
	m.OK = r.bool()
	m.Reason = r.str()
}

// LoadReq uploads a new application image via a device's loader service
// (§2.1). Token carries the §4 authentication credential.
type LoadReq struct {
	Image string
	Token uint64
	Data  []byte
}

func (*LoadReq) Kind() Kind { return KindLoadReq }
func (m *LoadReq) encode(w *writer) {
	w.str(m.Image)
	w.u64(m.Token)
	w.bytes(m.Data)
}
func (m *LoadReq) decode(r *reader) {
	m.Image = r.str()
	m.Token = r.u64()
	m.Data = r.bytesField()
}

// LoadResp reports the outcome of a LoadReq.
type LoadResp struct {
	Image  string
	OK     bool
	Reason string
}

func (*LoadResp) Kind() Kind { return KindLoadResp }
func (m *LoadResp) encode(w *writer) {
	w.str(m.Image)
	w.bool(m.OK)
	w.str(m.Reason)
}
func (m *LoadResp) decode(r *reader) {
	m.Image = r.str()
	m.OK = r.bool()
	m.Reason = r.str()
}

// FileIOReq is a kernel-mediated file operation (centralized baseline
// only): the app traps to the kernel, which performs the device I/O.
type FileIOReq struct {
	App    AppID
	Handle uint32 // kernel file handle from the mediated open
	Seq    uint32 // correlates responses
	Op     uint8  // smartssd.FileOp
	Off    uint64
	Len    uint32
	Data   []byte
}

func (*FileIOReq) Kind() Kind { return KindFileIOReq }
func (m *FileIOReq) encode(w *writer) {
	w.u32(uint32(m.App))
	w.u32(m.Handle)
	w.u32(m.Seq)
	w.u8(m.Op)
	w.u64(m.Off)
	w.u32(m.Len)
	w.bytes(m.Data)
}
func (m *FileIOReq) decode(r *reader) {
	m.App = AppID(r.u32())
	m.Handle = r.u32()
	m.Seq = r.u32()
	m.Op = r.u8()
	m.Off = r.u64()
	m.Len = r.u32()
	m.Data = r.bytesField()
}

// FileIOResp is the kernel's completion for a FileIOReq.
type FileIOResp struct {
	App    AppID
	Handle uint32
	Seq    uint32
	Status uint8 // smartssd.Status
	Size   uint64
	Data   []byte
}

func (*FileIOResp) Kind() Kind { return KindFileIOResp }
func (m *FileIOResp) encode(w *writer) {
	w.u32(uint32(m.App))
	w.u32(m.Handle)
	w.u32(m.Seq)
	w.u8(m.Status)
	w.u64(m.Size)
	w.bytes(m.Data)
}
func (m *FileIOResp) decode(r *reader) {
	m.App = AppID(r.u32())
	m.Handle = r.u32()
	m.Seq = r.u32()
	m.Status = r.u8()
	m.Size = r.u64()
	m.Data = r.bytesField()
}

// ErrorNotify tells a consumer that a resource it uses suffered a fatal
// error and is being reset (§4: "It must send a message to any consumer
// using that resource and then reset the resource").
type ErrorNotify struct {
	App      AppID
	Resource string
	Code     uint32
	Detail   string
}

func (*ErrorNotify) Kind() Kind { return KindErrorNotify }
func (m *ErrorNotify) encode(w *writer) {
	w.u32(uint32(m.App))
	w.str(m.Resource)
	w.u32(m.Code)
	w.str(m.Detail)
}
func (m *ErrorNotify) decode(r *reader) {
	m.App = AppID(r.u32())
	m.Resource = r.str()
	m.Code = r.u32()
	m.Detail = r.str()
}

// DeviceFailed is the bus's broadcast when a device dies (§4: "the
// resource bus must send messages to all other devices in the system that
// may be using a resource of the failed device").
type DeviceFailed struct{ Device DeviceID }

func (*DeviceFailed) Kind() Kind         { return KindDeviceFailed }
func (m *DeviceFailed) encode(w *writer) { w.u16(uint16(m.Device)) }
func (m *DeviceFailed) decode(r *reader) { m.Device = DeviceID(r.u16()) }

// NackCode classifies why the bus refused to deliver a message.
type NackCode uint8

// Nack codes.
const (
	NackUnknownDst   NackCode = iota + 1 // destination never attached
	NackDeadDst                          // destination marked failed
	NackUnauthorized                     // message violated a bus policy check
	NackUnknownKind                      // bus-addressed message it cannot handle
	NackOverload                         // receiver shed the message under load
)

// Nack tells a sender its message was not delivered (replacing the bus's
// previous silent drop, per §4's requirement that errors be reported to
// the parties involved). Of/Seq identify the refused envelope so the
// sender can correlate it with an in-flight request and retry early
// instead of waiting for its timeout.
type Nack struct {
	Of     Kind     // kind of the refused message
	Seq    uint32   // link-layer tag of the refused envelope
	Dst    DeviceID // where it was headed
	Code   NackCode
	Reason string
}

func (*Nack) Kind() Kind { return KindNack }
func (m *Nack) encode(w *writer) {
	w.u16(uint16(m.Of))
	w.u32(m.Seq)
	w.u16(uint16(m.Dst))
	w.u8(uint8(m.Code))
	w.str(m.Reason)
}
func (m *Nack) decode(r *reader) {
	m.Of = Kind(r.u16())
	m.Seq = r.u32()
	m.Dst = DeviceID(r.u16())
	m.Code = NackCode(r.u8())
	m.Reason = r.str()
}

// StateQuery asks the bus which of the querying device's resources
// survived its crash (§4 recovery). The bus alone keeps the management
// tables (ownerships, grants), so a revived device reconciles against
// the bus rather than polling every peer.
type StateQuery struct{ Nonce uint32 }

func (*StateQuery) Kind() Kind         { return KindStateQuery }
func (m *StateQuery) encode(w *writer) { w.u32(m.Nonce) }
func (m *StateQuery) decode(r *reader) { m.Nonce = r.u32() }

// OwnedRegion is one surviving allocation reported in a StateResp: an
// app region the queried device still owns, with the devices currently
// holding grants on it.
type OwnedRegion struct {
	App      AppID
	VA       uint64
	Pages    uint32 // 4 KiB units
	Huge     bool
	Grantees []DeviceID
}

// StateResp is the bus's answer to a StateQuery, listing the surviving
// regions in (app, va) order.
type StateResp struct {
	Nonce   uint32
	Regions []OwnedRegion
}

func (*StateResp) Kind() Kind { return KindStateResp }
func (m *StateResp) encode(w *writer) {
	w.u32(m.Nonce)
	w.u16(uint16(len(m.Regions)))
	for _, reg := range m.Regions {
		w.u32(uint32(reg.App))
		w.u64(reg.VA)
		w.u32(reg.Pages)
		w.bool(reg.Huge)
		w.u16(uint16(len(reg.Grantees)))
		for _, g := range reg.Grantees {
			w.u16(uint16(g))
		}
	}
}
func (m *StateResp) decode(r *reader) {
	m.Nonce = r.u32()
	n := int(r.u16())
	if r.err != nil || n > len(r.buf) {
		r.err = errShort // claimed count exceeds remaining bytes: bomb
		return
	}
	if n > 0 {
		m.Regions = make([]OwnedRegion, n)
		for i := range m.Regions {
			reg := &m.Regions[i]
			reg.App = AppID(r.u32())
			reg.VA = r.u64()
			reg.Pages = r.u32()
			reg.Huge = r.bool()
			g := int(r.u16())
			if r.err != nil || g > len(r.buf) {
				r.err = errShort
				return
			}
			if g > 0 {
				reg.Grantees = make([]DeviceID, g)
				for j := range reg.Grantees {
					reg.Grantees[j] = DeviceID(r.u16())
				}
			}
		}
	}
}

// CreditUpdate replenishes a sender's per-link credit window. The bus
// issues one after absorbing roughly half a window of the device's
// traffic; the port adds Credits to its balance and drains any stalled
// sends. Window echoes the configured window size so a freshly reset
// device can resynchronize its balance instead of accumulating stale
// credit.
// ForInc fences the replenishment to one life of the port: the bus
// stamps the recipient incarnation it is crediting, and a port drops an
// update stamped for a different incarnation with a typed refusal
// (StaleCreditDropped). Without the fence, a captured CreditUpdate from
// a previous incarnation replayed after the device's reset would
// silently inflate the new life's window beyond what the bus granted.
// Trailing optional, encoded only when nonzero, so never-crashed ports
// (incarnation 0) keep the legacy wire form byte-identical.
type CreditUpdate struct {
	Window  uint32 // configured window size (0 = flow control off)
	Credits uint32 // credits being returned
	ForInc  uint32 // recipient incarnation this credit was issued for
}

func (*CreditUpdate) Kind() Kind { return KindCreditUpdate }
func (m *CreditUpdate) encode(w *writer) {
	w.u32(m.Window)
	w.u32(m.Credits)
	if m.ForInc != 0 {
		w.u32(m.ForInc)
	}
}
func (m *CreditUpdate) decode(r *reader) {
	m.Window = r.u32()
	m.Credits = r.u32()
	if r.err == nil && r.off < len(r.buf) {
		m.ForInc = r.u32()
	}
}

// --- Rack-scale fabric messages (internal/fabric) ---
//
// Envelope Src/Dst carry machine addresses on the datacenter fabric
// here, not device addresses on a bus; the framing, codec and dedup
// machinery are shared.

// encodeDevs/decodeDevs frame a short machine list (dead-set gossip).
// The decoder inherits u16list's bomb guard: a claimed count larger
// than the remaining payload is refused without allocating.
func encodeDevs(w *writer, ds []DeviceID) {
	w.u16(uint16(len(ds)))
	for _, d := range ds {
		w.u16(uint16(d))
	}
}

func decodeDevs(r *reader) []DeviceID {
	raw := r.u16list()
	if raw == nil {
		return nil
	}
	out := make([]DeviceID, len(raw))
	for i, v := range raw {
		out[i] = DeviceID(v)
	}
	return out
}

// Fabric response codes (FabricResp.Code).
const (
	FabricServed      uint8 = iota // Payload holds the store's response
	FabricWrongOwner               // responder does not own the key in its view
	FabricUnavailable              // responder's store is not serving
)

// FabricReq is a client request routed across the fabric to the
// machine owning the key's shard. Origin is the machine holding the
// client connection (the responder answers it directly even when the
// request arrived via the head node), ReqID is origin-scoped, and
// Payload is the client's kvs request, forwarded verbatim.
type FabricReq struct {
	Origin  DeviceID
	ReqID   uint64
	Hops    uint8 // forwarding hops so far (loop guard)
	Payload []byte
}

func (*FabricReq) Kind() Kind { return KindFabricReq }
func (m *FabricReq) encode(w *writer) {
	w.u16(uint16(m.Origin))
	w.u64(m.ReqID)
	w.u8(m.Hops)
	w.bytes(m.Payload)
}
func (m *FabricReq) decode(r *reader) {
	m.Origin = DeviceID(r.u16())
	m.ReqID = r.u64()
	m.Hops = r.u8()
	m.Payload = r.bytesField()
}

// FabricResp answers a FabricReq. Dead piggybacks the responder's dead
// set so membership views converge with data traffic (anti-entropy
// gossip); a WrongOwner code tells the origin its ring view is stale
// and the Dead list is how it catches up before re-routing.
type FabricResp struct {
	ReqID   uint64
	Code    uint8
	Dead    []DeviceID
	Payload []byte
}

func (*FabricResp) Kind() Kind { return KindFabricResp }
func (m *FabricResp) encode(w *writer) {
	w.u64(m.ReqID)
	w.u8(m.Code)
	encodeDevs(w, m.Dead)
	w.bytes(m.Payload)
}
func (m *FabricResp) decode(r *reader) {
	m.ReqID = r.u64()
	m.Code = r.u8()
	m.Dead = decodeDevs(r)
	m.Payload = r.bytesField()
}

// Replicate carries one write from a key's primary to its backup.
// Seq is primary-assigned and strictly increasing per key; Epoch is the
// sender's membership epoch when the write was issued. The backup
// applies the record only if (Epoch, Seq) exceeds its per-key
// watermark, which is what makes duplicate delivery and post-failover
// stragglers harmless (R2). Sync marks a re-replication sweep record
// (restoring redundancy after a membership change) rather than a
// client write.
type Replicate struct {
	Epoch uint32
	Seq   uint64
	Del   bool
	Sync  bool
	Key   string
	Value []byte
}

func (*Replicate) Kind() Kind { return KindReplicate }
func (m *Replicate) encode(w *writer) {
	w.u32(m.Epoch)
	w.u64(m.Seq)
	w.bool(m.Del)
	w.bool(m.Sync)
	w.str(m.Key)
	w.bytes(m.Value)
}
func (m *Replicate) decode(r *reader) {
	m.Epoch = r.u32()
	m.Seq = r.u64()
	m.Del = r.bool()
	m.Sync = r.bool()
	m.Key = r.str()
	m.Value = r.bytesField()
}

// ReplicateAck confirms a Replicate is durable at the backup. The
// primary acknowledges the client only after this arrives (R1: a
// whole-machine kill of either replica loses no acked write). Epoch
// and Dead gossip the responder's membership view back, so a primary
// replicating to a machine with a newer view catches up immediately.
type ReplicateAck struct {
	Seq   uint64
	OK    bool
	Epoch uint32
	Dead  []DeviceID
}

func (*ReplicateAck) Kind() Kind { return KindReplicateAck }
func (m *ReplicateAck) encode(w *writer) {
	w.u64(m.Seq)
	w.bool(m.OK)
	w.u32(m.Epoch)
	encodeDevs(w, m.Dead)
}
func (m *ReplicateAck) decode(r *reader) {
	m.Seq = r.u64()
	m.OK = r.bool()
	m.Epoch = r.u32()
	m.Dead = decodeDevs(r)
}

// RingUpdate is the head node's membership broadcast (head-node flavor
// only): the authoritative epoch and dead set every machine must adopt.
// The decentralized flavor has no such authority — views converge by
// the gossip fields on data-path responses instead.
type RingUpdate struct {
	Epoch uint32
	Dead  []DeviceID
}

func (*RingUpdate) Kind() Kind { return KindRingUpdate }
func (m *RingUpdate) encode(w *writer) {
	w.u32(m.Epoch)
	encodeDevs(w, m.Dead)
}
func (m *RingUpdate) decode(r *reader) {
	m.Epoch = r.u32()
	m.Dead = decodeDevs(r)
}

// --- Fleet reconciliation messages (internal/reconcile) ---
//
// Like the fabric kinds above, these ride the Envelope framing with
// machine addresses. They are the management-bus vocabulary of the
// fleet reconciler: desired state gossips between per-NIC reconcilers,
// machines report status conditions, and planned membership change is
// a prepare/commit protocol over ring configurations.

// RingConfig phases (RingConfig.Phase).
const (
	RingPrepare uint8 = iota + 1 // stage the new membership; start key transfer
	RingCommit                   // every transfer done: atomically adopt the ring
	RingAbort                    // a participant died mid-transition; drop the staging
)

// Drain modes (Drain.Mode).
const (
	DrainCordon   uint8 = iota + 1 // stop accepting new client ingress
	DrainUncordon                  // resume client ingress
	DrainUpgrade                   // flash ConfigVersion and report back when done
)

// SpecGossip carries the declared fleet spec between reconcilers. The
// decentralized flavor gossips it peer-to-peer so every machine knows
// the goal state and any live machine can act on it; the head-node
// flavor hands it to the head alone. SpecVer orders revisions: a
// receiver adopts a spec only if SpecVer exceeds what it holds.
type SpecGossip struct {
	SpecVer        uint64
	Size           uint16 // desired in-ring machine count
	ConfigVersion  uint32 // desired config/firmware version on every member
	MaxUnavailable uint8  // disruption budget for voluntary actions
}

func (*SpecGossip) Kind() Kind { return KindSpecGossip }
func (m *SpecGossip) encode(w *writer) {
	w.u64(m.SpecVer)
	w.u16(m.Size)
	w.u32(m.ConfigVersion)
	w.u8(m.MaxUnavailable)
}
func (m *SpecGossip) decode(r *reader) {
	m.SpecVer = r.u64()
	m.Size = r.u16()
	m.ConfigVersion = r.u32()
	m.MaxUnavailable = r.u8()
}

// CondReport is one machine's status-condition report (machine-
// controller style): readiness, cordon/upgrade state, the config and
// ring versions it runs, and — when TransferVer is nonzero — the
// completion notice for a staged ring transition's key transfer.
type CondReport struct {
	Seq           uint64
	Ready         bool
	Cordoned      bool
	Upgrading     bool
	ConfigVersion uint32
	RingVer       uint32
	PendingVer    uint32 // staged-but-uncommitted ring version (0: none)
	TransferVer   uint32 // nonzero: transfer for this staged ring version is done
	Keys          uint32 // local shard size (status detail)
}

func (*CondReport) Kind() Kind { return KindCondReport }
func (m *CondReport) encode(w *writer) {
	w.u64(m.Seq)
	w.bool(m.Ready)
	w.bool(m.Cordoned)
	w.bool(m.Upgrading)
	w.u32(m.ConfigVersion)
	w.u32(m.RingVer)
	w.u32(m.PendingVer)
	w.u32(m.TransferVer)
	w.u32(m.Keys)
}
func (m *CondReport) decode(r *reader) {
	m.Seq = r.u64()
	m.Ready = r.bool()
	m.Cordoned = r.bool()
	m.Upgrading = r.bool()
	m.ConfigVersion = r.u32()
	m.RingVer = r.u32()
	m.PendingVer = r.u32()
	m.TransferVer = r.u32()
	m.Keys = r.u32()
}

// Drain is the reconciler's order to one machine: cordon (stop taking
// client traffic), uncordon, or upgrade to ConfigVersion (legal only
// while the machine is out of the ring, so flashing never races
// serving). An unknown mode is ignored by the receiver.
type Drain struct {
	Mode          uint8
	ConfigVersion uint32
}

func (*Drain) Kind() Kind { return KindDrain }
func (m *Drain) encode(w *writer) {
	w.u8(m.Mode)
	w.u32(m.ConfigVersion)
}
func (m *Drain) decode(r *reader) {
	m.Mode = r.u8()
	m.ConfigVersion = r.u32()
}

// RingConfig is the membership-change protocol frame. Prepare stages
// Members as ring version Ver and starts the key transfer (each current
// primary re-replicates the keys whose owner set changes); Commit
// atomically adopts the staged ring; Abort drops it. Ver is strictly
// increasing per cluster, and a router ignores any phase for a version
// at or below the one it already runs, which makes every phase
// idempotent under duplication.
type RingConfig struct {
	Ver     uint32
	Phase   uint8
	Members []DeviceID
}

func (*RingConfig) Kind() Kind { return KindRingConfig }
func (m *RingConfig) encode(w *writer) {
	w.u32(m.Ver)
	w.u8(m.Phase)
	encodeDevs(w, m.Members)
}
func (m *RingConfig) decode(r *reader) {
	m.Ver = r.u32()
	m.Phase = r.u8()
	m.Members = decodeDevs(r)
}

// --- Multi-tenancy messages (internal/tenant) ---

// TenantGrant binds a device and/or an app to a tenant isolation
// domain, optionally declaring the tenant's budgets. It is the
// provisioning message of the tenancy layer: the bus applies it to its
// attached registry, after which the per-device domain checks, the
// per-tenant credit window, and the KVS admission budget all enforce
// the binding. A zero Device or App field leaves that binding untouched
// (a grant may bind only one of the two).
type TenantGrant struct {
	Tenant       uint16 // tenant domain (0 is invalid)
	Device       uint16 // device to bind (0: none)
	App          uint32 // app/PASID to bind (0: none)
	CreditWindow uint32 // per-tenant bus credit window (0: inherit global)
	KVSInflight  uint32 // per-tenant KVS admission budget (0: inherit global)
	RxBound      uint32 // per-tenant NIC rx-queue share (0: inherit global)
}

func (*TenantGrant) Kind() Kind { return KindTenantGrant }
func (m *TenantGrant) encode(w *writer) {
	w.u16(m.Tenant)
	w.u16(m.Device)
	w.u32(m.App)
	w.u32(m.CreditWindow)
	w.u32(m.KVSInflight)
	w.u32(m.RxBound)
}
func (m *TenantGrant) decode(r *reader) {
	m.Tenant = r.u16()
	m.Device = r.u16()
	m.App = r.u32()
	m.CreditWindow = r.u32()
	m.KVSInflight = r.u32()
	m.RxBound = r.u32()
}

// DenialReport is the typed refusal of a cross-tenant access: the
// tenancy invariant S1 demands that no attack is ever silently dropped,
// so the enforcement point (bus, IOMMU front-end, KVS admission) both
// records the denial in the registry and reports it to the offender.
// Tenant is the attributed attacker, Victim the domain it targeted
// (0 when the target was infrastructure rather than a tenant), Of the
// refused message kind (KindInvalid for DMA-level denials).
type DenialReport struct {
	Tenant uint16 // attacking tenant (attribution, S3)
	Victim uint16 // targeted tenant (0: infrastructure)
	Class  uint8  // tenant.Denial class (see internal/tenant)
	Of     uint16 // refused msg.Kind, as a raw discriminator
	Detail string
}

func (*DenialReport) Kind() Kind { return KindDenialReport }
func (m *DenialReport) encode(w *writer) {
	w.u16(m.Tenant)
	w.u16(m.Victim)
	w.u8(m.Class)
	w.u16(m.Of)
	w.str(m.Detail)
}
func (m *DenialReport) decode(r *reader) {
	m.Tenant = r.u16()
	m.Victim = r.u16()
	m.Class = r.u8()
	m.Of = r.u16()
	m.Detail = r.str()
}

// LeaseRenew asks every current ring member to countersign the sender's
// machine lease for one round. Seq identifies the round (strictly
// increasing per holder; stale grants are discarded by Seq); Until is
// the virtual-clock expiry the holder will assume once a quorum
// countersigns.
type LeaseRenew struct {
	Seq   uint64
	Until uint64 // sim.Time, as raw nanoseconds
}

func (*LeaseRenew) Kind() Kind { return KindLeaseRenew }
func (m *LeaseRenew) encode(w *writer) {
	w.u64(m.Seq)
	w.u64(m.Until)
}
func (m *LeaseRenew) decode(r *reader) {
	m.Seq = r.u64()
	m.Until = r.u64()
}

// LeaseGrant countersigns one renewal round. Until echoes the renew's
// expiry: the grantor promises not to treat the holder as replaceable
// before that virtual time unless its own view declares the holder dead
// first (in which case it stops granting — dead sets never shrink).
type LeaseGrant struct {
	Seq   uint64
	Until uint64 // sim.Time, as raw nanoseconds
}

func (*LeaseGrant) Kind() Kind { return KindLeaseGrant }
func (m *LeaseGrant) encode(w *writer) {
	w.u64(m.Seq)
	w.u64(m.Until)
}
func (m *LeaseGrant) decode(r *reader) {
	m.Seq = r.u64()
	m.Until = r.u64()
}

// LeaseRevoke is the typed refusal of a renewal round: the grantor's
// membership view already holds the would-be holder dead, so it will
// never countersign again. Dead carries the refuser's dead set — the
// fenced machine learns why it lost its lease (and converges toward
// the majority view) instead of renewing into silence forever.
type LeaseRevoke struct {
	Seq  uint64
	Dead []DeviceID
}

func (*LeaseRevoke) Kind() Kind { return KindLeaseRevoke }
func (m *LeaseRevoke) encode(w *writer) {
	w.u64(m.Seq)
	encodeDevs(w, m.Dead)
}
func (m *LeaseRevoke) decode(r *reader) {
	m.Seq = r.u64()
	m.Dead = decodeDevs(r)
}

// decodeBody builds the message for kind k and decodes r into it through
// the concrete type, for the reason encodeBody gives: a *reader handed to
// an interface method escapes, and Decode wants it on its stack. nil
// means an unknown kind. This switch is the registry of wire kinds; the
// wireproto lint pass checks every arm's pairing.
func decodeBody(k Kind, r *reader) Message {
	switch k {
	case KindHello:
		m := &Hello{}
		m.decode(r)
		return m
	case KindHelloAck:
		m := &HelloAck{}
		m.decode(r)
		return m
	case KindHeartbeat:
		m := &Heartbeat{}
		m.decode(r)
		return m
	case KindReset:
		m := &Reset{}
		m.decode(r)
		return m
	case KindResetDone:
		m := &ResetDone{}
		m.decode(r)
		return m
	case KindDiscoverReq:
		m := &DiscoverReq{}
		m.decode(r)
		return m
	case KindDiscoverResp:
		m := &DiscoverResp{}
		m.decode(r)
		return m
	case KindOpenReq:
		m := &OpenReq{}
		m.decode(r)
		return m
	case KindOpenResp:
		m := &OpenResp{}
		m.decode(r)
		return m
	case KindConnectReq:
		m := &ConnectReq{}
		m.decode(r)
		return m
	case KindConnectResp:
		m := &ConnectResp{}
		m.decode(r)
		return m
	case KindCloseReq:
		m := &CloseReq{}
		m.decode(r)
		return m
	case KindCloseResp:
		m := &CloseResp{}
		m.decode(r)
		return m
	case KindAllocReq:
		m := &AllocReq{}
		m.decode(r)
		return m
	case KindAllocResp:
		m := &AllocResp{}
		m.decode(r)
		return m
	case KindFreeReq:
		m := &FreeReq{}
		m.decode(r)
		return m
	case KindFreeResp:
		m := &FreeResp{}
		m.decode(r)
		return m
	case KindGrantReq:
		m := &GrantReq{}
		m.decode(r)
		return m
	case KindGrantResp:
		m := &GrantResp{}
		m.decode(r)
		return m
	case KindAuthReq:
		m := &AuthReq{}
		m.decode(r)
		return m
	case KindAuthResp:
		m := &AuthResp{}
		m.decode(r)
		return m
	case KindRevokeReq:
		m := &RevokeReq{}
		m.decode(r)
		return m
	case KindRevokeResp:
		m := &RevokeResp{}
		m.decode(r)
		return m
	case KindLoadReq:
		m := &LoadReq{}
		m.decode(r)
		return m
	case KindLoadResp:
		m := &LoadResp{}
		m.decode(r)
		return m
	case KindFileIOReq:
		m := &FileIOReq{}
		m.decode(r)
		return m
	case KindFileIOResp:
		m := &FileIOResp{}
		m.decode(r)
		return m
	case KindErrorNotify:
		m := &ErrorNotify{}
		m.decode(r)
		return m
	case KindDeviceFailed:
		m := &DeviceFailed{}
		m.decode(r)
		return m
	case KindNack:
		m := &Nack{}
		m.decode(r)
		return m
	case KindStateQuery:
		m := &StateQuery{}
		m.decode(r)
		return m
	case KindStateResp:
		m := &StateResp{}
		m.decode(r)
		return m
	case KindCreditUpdate:
		m := &CreditUpdate{}
		m.decode(r)
		return m
	case KindFabricReq:
		m := &FabricReq{}
		m.decode(r)
		return m
	case KindFabricResp:
		m := &FabricResp{}
		m.decode(r)
		return m
	case KindReplicate:
		m := &Replicate{}
		m.decode(r)
		return m
	case KindReplicateAck:
		m := &ReplicateAck{}
		m.decode(r)
		return m
	case KindRingUpdate:
		m := &RingUpdate{}
		m.decode(r)
		return m
	case KindSpecGossip:
		m := &SpecGossip{}
		m.decode(r)
		return m
	case KindCondReport:
		m := &CondReport{}
		m.decode(r)
		return m
	case KindDrain:
		m := &Drain{}
		m.decode(r)
		return m
	case KindRingConfig:
		m := &RingConfig{}
		m.decode(r)
		return m
	case KindTenantGrant:
		m := &TenantGrant{}
		m.decode(r)
		return m
	case KindDenialReport:
		m := &DenialReport{}
		m.decode(r)
		return m
	case KindLeaseRenew:
		m := &LeaseRenew{}
		m.decode(r)
		return m
	case KindLeaseGrant:
		m := &LeaseGrant{}
		m.decode(r)
		return m
	case KindLeaseRevoke:
		m := &LeaseRevoke{}
		m.decode(r)
		return m
	}
	return nil
}

// encodeBody calls m.encode through m's concrete type. A *writer handed
// to an interface method escapes to the heap; through a static call it
// stays on the caller's stack, which is what lets EncodedSize allocate
// nothing and AppendEncode only its buffer. The arms mirror decodeBody;
// the codec-agreement test walks every kind through here.
func encodeBody(m Message, w *writer) {
	switch m := m.(type) {
	case *Hello:
		m.encode(w)
	case *HelloAck:
		m.encode(w)
	case *Heartbeat:
		m.encode(w)
	case *Reset:
		m.encode(w)
	case *ResetDone:
		m.encode(w)
	case *DiscoverReq:
		m.encode(w)
	case *DiscoverResp:
		m.encode(w)
	case *OpenReq:
		m.encode(w)
	case *OpenResp:
		m.encode(w)
	case *ConnectReq:
		m.encode(w)
	case *ConnectResp:
		m.encode(w)
	case *CloseReq:
		m.encode(w)
	case *CloseResp:
		m.encode(w)
	case *AllocReq:
		m.encode(w)
	case *AllocResp:
		m.encode(w)
	case *FreeReq:
		m.encode(w)
	case *FreeResp:
		m.encode(w)
	case *GrantReq:
		m.encode(w)
	case *GrantResp:
		m.encode(w)
	case *AuthReq:
		m.encode(w)
	case *AuthResp:
		m.encode(w)
	case *RevokeReq:
		m.encode(w)
	case *RevokeResp:
		m.encode(w)
	case *LoadReq:
		m.encode(w)
	case *LoadResp:
		m.encode(w)
	case *FileIOReq:
		m.encode(w)
	case *FileIOResp:
		m.encode(w)
	case *ErrorNotify:
		m.encode(w)
	case *DeviceFailed:
		m.encode(w)
	case *Nack:
		m.encode(w)
	case *StateQuery:
		m.encode(w)
	case *StateResp:
		m.encode(w)
	case *CreditUpdate:
		m.encode(w)
	case *FabricReq:
		m.encode(w)
	case *FabricResp:
		m.encode(w)
	case *Replicate:
		m.encode(w)
	case *ReplicateAck:
		m.encode(w)
	case *RingUpdate:
		m.encode(w)
	case *SpecGossip:
		m.encode(w)
	case *CondReport:
		m.encode(w)
	case *Drain:
		m.encode(w)
	case *RingConfig:
		m.encode(w)
	case *TenantGrant:
		m.encode(w)
	case *DenialReport:
		m.encode(w)
	case *LeaseRenew:
		m.encode(w)
	case *LeaseGrant:
		m.encode(w)
	case *LeaseRevoke:
		m.encode(w)
	default:
		panic(fmt.Sprintf("msg: no encodeBody arm for %T", m))
	}
}
