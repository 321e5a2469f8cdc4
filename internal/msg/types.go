package msg

// This file defines every message body. Each type lists its fields once,
// in wire order, in its wire method, which a coder runs to size, encode
// and decode it (wire.go); the wireproto lint extracts the schema from
// that one body and holds it to wire.lock. dispatch, at the end, is the
// registry of kinds.

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
func (m *Hello) wire(c *coder) {
	u8(c, &m.Role)
	c.str(&m.Name)
	c.strs(&m.Services)
	c.optU32(&m.Incarnation)
}

// HelloAck confirms registration.
type HelloAck struct{}

func (*HelloAck) Kind() Kind  { return KindHelloAck }
func (*HelloAck) wire(*coder) {}

// Heartbeat is the watchdog keep-alive.
type Heartbeat struct{ Seq uint64 }

func (*Heartbeat) Kind() Kind      { return KindHeartbeat }
func (m *Heartbeat) wire(c *coder) { u64(c, &m.Seq) }

// Reset orders a device to restart (§4: "The bus can also send a reset
// signal to the failed device in an attempt to restart it").
type Reset struct{ Reason string }

func (*Reset) Kind() Kind      { return KindReset }
func (m *Reset) wire(c *coder) { c.str(&m.Reason) }

// ResetDone reports a device back up after Reset.
type ResetDone struct{}

func (*ResetDone) Kind() Kind  { return KindResetDone }
func (*ResetDone) wire(*coder) {}

// DiscoverReq asks, by broadcast, which device provides a service
// (§3 step 1: "a broadcast message (containing the file name)").
// Query is a service selector such as "file:kv.dat" or "loader".
type DiscoverReq struct {
	Query string
	Nonce uint32 // correlates responses with requests
}

func (*DiscoverReq) Kind() Kind { return KindDiscoverReq }
func (m *DiscoverReq) wire(c *coder) {
	c.str(&m.Query)
	u32(c, &m.Nonce)
}

// DiscoverResp is a provider's answer (§3 step 2).
type DiscoverResp struct {
	Query   string
	Nonce   uint32
	Service string // concrete service name to open
}

func (*DiscoverResp) Kind() Kind { return KindDiscoverResp }
func (m *DiscoverResp) wire(c *coder) {
	c.str(&m.Query)
	u32(c, &m.Nonce)
	c.str(&m.Service)
}

// OpenReq opens a service instance (§3 step 3, "including an
// authorization token").
type OpenReq struct {
	Service string
	App     AppID
	Token   uint64
}

func (*OpenReq) Kind() Kind { return KindOpenReq }
func (m *OpenReq) wire(c *coder) {
	c.str(&m.Service)
	u32(c, &m.App)
	u64(c, &m.Token)
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
func (m *OpenResp) wire(c *coder) {
	c.str(&m.Service)
	u32(c, &m.App)
	c.bool(&m.OK)
	c.str(&m.Reason)
	u32(c, &m.ConnID)
	u64(c, &m.SharedBytes)
	u64(c, &m.Base)
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
func (m *ConnectReq) wire(c *coder) {
	c.str(&m.Service)
	u32(c, &m.ConnID)
	u32(c, &m.App)
	u64(c, &m.RingVA)
	u16(c, &m.RingEntries)
	u64(c, &m.DataVA)
	u64(c, &m.DataBytes)
	u64(c, &m.ReqDoorbell)
	u64(c, &m.RespDoorbell)
}

// ConnectResp acknowledges ConnectReq.
type ConnectResp struct {
	ConnID uint32
	OK     bool
	Reason string
}

func (*ConnectResp) Kind() Kind { return KindConnectResp }
func (m *ConnectResp) wire(c *coder) {
	u32(c, &m.ConnID)
	c.bool(&m.OK)
	c.str(&m.Reason)
}

// CloseReq tears down a service connection.
type CloseReq struct {
	Service string
	ConnID  uint32
	App     AppID
}

func (*CloseReq) Kind() Kind { return KindCloseReq }
func (m *CloseReq) wire(c *coder) {
	c.str(&m.Service)
	u32(c, &m.ConnID)
	u32(c, &m.App)
}

// CloseResp acknowledges CloseReq.
type CloseResp struct {
	ConnID uint32
	OK     bool
}

func (*CloseResp) Kind() Kind { return KindCloseResp }
func (m *CloseResp) wire(c *coder) {
	u32(c, &m.ConnID)
	c.bool(&m.OK)
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
func (m *AllocReq) wire(c *coder) {
	u32(c, &m.App)
	u64(c, &m.VA)
	u64(c, &m.Bytes)
	u8(c, &m.Perm)
	c.bool(&m.Huge)
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
func (m *AllocResp) wire(c *coder) {
	u32(c, &m.App)
	c.bool(&m.OK)
	c.str(&m.Reason)
	u64(c, &m.VA)
	c.u64s(&m.Frames)
	u8(c, &m.Perm)
	c.bool(&m.Huge)
}

// FreeReq returns memory to the controller.
type FreeReq struct {
	App   AppID
	VA    uint64
	Bytes uint64
}

func (*FreeReq) Kind() Kind { return KindFreeReq }
func (m *FreeReq) wire(c *coder) {
	u32(c, &m.App)
	u64(c, &m.VA)
	u64(c, &m.Bytes)
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
func (m *FreeResp) wire(c *coder) {
	u32(c, &m.App)
	c.bool(&m.OK)
	c.str(&m.Reason)
	u64(c, &m.VA)
	u64(c, &m.Bytes)
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
func (m *GrantReq) wire(c *coder) {
	u32(c, &m.App)
	u64(c, &m.VA)
	u64(c, &m.Bytes)
	u16(c, &m.Target)
	u8(c, &m.Perm)
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
func (m *GrantResp) wire(c *coder) {
	u32(c, &m.App)
	c.bool(&m.OK)
	c.str(&m.Reason)
	u64(c, &m.VA)
	u16(c, &m.Target)
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
func (m *AuthReq) wire(c *coder) {
	u32(c, &m.App)
	u64(c, &m.VA)
	u64(c, &m.Bytes)
	u16(c, &m.Target)
	u8(c, &m.Perm)
	u32(c, &m.Nonce)
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
func (m *AuthResp) wire(c *coder) {
	u32(c, &m.App)
	c.bool(&m.OK)
	c.str(&m.Reason)
	u64(c, &m.VA)
	c.u64s(&m.Frames)
	u8(c, &m.Perm)
	u32(c, &m.Nonce)
	c.bool(&m.Huge)
}

// RevokeReq asked the bus to remove a granted mapping from Target. It is
// retired: the bus answers it NackUnknownKind, since a grant ends when its
// owner frees the region. The body stays for wire.lock.
type RevokeReq struct {
	App    AppID
	VA     uint64
	Bytes  uint64
	Target DeviceID
}

func (*RevokeReq) Kind() Kind { return KindRevokeReq }
func (m *RevokeReq) wire(c *coder) {
	u32(c, &m.App)
	u64(c, &m.VA)
	u64(c, &m.Bytes)
	u16(c, &m.Target)
}

// RevokeResp reported the outcome of a RevokeReq; retired with it.
type RevokeResp struct {
	App    AppID
	OK     bool
	Reason string
}

func (*RevokeResp) Kind() Kind { return KindRevokeResp }
func (m *RevokeResp) wire(c *coder) {
	u32(c, &m.App)
	c.bool(&m.OK)
	c.str(&m.Reason)
}

// LoadReq uploads a new application image via a device's loader service
// (§2.1). Token carries the §4 authentication credential.
type LoadReq struct {
	Image string
	Token uint64
	Data  []byte
}

func (*LoadReq) Kind() Kind { return KindLoadReq }
func (m *LoadReq) wire(c *coder) {
	c.str(&m.Image)
	u64(c, &m.Token)
	c.bytes(&m.Data)
}

// LoadResp reports the outcome of a LoadReq.
type LoadResp struct {
	Image  string
	OK     bool
	Reason string
}

func (*LoadResp) Kind() Kind { return KindLoadResp }
func (m *LoadResp) wire(c *coder) {
	c.str(&m.Image)
	c.bool(&m.OK)
	c.str(&m.Reason)
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
func (m *FileIOReq) wire(c *coder) {
	u32(c, &m.App)
	u32(c, &m.Handle)
	u32(c, &m.Seq)
	u8(c, &m.Op)
	u64(c, &m.Off)
	u32(c, &m.Len)
	c.bytes(&m.Data)
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
func (m *FileIOResp) wire(c *coder) {
	u32(c, &m.App)
	u32(c, &m.Handle)
	u32(c, &m.Seq)
	u8(c, &m.Status)
	u64(c, &m.Size)
	c.bytes(&m.Data)
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
func (m *ErrorNotify) wire(c *coder) {
	u32(c, &m.App)
	c.str(&m.Resource)
	u32(c, &m.Code)
	c.str(&m.Detail)
}

// DeviceFailed is the bus's broadcast when a device dies (§4: "the
// resource bus must send messages to all other devices in the system that
// may be using a resource of the failed device").
type DeviceFailed struct{ Device DeviceID }

func (*DeviceFailed) Kind() Kind      { return KindDeviceFailed }
func (m *DeviceFailed) wire(c *coder) { u16(c, &m.Device) }

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
func (m *Nack) wire(c *coder) {
	u16(c, &m.Of)
	u32(c, &m.Seq)
	u16(c, &m.Dst)
	u8(c, &m.Code)
	c.str(&m.Reason)
}

// StateQuery asks the bus which of the querying device's resources
// survived its crash (§4 recovery). The bus alone keeps the management
// tables (ownerships, grants), so a revived device reconciles against
// the bus rather than polling every peer.
type StateQuery struct{ Nonce uint32 }

func (*StateQuery) Kind() Kind      { return KindStateQuery }
func (m *StateQuery) wire(c *coder) { u32(c, &m.Nonce) }

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
func (m *StateResp) wire(c *coder) {
	u32(c, &m.Nonce)
	// A region is at least 19 bytes: App, VA, Pages, Huge and a count.
	for i := range count(c, &m.Regions, false, 19) {
		reg := &m.Regions[i]
		u32(c, &reg.App)
		u64(c, &reg.VA)
		u32(c, &reg.Pages)
		c.bool(&reg.Huge)
		for j := range count(c, &reg.Grantees, false, 2) {
			u16(c, &reg.Grantees[j])
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
func (m *CreditUpdate) wire(c *coder) {
	u32(c, &m.Window)
	u32(c, &m.Credits)
	c.optU32(&m.ForInc)
}

// --- Rack-scale fabric messages (internal/fabric) ---
//
// Envelope Src/Dst carry machine addresses on the datacenter fabric
// here, not device addresses on a bus; the framing, codec and dedup
// machinery are shared.

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
func (m *FabricReq) wire(c *coder) {
	u16(c, &m.Origin)
	u64(c, &m.ReqID)
	u8(c, &m.Hops)
	c.bytes(&m.Payload)
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
func (m *FabricResp) wire(c *coder) {
	u64(c, &m.ReqID)
	u8(c, &m.Code)
	c.devs(&m.Dead)
	c.bytes(&m.Payload)
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
func (m *Replicate) wire(c *coder) {
	u32(c, &m.Epoch)
	u64(c, &m.Seq)
	c.bool(&m.Del)
	c.bool(&m.Sync)
	c.str(&m.Key)
	c.bytes(&m.Value)
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
func (m *ReplicateAck) wire(c *coder) {
	u64(c, &m.Seq)
	c.bool(&m.OK)
	u32(c, &m.Epoch)
	c.devs(&m.Dead)
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
func (m *RingUpdate) wire(c *coder) {
	u32(c, &m.Epoch)
	c.devs(&m.Dead)
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
func (m *SpecGossip) wire(c *coder) {
	u64(c, &m.SpecVer)
	u16(c, &m.Size)
	u32(c, &m.ConfigVersion)
	u8(c, &m.MaxUnavailable)
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
func (m *CondReport) wire(c *coder) {
	u64(c, &m.Seq)
	c.bool(&m.Ready)
	c.bool(&m.Cordoned)
	c.bool(&m.Upgrading)
	u32(c, &m.ConfigVersion)
	u32(c, &m.RingVer)
	u32(c, &m.PendingVer)
	u32(c, &m.TransferVer)
	u32(c, &m.Keys)
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
func (m *Drain) wire(c *coder) {
	u8(c, &m.Mode)
	u32(c, &m.ConfigVersion)
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
func (m *RingConfig) wire(c *coder) {
	u32(c, &m.Ver)
	u8(c, &m.Phase)
	c.devs(&m.Members)
}

// --- Multi-tenancy messages (internal/tenant) ---

// TenantGrant would bind a device and/or an app to a tenant isolation
// domain, optionally declaring the tenant's budgets. It is retired: the
// bus cannot authorize its sender, so it answers NackUnknownKind, and
// bindings are set by whoever builds the machine (tenant.Registry's
// BindDevice, BindApp and SetBudget). The body stays for wire.lock.
type TenantGrant struct {
	Tenant       uint16 // tenant domain (0 is invalid)
	Device       uint16 // device to bind (0: none)
	App          uint32 // app/PASID to bind (0: none)
	CreditWindow uint32 // per-tenant bus credit window (0: inherit global)
	KVSInflight  uint32 // per-tenant KVS admission budget (0: inherit global)
	RxBound      uint32 // per-tenant NIC rx-queue share (0: inherit global)
}

func (*TenantGrant) Kind() Kind { return KindTenantGrant }
func (m *TenantGrant) wire(c *coder) {
	u16(c, &m.Tenant)
	u16(c, &m.Device)
	u32(c, &m.App)
	u32(c, &m.CreditWindow)
	u32(c, &m.KVSInflight)
	u32(c, &m.RxBound)
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
func (m *DenialReport) wire(c *coder) {
	u16(c, &m.Tenant)
	u16(c, &m.Victim)
	u8(c, &m.Class)
	u16(c, &m.Of)
	c.str(&m.Detail)
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
func (m *LeaseRenew) wire(c *coder) {
	u64(c, &m.Seq)
	u64(c, &m.Until)
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
func (m *LeaseGrant) wire(c *coder) {
	u64(c, &m.Seq)
	u64(c, &m.Until)
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
func (m *LeaseRevoke) wire(c *coder) {
	u64(c, &m.Seq)
	c.devs(&m.Dead)
}

// dispatch runs kind k's wire body on c and returns the message: m itself
// when sizing or encoding, a new message when decoding (m nil), nil for
// an unknown kind. It is the registry of wire kinds, and the one place
// the codec's three modes reach a body. Each arm calls wire on the
// concrete type: a *coder handed to an interface method, or to a method
// of a type parameter, escapes to the heap, and EncodedSize would then
// allocate, and Encode and Decode allocate once more (TestEncodeAllocs,
// TestDecodeAllocs).
func dispatch(k Kind, m Message, c *coder) Message {
	switch k {
	case KindHello:
		as[Hello](&m).wire(c)
	case KindHelloAck:
		as[HelloAck](&m).wire(c)
	case KindHeartbeat:
		as[Heartbeat](&m).wire(c)
	case KindReset:
		as[Reset](&m).wire(c)
	case KindResetDone:
		as[ResetDone](&m).wire(c)
	case KindDiscoverReq:
		as[DiscoverReq](&m).wire(c)
	case KindDiscoverResp:
		as[DiscoverResp](&m).wire(c)
	case KindOpenReq:
		as[OpenReq](&m).wire(c)
	case KindOpenResp:
		as[OpenResp](&m).wire(c)
	case KindConnectReq:
		as[ConnectReq](&m).wire(c)
	case KindConnectResp:
		as[ConnectResp](&m).wire(c)
	case KindCloseReq:
		as[CloseReq](&m).wire(c)
	case KindCloseResp:
		as[CloseResp](&m).wire(c)
	case KindAllocReq:
		as[AllocReq](&m).wire(c)
	case KindAllocResp:
		as[AllocResp](&m).wire(c)
	case KindFreeReq:
		as[FreeReq](&m).wire(c)
	case KindFreeResp:
		as[FreeResp](&m).wire(c)
	case KindGrantReq:
		as[GrantReq](&m).wire(c)
	case KindGrantResp:
		as[GrantResp](&m).wire(c)
	case KindAuthReq:
		as[AuthReq](&m).wire(c)
	case KindAuthResp:
		as[AuthResp](&m).wire(c)
	case KindRevokeReq:
		as[RevokeReq](&m).wire(c)
	case KindRevokeResp:
		as[RevokeResp](&m).wire(c)
	case KindLoadReq:
		as[LoadReq](&m).wire(c)
	case KindLoadResp:
		as[LoadResp](&m).wire(c)
	case KindFileIOReq:
		as[FileIOReq](&m).wire(c)
	case KindFileIOResp:
		as[FileIOResp](&m).wire(c)
	case KindErrorNotify:
		as[ErrorNotify](&m).wire(c)
	case KindDeviceFailed:
		as[DeviceFailed](&m).wire(c)
	case KindNack:
		as[Nack](&m).wire(c)
	case KindStateQuery:
		as[StateQuery](&m).wire(c)
	case KindStateResp:
		as[StateResp](&m).wire(c)
	case KindCreditUpdate:
		as[CreditUpdate](&m).wire(c)
	case KindFabricReq:
		as[FabricReq](&m).wire(c)
	case KindFabricResp:
		as[FabricResp](&m).wire(c)
	case KindReplicate:
		as[Replicate](&m).wire(c)
	case KindReplicateAck:
		as[ReplicateAck](&m).wire(c)
	case KindRingUpdate:
		as[RingUpdate](&m).wire(c)
	case KindSpecGossip:
		as[SpecGossip](&m).wire(c)
	case KindCondReport:
		as[CondReport](&m).wire(c)
	case KindDrain:
		as[Drain](&m).wire(c)
	case KindRingConfig:
		as[RingConfig](&m).wire(c)
	case KindTenantGrant:
		as[TenantGrant](&m).wire(c)
	case KindDenialReport:
		as[DenialReport](&m).wire(c)
	case KindLeaseRenew:
		as[LeaseRenew](&m).wire(c)
	case KindLeaseGrant:
		as[LeaseGrant](&m).wire(c)
	case KindLeaseRevoke:
		as[LeaseRevoke](&m).wire(c)
	default:
		return nil
	}
	return m
}

// as returns *m as a P, first pointing *m at a new T when it is nil.
func as[T any, P interface {
	*T
	Message
}](m *Message) P {
	if *m == nil {
		*m = P(new(T))
	}
	return (*m).(P)
}
