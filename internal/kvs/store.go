package kvs

import (
	"fmt"
	"sort"

	"nocpu/internal/metrics"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/smartnic"
	"nocpu/internal/tenant"
)

// Mode is where the store's file open runs and its I/O goes: smartnic's
// placement, under the store's own names.
type Mode = smartnic.Placement

// Store modes.
const (
	// ModeDecentralized is the paper's machine: bus discovery, memory
	// controller authorization, peer-to-peer virtqueue.
	ModeDecentralized = smartnic.Decentralized
	// ModeCentralDirect is the Omni-X-style baseline: kernel-mediated
	// setup (syscalls to the CPU), peer-to-peer data plane.
	ModeCentralDirect = smartnic.KernelDirect
	// ModeCentralMediated is the traditional stack: every file I/O is a
	// syscall through the kernel.
	ModeCentralMediated = smartnic.KernelMediated
)

// Config parameterizes a Store.
type Config struct {
	App msg.AppID
	// FileName is the data file on the smart SSD (discovered by
	// broadcast; §3 step 1).
	FileName string
	// Token is the file's authorization token (§3 step 3).
	Token uint64
	// Mode selects decentralized vs. centralized control/data planes.
	Mode Mode
	// Control is the control plane's bus address: the memory controller
	// in decentralized mode, the CPU kernel in the centralized ones.
	Control msg.DeviceID
	// QueueEntries sizes the virtqueue (power of two).
	QueueEntries uint16
	// IndexCost models the NIC-local hash-table probe/update time.
	IndexCost sim.Duration
	// KickBatch batches request doorbells on the store's virtqueue (E9
	// ablation; 0/1 = kick per request).
	KickBatch int
	// CacheEntries enables a NIC-local value cache of that many entries
	// (KV-Direct-style; the paper cites it as [30]). 0 disables. Gets
	// served from the cache never touch the SSD (E11 ablation).
	CacheEntries int
	// SnapshotFile enables index snapshots: recovery loads the snapshot
	// and scans only the log suffix past its watermark. The file is
	// created on the SSD on demand through the memory controller, so
	// snapshots are decentralized-only: a centralized store ignores it.
	SnapshotFile string
	// InflightBound caps requests admitted but not yet replied. At the
	// bound new requests are shed (StatusShed), which keeps the data
	// plane's queueing delay bounded instead of letting an open-loop
	// overload grow it without limit. 0 = unbounded, the legacy
	// behavior.
	InflightBound int
	// Tenancy enables per-tenant isolation: requests stamped with a
	// tenant (Request.Tenant, written by the NIC edge) may touch only
	// keys their domain owns (KeyTenant), and each tenant's admitted
	// concurrency is capped by its registry Budget.KVSInflight. Untenanted
	// requests (Tenant 0) are trusted infrastructure — replication and
	// recovery traffic — and bypass both checks. nil = off, the legacy
	// behavior.
	Tenancy *tenant.Registry
}

// DefaultIndexCost models an on-NIC hash probe.
const DefaultIndexCost = 150 * sim.Nanosecond

// retryEvery paces reconnection attempts after a provider failure.
const retryEvery = 500 * sim.Microsecond

// loc addresses a value inside the data file.
type loc struct {
	off uint64 // offset of the value bytes
	n   uint32
}

// Stats counts store operations.
type Stats struct {
	Gets, Puts, Deletes uint64
	Hits, Misses        uint64
	CacheHits           uint64
	Unavailable         uint64
	IOErrors            uint64
	Recoveries          uint64
	RecoveredRecords    uint64
	Snapshots           uint64
	SnapshotRestores    uint64
	// Shed counts requests refused by admission control: their deadline
	// had passed, or the store's service-time estimate said it would
	// pass before the reply. Every shed request gets a StatusShed
	// response — refused, never silently lost.
	Shed uint64
	// Denied counts cross-tenant key accesses refused with StatusDenied;
	// TenantShed counts requests refused against a per-tenant admission
	// budget (StatusShed, also included in Shed). Both are attributed in
	// the tenancy registry.
	Denied     uint64
	TenantShed uint64
}

// Store is the KVS application hosted on the smart NIC.
type Store struct {
	cfg Config
	rt  *smartnic.Runtime
	fc  smartnic.FileAPI

	index   map[string]loc
	fileEnd uint64
	ready   bool
	cache   *valueCache      // nil when disabled
	snap    smartnic.FileAPI // nil when snapshots disabled

	// epoch counts Boot calls. The NIC re-Boots the store after a crash
	// recovery; timers armed by the previous life capture their epoch and
	// bail if the store has since been reborn, so a stale reconnect can
	// never race the new life's own connect sequence.
	epoch uint64

	// OnReady fires whenever the store (re)connects and finishes
	// recovery; err != nil reports a failed boot.
	OnReady func(error)

	// estServe is an EWMA of observed request service time (admission
	// takes it as the cost of the work ahead of a deadline). Pure
	// bookkeeping: it schedules nothing and only requests that carry a
	// deadline ever read it.
	estServe sim.Duration
	// inflight counts admitted-but-unreplied requests against
	// Config.InflightBound; inflightG tracks it for the Q1 audit.
	// tenInflight partitions the same count per tenant, charged against
	// each tenant's registry Budget.KVSInflight so one tenant's flood
	// can exhaust only its own admission slots.
	inflight    int
	inflightG   *metrics.Gauge
	tenInflight map[tenant.ID]int

	stats Stats
}

// New builds a Store; add it to a NIC with nic.AddApp.
func New(cfg Config) *Store {
	if cfg.QueueEntries == 0 {
		cfg.QueueEntries = 64
	}
	if cfg.IndexCost == 0 {
		cfg.IndexCost = DefaultIndexCost
	}
	s := &Store{cfg: cfg, index: make(map[string]loc), tenInflight: make(map[tenant.ID]int)}
	s.inflightG = metrics.NewGauge(cfg.InflightBound)
	if cfg.CacheEntries > 0 {
		s.cache = newValueCache(cfg.CacheEntries)
	}
	return s
}

// AppID implements smartnic.App.
func (s *Store) AppID() msg.AppID { return s.cfg.App }

// InflightGauge exposes admitted-request depth vs InflightBound
// (overload Q1 audit).
func (s *Store) InflightGauge() *metrics.Gauge { return s.inflightG }

// Ready reports whether the store is serving.
func (s *Store) Ready() bool { return s.ready }

// Stats returns a copy of the counters.
func (s *Store) Stats() Stats { return s.stats }

// Keys returns the number of live keys.
func (s *Store) Keys() int { return len(s.index) }

// KeyList returns every live key in sorted order. The fabric router uses
// it to enumerate a shard for re-replication after a membership change;
// sorting keeps that sweep deterministic.
func (s *Store) KeyList() []string {
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Boot implements smartnic.App: run the Figure-2 sequence, then recover
// the index from the data file. On a re-Boot (the NIC crashed and
// rejoined) every piece of NIC-resident state is volatile and starts
// over; only the log on the SSD survives, and recover() rebuilds from it.
func (s *Store) Boot(rt *smartnic.Runtime) {
	s.epoch++
	s.rt = rt
	s.ready = false
	s.fc = nil
	s.snap = nil
	s.index = make(map[string]loc)
	s.fileEnd = 0
	s.tenInflight = make(map[tenant.ID]int)
	if s.cache != nil {
		s.cache.clear()
	}
	s.connect()
}

// ResourceError implements smartnic.ResourceErrorer: the provider reset
// our resource (§4), so drop to unavailable and reconnect.
func (s *Store) ResourceError(*msg.ErrorNotify) {
	s.ready = false
	s.scheduleReconnect()
}

func (s *Store) connect() {
	s.rt.OpenFile(s.cfg.Mode, s.cfg.Control, s.cfg.FileName, s.cfg.Token, s.cfg.QueueEntries, func(fc smartnic.FileAPI, err error) {
		if err != nil {
			if s.OnReady != nil {
				s.OnReady(fmt.Errorf("kvs: connect: %w", err))
			}
			s.scheduleReconnect()
			return
		}
		if pc, ok := fc.(*smartnic.FileClient); ok && s.cfg.KickBatch > 1 {
			pc.Conn.Queue.KickBatch = s.cfg.KickBatch
		}
		s.fc = fc
		s.openSnapshot()
	})
}

// openSnapshot opens (creating if needed) the snapshot file when
// configured, on a decentralized store only, then recovers.
func (s *Store) openSnapshot() {
	if s.cfg.SnapshotFile == "" || s.cfg.Mode != ModeDecentralized || s.snap != nil {
		s.recover()
		return
	}
	s.rt.OpenFileCreate(s.cfg.Control, s.cfg.SnapshotFile, s.cfg.Token, 16, func(fc smartnic.FileAPI, err error) {
		if err == nil {
			s.snap = fc
		}
		// Snapshot is an accelerator: failure to open it degrades to
		// full-scan recovery, never to an error.
		s.recover()
	})
}

// recovered marks the store serving once recovery is done.
func (s *Store) recovered(err error) {
	if err != nil {
		if s.OnReady != nil {
			s.OnReady(fmt.Errorf("kvs: recovery: %w", err))
		}
		s.scheduleReconnect()
		return
	}
	s.ready = true
	if s.OnReady != nil {
		s.OnReady(nil)
	}
}

func (s *Store) scheduleReconnect() {
	s.rt.Engine().Schedule(retryEvery, &reconnect{s: s, epoch: s.epoch})
}

// reconnect is a reconnection attempt; a store that came up or was reset (a
// new epoch) in the meantime skips it.
type reconnect struct {
	s     *Store
	epoch uint64
}

func (r *reconnect) Fire() {
	if r.epoch != r.s.epoch || r.s.ready {
		return
	}
	r.s.connect()
}

// PeerFailed implements smartnic.App: the bus told us our provider died
// (§4). Fail everything in flight — replies will never arrive — and
// reconnect once the device is reset.
func (s *Store) PeerFailed(dev msg.DeviceID) {
	if s.snap != nil && s.snap.Provider() == dev {
		// The snapshot connection died with the device; reopen on
		// reconnect.
		s.snap.Fail(fmt.Errorf("kvs: snapshot provider %v failed", dev))
		s.snap = nil
	}
	if s.fc != nil && s.fc.Provider() == dev {
		s.ready = false
		s.stats.Recoveries++
		s.fc.Fail(fmt.Errorf("kvs: provider %v failed", dev))
		s.scheduleReconnect()
	}
}

// recover rebuilds the index: seed from the snapshot when one is valid,
// then scan the log (all of it, or just the suffix past the snapshot's
// watermark).
func (s *Store) recover() {
	s.index = make(map[string]loc)
	s.fileEnd = 0
	if s.cache != nil {
		s.cache.clear()
	}
	r := &recovery{s: s, log: s.fc}
	if s.snap == nil {
		r.stat(r.log, 0)
		return
	}
	r.stat(s.snap, 0)
}

// recovery is one index rebuild, the completion of every file op it issues
// in turn: the snapshot's Stat and chunks when a snapshot is open, then the
// log's. A snapshot that fails or does not decode leaves a full scan.
type recovery struct {
	s     *Store
	op    smartnic.FileOp
	log   smartnic.FileAPI // the data file recovery started on
	f     smartnic.FileAPI // the file being read: the snapshot, then log
	sized bool             // f's Stat has answered
	size  uint64           // f's
	off   uint64           // of f's next read
	buf   []byte           // the snapshot so far, or the log's partial record
}

// stat starts on f, whose reading begins at off.
func (r *recovery) stat(f smartnic.FileAPI, off uint64) {
	r.f, r.sized, r.off, r.buf = f, false, off, nil
	f.StatOp(&r.op, r)
}

func (r *recovery) FileDone(op *smartnic.FileOp, err error) {
	s := r.s
	if err == nil && r.sized && len(op.Data) == 0 {
		err = fmt.Errorf("kvs: empty read during recovery at %d", r.off)
	}
	switch {
	case err != nil && r.f != r.log:
		r.stat(r.log, 0) // the snapshot failed: scan the whole log
		return
	case err != nil:
		s.recovered(err)
		return
	case !r.sized:
		r.sized, r.size = true, op.Size
		if r.off > r.size {
			// Snapshot is ahead of the log (log truncated?): distrust it
			// entirely.
			s.index, r.off = make(map[string]loc), 0
		}
	default:
		r.off += uint64(len(op.Data))
		r.buf = append(r.buf, op.Data...)
	}
	if r.f == r.log {
		r.scan()
	}
	if r.off < r.size {
		r.f.ReadOp(&r.op, r.off, int(min(uint64(r.f.MaxIO()), r.size-r.off)), r)
		return
	}
	switch {
	case r.f != r.log:
		start := uint64(0)
		if idx, watermark, derr := decodeSnapshot(r.buf); derr == nil {
			s.index, start = idx, watermark
			s.stats.SnapshotRestores++
		}
		r.stat(r.log, start)
	case len(r.buf) != 0:
		s.recovered(fmt.Errorf("kvs: %d trailing bytes in log (torn write?)", len(r.buf)))
	default:
		s.fileEnd = r.size
		s.recovered(nil)
	}
}

// scan indexes the complete records the log's bytes so far hold, keeping
// a partial one for the next read.
func (r *recovery) scan() {
	for {
		m, ok := parseRecordHeader(r.buf)
		if !ok || len(r.buf) < m.totalLen() {
			return
		}
		key := string(r.buf[recordHeader : recordHeader+m.keyLen])
		if m.del {
			delete(r.s.index, key)
		} else {
			valOff := r.off - uint64(len(r.buf)) + recordHeader + uint64(m.keyLen)
			r.s.index[key] = loc{off: valOff, n: uint32(m.valLen)}
		}
		r.s.stats.RecoveredRecords++
		r.buf = r.buf[m.totalLen():]
	}
}

// ShedResponse implements smartnic.Shedder: the reply the NIC sends on
// the store's behalf when its bounded receive queue refuses a request.
// Load shedding must answer, never vanish — an open-loop client counts
// every request until its response arrives.
func (s *Store) ShedResponse() []byte {
	s.stats.Shed++
	return EncodeResponse(Response{Status: StatusShed})
}

// ServeNetwork implements smartnic.App for a caller that hands the store
// a request directly: it is served as an unstamped ServeRequest.
func (s *Store) ServeNetwork(payload []byte, reply func([]byte)) {
	s.ServeRequest(0, false, payload, smartnic.ReplyFunc(reply))
}

// ServeRequest implements smartnic.RequestApp: decode, admit, execute,
// reply. An unstamped request's Tenant is trusted (replication, recovery,
// and fabric frames stamped at the originating machine's edge). A stamped
// one's edge authenticated the caller as tn, and that overrides whatever
// the payload claims: a forged Request.Tenant never survives the edge.
func (s *Store) ServeRequest(tn uint16, stamped bool, payload []byte, rep smartnic.Replier) {
	req, err := DecodeRequest(payload)
	if err != nil {
		rep.Reply(EncodeResponse(Response{Status: StatusError}))
		return
	}
	if stamped {
		req.Tenant = uint32(tn)
	}
	s.Serve(req, rep)
}

// storeOp is one admitted request. It is the event that charges the
// index probe and then the request's completion, so an op that needs no
// I/O (a cached get, a miss) allocates this record and its response. An
// op that goes to the data file is also the completion of its file request
// (FileDone): no continuation is allocated for the trip.
type storeOp struct {
	s     *Store
	req   Request
	rep   smartnic.Replier
	start sim.Time
	// file is the op's file request. A put, a delete and a get on a store
	// without a value cache will need one, so theirs is allocated with the
	// op (fileStoreOp); a get that misses the cache makes its own.
	file *smartnic.FileOp
}

// fileStoreOp is a storeOp with its file request in the same allocation.
type fileStoreOp struct {
	storeOp
	fileOp smartnic.FileOp
}

// Serve admits and executes one decoded request, for a caller on the
// same NIC that has already parsed it (the fabric router), and answers
// rep. Like an unstamped request it trusts the request's Tenant stamp.
func (s *Store) Serve(req Request, rep smartnic.Replier) {
	if !s.ready {
		s.stats.Unavailable++
		rep.Reply(EncodeResponse(Response{Status: StatusUnavailable}))
		return
	}
	// Tenancy gate, ahead of all admission: a cross-tenant probe is
	// refused with a typed StatusDenied (never NotFound, which would
	// leak key existence) and recorded against the probing tenant; a
	// tenant at its admission budget sheds only its own requests.
	who := tenant.ID(req.Tenant)
	if reg := s.cfg.Tenancy; reg != nil && who != 0 {
		if owner := KeyTenant(req.Key); owner != 0 && owner != who {
			s.stats.Denied++
			reg.Record(s.rt.Engine().Now(), who, owner, tenant.DenyKVS,
				fmt.Sprintf("%v %v %q refused", who, req.Op, req.Key))
			rep.Reply(EncodeResponse(Response{Status: StatusDenied}))
			return
		}
		if b := reg.Budget(who); b.KVSInflight > 0 && s.tenInflight[who] >= int(b.KVSInflight) {
			s.stats.Shed++
			s.stats.TenantShed++
			reg.Record(s.rt.Engine().Now(), who, 0, tenant.DenyBudget,
				fmt.Sprintf("%v over kvs budget %d", who, b.KVSInflight))
			rep.Reply(EncodeResponse(Response{Status: StatusShed}))
			return
		}
	}
	// Deadline-based admission: working on a request that will miss its
	// deadline anyway steals service time from requests that can still
	// make theirs — that is the goodput-collapse mechanism. Shed now,
	// cheaply, with an explicit status.
	if req.Deadline != 0 {
		eta := s.rt.Engine().Now().Add(s.cfg.IndexCost + s.estServe)
		if uint64(eta) > req.Deadline {
			// Decay the estimate on every shed (same 1/8 gain as the
			// update): sheds produce no completion samples, so without
			// decay a once-high estimate would latch the store shut
			// forever. Decaying re-probes — if service is still slow,
			// the next admitted request pushes the estimate right back.
			s.estServe -= s.estServe / 8
			s.stats.Shed++
			rep.Reply(EncodeResponse(Response{Status: StatusShed}))
			return
		}
	}
	// Concurrency-based admission: past the inflight bound the data
	// plane's queueing delay is no longer worth the wait, deadline or
	// not. Shedding here holds latency for admitted work flat while an
	// open-loop overload rages.
	if bound := s.cfg.InflightBound; bound > 0 && s.inflight >= bound {
		s.stats.Shed++
		rep.Reply(EncodeResponse(Response{Status: StatusShed}))
		return
	}
	s.inflight++
	s.inflightG.Set(s.inflight)
	if who != 0 {
		s.tenInflight[who]++
	}
	// Charge the NIC-local index probe before touching the data plane.
	eng := s.rt.Engine()
	var op *storeOp
	if req.Op != OpGet || s.cache == nil {
		big := new(fileStoreOp)
		big.file, op = &big.fileOp, &big.storeOp
	} else {
		op = new(storeOp)
	}
	op.s, op.req, op.rep, op.start = s, req, rep, eng.Now()
	eng.Schedule(s.cfg.IndexCost, op)
}

// Fire runs the op once the index probe has been paid for.
func (op *storeOp) Fire() {
	switch op.req.Op {
	case OpGet:
		op.s.get(op)
	case OpPut:
		op.s.put(op)
	case OpDelete:
		op.s.del(op)
	default:
		op.done(Response{Status: StatusError})
	}
}

// done releases the op's admission slots and answers the caller.
func (op *storeOp) done(resp Response) {
	s := op.s
	// Fold the observed service time into the admission estimate
	// (EWMA, 1/8 gain). State only — no events, no trace impact.
	sample := s.rt.Engine().Now().Sub(op.start)
	s.estServe += (sample - s.estServe) / 8
	s.inflight--
	s.inflightG.Set(s.inflight)
	if who := tenant.ID(op.req.Tenant); who != 0 {
		s.tenInflight[who]--
	}
	op.rep.Reply(EncodeResponse(resp))
}

func (s *Store) get(op *storeOp) {
	s.stats.Gets++
	l, ok := s.index[op.req.Key]
	if !ok {
		s.stats.Misses++
		op.done(Response{Status: StatusNotFound})
		return
	}
	s.stats.Hits++
	if s.cache != nil {
		if val, hit := s.cache.get(op.req.Key); hit {
			// Served entirely from NIC memory — no data-plane traffic.
			s.stats.CacheHits++
			op.done(Response{Status: StatusOK, Value: val})
			return
		}
	}
	if l.n == 0 {
		op.done(Response{Status: StatusOK})
		return
	}
	if op.file == nil {
		op.file = new(smartnic.FileOp)
	}
	s.fc.ReadOp(op.file, l.off, int(l.n), op)
}

// FileDone finishes an op whose file request has come back.
func (op *storeOp) FileDone(f *smartnic.FileOp, err error) {
	s, req := op.s, &op.req
	if err != nil {
		s.stats.IOErrors++
		op.done(Response{Status: StatusError})
		return
	}
	switch req.Op {
	case OpGet:
		if s.cache != nil {
			s.cache.put(req.Key, f.Data)
		}
		op.done(Response{Status: StatusOK, Value: f.Data})
		return
	case OpPut:
		s.index[req.Key] = loc{off: f.Off() + recordHeader + uint64(len(req.Key)), n: uint32(len(req.Value))}
		if s.cache != nil {
			// Write-through: the cache never holds a value newer or older
			// than the log. It keeps a copy: a replicated put's value is
			// a window on the frame it came in (DESIGN.md "A frame's bytes
			// are cut from a chunk").
			s.cache.put(req.Key, append([]byte(nil), req.Value...))
		}
	case OpDelete:
		delete(s.index, req.Key)
		if s.cache != nil {
			s.cache.drop(req.Key)
		}
	}
	op.done(Response{Status: StatusOK})
}

func (s *Store) put(op *storeOp) {
	s.stats.Puts++
	if recordLen(op.req.Key, op.req.Value) > s.fc.MaxIO() {
		op.done(Response{Status: StatusError})
		return
	}
	s.appendRecord(op, op.req.Value, false)
}

// appendRecord frames the op's record straight into its file request and
// sends it. The store is the file's only writer: it owns the append offset,
// so concurrent puts write disjoint ranges.
func (s *Store) appendRecord(op *storeOp, value []byte, del bool) {
	n := recordLen(op.req.Key, value)
	putRecord(op.file.Payload(n), op.req.Key, value, del)
	off := s.fileEnd
	s.fileEnd += uint64(n)
	s.fc.WriteOp(op.file, off, op)
}

func (s *Store) del(op *storeOp) {
	s.stats.Deletes++
	if _, ok := s.index[op.req.Key]; !ok {
		s.stats.Misses++
		op.done(Response{Status: StatusNotFound})
		return
	}
	s.appendRecord(op, nil, true)
}
