package smartssd

import (
	"errors"
	"strings"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
	"nocpu/internal/virtio"
)

// Config assembles an SSD.
type Config struct {
	Device   device.Config
	Geometry FlashGeometry
	Timing   FlashTiming
	FS       FSConfig
	// Tokens maps file names to required open tokens (§3 step 3 and the
	// §4 access-control discussion). Files absent from the map are open
	// access.
	Tokens map[string]uint64
	// LoaderToken authenticates LoadReq image uploads (§2.1, §4).
	LoaderToken uint64
	// NotifyBatch sets used-ring notification batching on the file
	// service's endpoints (E9 ablation; 0/1 = notify per completion).
	NotifyBatch int
}

// ftlOPRatio is the FTL over-provisioning fraction.
const ftlOPRatio = 0.125

// cellSize is the virtqueue buffer cell the file service uses: one 4 KiB
// page plus the request and response headers.
const cellSize = 4096 + RespHeaderBytes + ReqHeaderBytes

// SSD is the smart SSD device.
type SSD struct {
	dev   *device.Device
	cfg   Config
	flash *flash
	ftl   *ftl
	fs    *FS

	ready  bool
	booted bool // formatted once
	// files is the file service: one session per open connection (the
	// table, its isolation and its replay rules live in device.Sessions).
	files *fileService

	// ServedOps counts file-protocol requests completed.
	ServedOps uint64
}

// New builds the SSD and attaches it to bus and fabric.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*SSD, error) {
	if cfg.Geometry.Channels == 0 {
		cfg.Geometry = DefaultGeometry
	}
	if cfg.Timing.Read == 0 {
		cfg.Timing = DefaultTiming
	}
	cfg.Device.Role = msg.RoleStorage
	d, err := device.New(eng, b, fab, tr, cfg.Device)
	if err != nil {
		return nil, err
	}
	s := &SSD{dev: d, cfg: cfg}
	s.flash = newFlash(eng, cfg.Geometry, cfg.Timing)
	s.ftl = newFTL(eng, s.flash, ftlOPRatio)
	s.fs = newFS(s.ftl, cfg.FS)

	s.files = &fileService{ssd: s, Sessions: device.Sessions{
		Dev: d, CellSize: cellSize, NotifyBatch: cfg.NotifyBatch, Admit: s.admit,
	}}
	d.AddService(s.files)
	d.Handle(msg.KindLoadReq, s.onLoad)
	d.OnAlive = s.onAlive
	d.OnReset = s.onReset
	return s, nil
}

// Device exposes the chassis.
func (s *SSD) Device() *device.Device { return s.dev }

// FS exposes the filesystem for test setup and the core assembler
// (pre-creating the KVS data file).
func (s *SSD) FS() *FS { return s.fs }

// FTLStats exposes translation-layer counters.
func (s *SSD) FTLStats() FTLStats { return s.ftl.Stats() }

// Ready reports whether the volume is mounted and serving.
func (s *SSD) Ready() bool { return s.ready }

// Start powers the SSD on.
func (s *SSD) Start() { s.dev.Start() }

// Kill simulates a hard failure (fault-injection): the device stops
// responding on bus and data plane, and the volume is unavailable until
// a reset remounts it.
func (s *SSD) Kill() {
	s.dev.Kill()
	s.ready = false
}

// BreakFlash makes every subsequent flash operation fail (§4's "resource
// suffers a fatal error" scenario).
func (s *SSD) BreakFlash() { s.flash.broken = true }

// RepairFlash undoes BreakFlash.
func (s *SSD) RepairFlash() { s.flash.broken = false }

// onAlive runs at first boot (format+mount) and after every recovery
// (mount only).
func (s *SSD) onAlive() {
	if s.ready {
		return
	}
	finish := func(err error) {
		if err != nil {
			s.dev.Tracer().Record(s.dev.Engine().Now(), s.dev.Name(), "", "fs-error", err.Error())
			return
		}
		s.ready = true
		s.dev.Tracer().Record(s.dev.Engine().Now(), s.dev.Name(), "", "fs-ready", "")
	}
	if !s.booted {
		s.booted = true
		s.fs.Format(func(err error) {
			if err != nil {
				finish(err)
				return
			}
			s.fs.Mount(finish)
		})
		return
	}
	s.fs.Mount(finish)
}

// onReset unmounts: the chassis ended every session, flash contents
// survive, and onAlive will remount.
func (s *SSD) onReset() { s.ready = false }

// onLoad services the loader: authenticated image upload into the
// filesystem (§2.1: "devices that store their applications internally
// must expose a loader service").
func (s *SSD) onLoad(env msg.Envelope) {
	m := env.Msg.(*msg.LoadReq)
	deny := func(reason string) {
		s.dev.Send(env.Src, &msg.LoadResp{Image: m.Image, OK: false, Reason: reason})
	}
	if !s.ready {
		deny("volume not ready")
		return
	}
	if s.cfg.LoaderToken != 0 && m.Token != s.cfg.LoaderToken {
		deny("authentication failed")
		return
	}
	write := func(f *File) {
		f.Truncate(func(err error) {
			if err != nil {
				deny(err.Error())
				return
			}
			f.WriteAt(0, m.Data, func(err error) {
				if err != nil {
					deny(err.Error())
					return
				}
				s.dev.Send(env.Src, &msg.LoadResp{Image: m.Image, OK: true})
			})
		})
	}
	if f, ok := s.fs.Lookup(m.Image); ok {
		write(f)
		return
	}
	s.fs.Create(m.Image, func(f *File, err error) {
		if err != nil {
			deny(err.Error())
			return
		}
		write(f)
	})
}

// fileService exposes every file on the volume as "file:<name>", one
// session (device.Sessions) per open connection.
type fileService struct {
	device.Sessions
	ssd *SSD
}

func (fs *fileService) Name() string { return "file" }

// Match answers discovery queries and session names. Two name forms:
// "file:<name>" matches files present on the volume; "file+create:<name>"
// matches any storage volume and creates the file on open if missing.
func (fs *fileService) Match(query string) bool {
	if !fs.ssd.ready {
		return false
	}
	if _, ok := strings.CutPrefix(query, "file+create:"); ok {
		return true
	}
	name, ok := strings.CutPrefix(query, "file:")
	if !ok {
		return false
	}
	return fs.ssd.fs.index(name) >= 0
}

// admit decides a file-service open: the name must parse, the volume be
// mounted, the token match (§3 step 3), and the file exist or be
// creatable. The connection it returns serves the open's queue.
func (s *SSD) admit(_ msg.DeviceID, req *msg.OpenReq) (device.Conn, string) {
	createRequested := false
	name, ok := strings.CutPrefix(req.Service, "file:")
	if !ok {
		name, ok = strings.CutPrefix(req.Service, "file+create:")
		createRequested = ok
	}
	if !ok {
		return nil, "malformed service name"
	}
	if !s.ready {
		return nil, "volume not ready"
	}
	if want, guarded := s.cfg.Tokens[name]; guarded && want != req.Token {
		return nil, "authentication failed"
	}
	f, exists := s.fs.Lookup(name)
	if !exists {
		if !createRequested {
			return nil, "no such file"
		}
		// Create synchronously in metadata; persistence trails behind.
		var cerr error
		s.fs.Create(name, func(nf *File, err error) { f, cerr = nf, err })
		if cerr != nil {
			return nil, cerr.Error()
		}
		if f == nil {
			// Creation persists asynchronously; look the inode up now.
			if f, _ = s.fs.Lookup(name); f == nil {
				return nil, "create failed"
			}
		}
	}
	return &fileConn{ssd: s, file: f, reqs: make(map[virtio.Responder]*fileReq)}, ""
}

// fileConn serves one connection's file requests. A request in flight is a
// record per descriptor pair, built on the pair's first use and reused by
// its next request, like the queue's own records.
type fileConn struct {
	ssd  *SSD
	file *File
	reqs map[virtio.Responder]*fileReq
}

// fileReq is one request on the SSD's side: where its answer goes, the
// response buffer (header, then what a read fills in directly) and the
// file I/O whose completion it is. The request buffer is the service's, so
// a write's data goes down to the flash as a view of it.
type fileReq struct {
	c        *fileConn
	r        virtio.Responder
	resp     []byte
	io       fileIO
	metaDone func(error) // made once per record: Truncate's callback
}

// Serve implements virtio.Service.
func (c *fileConn) Serve(b []byte, r virtio.Responder) {
	req, err := DecodeFileReq(b)
	if err != nil {
		resp := make([]byte, RespHeaderBytes) // answered, not counted as served
		PutFileRespHeader(resp, StatusBadRequest, 0)
		r.Complete(resp)
		return
	}
	q := c.reqs[r]
	if q == nil {
		q = &fileReq{c: c, r: r}
		q.metaDone = func(err error) { q.finish(err, 0) }
		c.reqs[r] = q
	}
	switch file := c.file; req.Op {
	case OpRead:
		// Len is the peer's: the response cell and the file bound it first.
		n := file.clip(req.Off, min(int(req.Len), r.Cap()-RespHeaderBytes))
		q.resp = make([]byte, RespHeaderBytes+n)
		q.io.readAt(file, req.Off, q.resp[RespHeaderBytes:], q)
	case OpWrite:
		q.io.writeAt(file, req.Off, req.Data, q)
	case OpAppend:
		q.io.writeAt(file, file.Size(), req.Data, q)
	case OpStat:
		q.finish(nil, file.Size())
	case OpTruncate:
		file.Truncate(q.metaDone)
	default:
		q.finish(errBadRequest, 0)
	}
}

// Resource implements device.Conn.
func (c *fileConn) Resource() string { return "file:" + c.file.Name() }

// ioDone answers a read or a write with the file's size as it is now.
func (q *fileReq) ioDone(_ *fileIO, err error) { q.finish(err, q.c.file.Size()) }

// finish counts the request and hands its response to the port. Only a
// successful read answers with more than the header.
func (q *fileReq) finish(err error, size uint64) {
	q.c.ssd.ServedOps++
	resp, st := q.resp, StatusOK
	q.resp = nil
	if err != nil {
		resp, st, size = nil, StatusIOError, 0
		if errors.Is(err, errBadRequest) {
			st = StatusBadRequest
		}
	}
	if resp == nil {
		resp = make([]byte, RespHeaderBytes)
	}
	PutFileRespHeader(resp, st, size)
	q.r.Complete(resp)
}
