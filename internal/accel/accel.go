// Package accel implements a generic compute accelerator — the third
// kind of self-managing device in the machine (§2.1 lists "FPGA blocks,
// GPU cores" among the resources devices may expose).
//
// The accelerator exposes transform services ("xform:<name>") consumed
// over the same VIRTIO queues as the SSD's file service. Its purpose in
// the reproduction is §2.2's sentence: "An application can be distributed
// across many devices, but what uniquely identifies it is its virtual
// address space" — an app on the smart NIC can hold one PASID whose
// mappings span the NIC, the SSD *and* this accelerator, with the bus
// mediating every grant (see examples/pipeline).
package accel

import (
	"fmt"
	"hash/crc32"
	"strings"

	"nocpu/internal/bus"
	"nocpu/internal/device"
	"nocpu/internal/interconnect"
	"nocpu/internal/msg"
	"nocpu/internal/sim"
	"nocpu/internal/trace"
	"nocpu/internal/virtio"
)

// Op identifies a transform.
type Op uint8

// Transform operations.
const (
	OpCRC32 Op = iota + 1 // resp: 4-byte little-endian IEEE CRC
	OpROT13               // resp: transformed bytes
	OpRLE                 // resp: run-length-encoded bytes
)

// opNames maps service names to ops.
var opNames = map[string]Op{
	"crc32": OpCRC32,
	"rot13": OpROT13,
	"rle":   OpRLE,
}

func (o Op) String() string {
	for n, op := range opNames {
		if op == o {
			return n
		}
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status codes in transform responses.
const (
	StatusOK         = 0
	StatusBadRequest = 1
)

// Costs model the engine: a fixed setup plus per-byte processing.
type Costs struct {
	Setup      sim.Duration
	BytesPerNs float64 // processing rate
}

// DefaultCosts models a modest fixed-function engine (4 GB/s).
var DefaultCosts = Costs{Setup: 500 * sim.Nanosecond, BytesPerNs: 4}

// Config assembles an accelerator.
type Config struct {
	Device device.Config
	Costs  Costs
}

const (
	// cellSize is a transform queue's buffer cell, 4 KiB plus 16 bytes.
	cellSize = 4096 + 16
	// engines is the number of parallel compute engines.
	engines = 2
)

// Stats counts accelerator activity.
type Stats struct {
	Ops            uint64
	BytesProcessed uint64
}

// Accel is the accelerator device.
type Accel struct {
	dev   *device.Device
	cfg   Config
	eng   *sim.Engine
	pool  *sim.Pool
	stats Stats
}

// New builds the accelerator and attaches it.
func New(eng *sim.Engine, b *bus.Bus, fab *interconnect.Fabric, tr *trace.Tracer, cfg Config) (*Accel, error) {
	if cfg.Costs.BytesPerNs == 0 {
		cfg.Costs = DefaultCosts
	}
	cfg.Device.Role = msg.RoleAccelerator
	d, err := device.New(eng, b, fab, tr, cfg.Device)
	if err != nil {
		return nil, err
	}
	a := &Accel{dev: d, cfg: cfg, eng: eng, pool: sim.NewPool(eng, engines)}
	d.AddService(&xformService{device.Sessions{Dev: d, CellSize: cellSize, Admit: a.admit}})
	return a, nil
}

// Device exposes the chassis.
func (a *Accel) Device() *device.Device { return a.dev }

// Start powers the accelerator on.
func (a *Accel) Start() { a.dev.Start() }

// Stats returns a copy of the counters.
func (a *Accel) Stats() Stats { return a.stats }

// xformService answers "xform:<name>" queries and sessions, one session
// (device.Sessions) per open transform queue. The chassis ends them when
// the accelerator is killed or reset and when their client dies: it keeps
// no other state a reset must drop.
type xformService struct {
	device.Sessions
}

func (s *xformService) Name() string { return "xform" }

func (s *xformService) Match(query string) bool {
	_, ok := lookup(query)
	return ok
}

// lookup resolves "xform:<name>" to a transform the engines implement.
func lookup(service string) (Op, bool) {
	name, ok := strings.CutPrefix(service, "xform:")
	op, known := opNames[name]
	return op, ok && known
}

// admit decides an open: any client may use any known transform.
func (a *Accel) admit(_ msg.DeviceID, req *msg.OpenReq) (device.Conn, string) {
	op, ok := lookup(req.Service)
	if !ok {
		return nil, "unknown transform"
	}
	return &xformQueue{a, op}, ""
}

// xformQueue serves one transform queue: each request runs on a compute
// engine as an xformJob.
type xformQueue struct {
	a  *Accel
	op Op
}

// Resource implements device.Conn.
func (q *xformQueue) Resource() string { return "xform:" + q.op.String() }

// Serve implements virtio.Service.
func (q *xformQueue) Serve(req []byte, r virtio.Responder) {
	cost := q.a.cfg.Costs.Setup + sim.Duration(float64(len(req))/q.a.cfg.Costs.BytesPerNs)
	q.a.pool.Submit(cost, &xformJob{q, req, r})
}

// xformJob is one transform request, the event of its engine finishing.
type xformJob struct {
	q   *xformQueue
	req []byte
	r   virtio.Responder
}

func (j *xformJob) Fire() {
	out, ok := Transform(j.q.op, j.req)
	j.q.a.stats.Ops++
	j.q.a.stats.BytesProcessed += uint64(len(j.req))
	if !ok {
		j.r.Complete([]byte{StatusBadRequest})
		return
	}
	j.r.Complete(append([]byte{StatusOK}, out...))
}

// Transform applies op to data (pure function; also used by clients to
// verify results in tests).
func Transform(op Op, data []byte) ([]byte, bool) {
	switch op {
	case OpCRC32:
		s := crc32.ChecksumIEEE(data)
		return []byte{byte(s), byte(s >> 8), byte(s >> 16), byte(s >> 24)}, true
	case OpROT13:
		out := make([]byte, len(data))
		for i, b := range data {
			switch {
			case b >= 'a' && b <= 'z':
				out[i] = 'a' + (b-'a'+13)%26
			case b >= 'A' && b <= 'Z':
				out[i] = 'A' + (b-'A'+13)%26
			default:
				out[i] = b
			}
		}
		return out, true
	case OpRLE:
		return rleEncode(data), true
	}
	return nil, false
}

// rleEncode is a simple (count, byte) run-length encoding.
func rleEncode(data []byte) []byte {
	var out []byte
	i := 0
	for i < len(data) {
		b := data[i]
		run := 1
		for i+run < len(data) && data[i+run] == b && run < 255 {
			run++
		}
		out = append(out, byte(run), b)
		i += run
	}
	return out
}

// RLEDecode inverts rleEncode (used by consumers and tests).
func RLEDecode(enc []byte) ([]byte, error) {
	if len(enc)%2 != 0 {
		return nil, fmt.Errorf("accel: odd-length RLE stream")
	}
	var out []byte
	for i := 0; i < len(enc); i += 2 {
		run := int(enc[i])
		if run == 0 {
			return nil, fmt.Errorf("accel: zero-length run")
		}
		for j := 0; j < run; j++ {
			out = append(out, enc[i+1])
		}
	}
	return out, nil
}

// Client wraps a transform-service virtqueue with the protocol (pass a
// smartnic Connection's Queue).
type Client struct {
	Conn *virtio.Driver
}

// Do runs one transform round trip.
func (c *Client) Do(data []byte, done func(resp []byte, err error)) {
	if err := c.Conn.SubmitOp(data, &call{done}); err != nil {
		done(nil, err)
	}
}

// call is one Do in flight, the completion of its queue request: it
// checks and strips the transform's status byte.
type call struct{ done func(resp []byte, err error) }

func (c *call) RequestDone(resp []byte, err error) {
	switch {
	case err != nil:
		c.done(nil, err)
	case len(resp) < 1 || resp[0] != StatusOK:
		c.done(nil, fmt.Errorf("accel: transform failed"))
	default:
		c.done(resp[1:], nil)
	}
}
