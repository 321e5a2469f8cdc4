// Package admin implements §4's "System Maintenance" story: the CPU-less
// machine "will not have a local console", so an operator manages it
// remotely — "the logs could be accessed remotely by another machine over
// the network through a remote access service. User authentication can be
// performed by an authentication service running on any device."
//
// The admin console is itself just an application offloaded to the smart
// NIC: it authenticates operator requests by token, reads log files from
// the smart SSD over the ordinary data plane, reports device statistics,
// and forwards authenticated image uploads to device loader services
// (§2.1). Nothing about management requires a CPU either.
package admin

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/msg"
	"nocpu/internal/smartnic"
)

// Op is an admin command opcode.
type Op uint8

// Admin operations.
const (
	OpPing    Op = iota + 1
	OpStatLog    // -> current log size
	OpTailLog    // args: n u32 -> last n bytes of the log
	OpUpload     // args: image name + bytes -> forwarded to loader
)

// Status codes.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusAuthFailed
	StatusUnavailable
	StatusError
)

// Request is a decoded admin command.
type Request struct {
	Op    Op
	Token uint64
	N     uint32 // tail length
	Name  string // upload image name
	Data  []byte // upload payload
}

// Response is a decoded admin reply.
type Response struct {
	Status Status
	Size   uint64
	Data   []byte
}

// EncodeRequest serializes a command.
func EncodeRequest(r Request) []byte {
	b := make([]byte, 15+2+len(r.Name)+4+len(r.Data))
	b[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(b[1:], r.Token)
	binary.LittleEndian.PutUint32(b[9:], r.N)
	binary.LittleEndian.PutUint16(b[13:], uint16(len(r.Name)))
	copy(b[15:], r.Name)
	off := 15 + len(r.Name)
	binary.LittleEndian.PutUint32(b[off:], uint32(len(r.Data)))
	copy(b[off+4:], r.Data)
	return b
}

// DecodeRequest parses a command.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 19 {
		return Request{}, fmt.Errorf("admin: short request")
	}
	nameLen := int(binary.LittleEndian.Uint16(b[13:]))
	if len(b) < 19+nameLen {
		return Request{}, fmt.Errorf("admin: truncated name")
	}
	r := Request{
		Op:    Op(b[0]),
		Token: binary.LittleEndian.Uint64(b[1:]),
		N:     binary.LittleEndian.Uint32(b[9:]),
		Name:  string(b[15 : 15+nameLen]),
	}
	off := 15 + nameLen
	dataLen := int(binary.LittleEndian.Uint32(b[off:]))
	if len(b) < off+4+dataLen {
		return Request{}, fmt.Errorf("admin: truncated data")
	}
	if dataLen > 0 {
		r.Data = append([]byte(nil), b[off+4:off+4+dataLen]...)
	}
	return r, nil
}

// EncodeResponse serializes a reply.
func EncodeResponse(r Response) []byte {
	b := make([]byte, 13+len(r.Data))
	b[0] = byte(r.Status)
	binary.LittleEndian.PutUint64(b[1:], r.Size)
	binary.LittleEndian.PutUint32(b[9:], uint32(len(r.Data)))
	copy(b[13:], r.Data)
	return b
}

// DecodeResponse parses a reply.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < 13 {
		return Response{}, fmt.Errorf("admin: short response")
	}
	r := Response{Status: Status(b[0]), Size: binary.LittleEndian.Uint64(b[1:])}
	n := int(binary.LittleEndian.Uint32(b[9:]))
	if len(b) < 13+n {
		return Response{}, fmt.Errorf("admin: truncated response")
	}
	if n > 0 {
		r.Data = append([]byte(nil), b[13:13+n]...)
	}
	return r, nil
}

// Config parameterizes the console.
type Config struct {
	App msg.AppID
	// Token is the operator credential every command must carry.
	Token uint64
	// LogFile is the log to serve (on the smart SSD).
	LogFile string
	// LogToken authenticates the console's own open of the log file.
	LogToken uint64
	// Memctrl is the memory controller's address.
	Memctrl msg.DeviceID
	// Loader is the device whose loader service OpUpload targets.
	Loader msg.DeviceID
	// LoaderToken authenticates uploads at the device.
	LoaderToken uint64
}

// Console is the remote-maintenance application.
type Console struct {
	cfg   Config
	rt    *smartnic.Runtime
	log   smartnic.FileAPI
	ready bool

	// Served counts successfully executed commands.
	Served uint64
	// AuthFailures counts rejected commands.
	AuthFailures uint64
}

// New builds a console app; add it to a NIC with AddApp.
func New(cfg Config) *Console {
	return &Console{cfg: cfg}
}

// AppID implements smartnic.App.
func (c *Console) AppID() msg.AppID { return c.cfg.App }

// Ready reports whether the log connection is up.
func (c *Console) Ready() bool { return c.ready }

// Boot implements smartnic.App.
func (c *Console) Boot(rt *smartnic.Runtime) {
	c.rt = rt
	rt.OpenFile(smartnic.Decentralized, c.cfg.Memctrl, c.cfg.LogFile, c.cfg.LogToken, 32, func(f smartnic.FileAPI, err error) {
		if err != nil {
			return // console stays unavailable; operator sees StatusUnavailable
		}
		c.log = f
		c.ready = true
	})
}

// PeerFailed implements smartnic.App.
func (c *Console) PeerFailed(dev msg.DeviceID) {
	if c.log != nil && c.log.Provider() == dev {
		c.ready = false
	}
}

// ServeNetwork implements smartnic.App: decode, authenticate, execute.
func (c *Console) ServeNetwork(payload []byte, reply func([]byte)) {
	req, err := DecodeRequest(payload)
	if err != nil {
		reply(EncodeResponse(Response{Status: StatusError}))
		return
	}
	// §4: authentication before anything else.
	if req.Token != c.cfg.Token {
		c.AuthFailures++
		reply(EncodeResponse(Response{Status: StatusAuthFailed}))
		return
	}
	switch req.Op {
	case OpPing:
		c.Served++
		reply(EncodeResponse(Response{Status: StatusOK}))
	case OpStatLog, OpTailLog:
		if !c.ready {
			reply(EncodeResponse(Response{Status: StatusUnavailable}))
			return
		}
		l := &logRead{c: c, reply: reply}
		if req.Op == OpTailLog {
			l.n = uint64(req.N)
		}
		c.log.StatOp(&l.op, l)
	case OpUpload:
		if c.cfg.Loader == 0 {
			reply(EncodeResponse(Response{Status: StatusError}))
			return
		}
		// Forward to the device loader (§2.1) with the loader credential;
		// the operator's own credential was already checked.
		c.rt.Load(c.cfg.Loader, req.Name, c.cfg.LoaderToken, req.Data, func(err error) {
			if err != nil {
				reply(EncodeResponse(Response{Status: StatusError, Data: []byte(err.Error())}))
				return
			}
			c.Served++
			reply(EncodeResponse(Response{Status: StatusOK}))
		})
	default:
		reply(EncodeResponse(Response{Status: StatusError}))
	}
}

// logRead is one StatLog or TailLog: the log's Stat, then for a tail a read
// of its last n bytes. It keeps the Stat's size for the reply, since a read
// reports the size at its completion.
type logRead struct {
	c       *Console
	op      smartnic.FileOp
	n, size uint64
	reading bool
	reply   func([]byte)
}

func (l *logRead) FileDone(op *smartnic.FileOp, err error) {
	if err != nil {
		l.reply(EncodeResponse(Response{Status: StatusError}))
		return
	}
	if !l.reading {
		l.size = op.Size
		if n := min(l.n, uint64(l.c.log.MaxIO()), l.size); n > 0 {
			l.reading = true
			l.c.log.ReadOp(op, l.size-n, int(n), l)
			return
		}
	}
	l.c.Served++
	l.reply(EncodeResponse(Response{Status: StatusOK, Size: l.size, Data: op.Data}))
}
