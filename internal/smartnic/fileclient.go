package smartnic

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/device"
	"nocpu/internal/msg"
	"nocpu/internal/smartssd"
)

// FileAPI is an open file, whatever its placement: the peer-to-peer
// client (FileClient) or the kernel-mediated one (mediatedFile). A
// request is a FileOp record its issuer owns, completed once.
type FileAPI interface {
	// ReadOp fetches n bytes at off (n bounded by MaxIO) into op.Data.
	ReadOp(op *FileOp, off uint64, n int, done FileCompletion)
	// WriteOp stores op's Payload at off.
	WriteOp(op *FileOp, off uint64, done FileCompletion)
	// StatOp reports the file size in op.Size.
	StatOp(op *FileOp, done FileCompletion)
	// TruncateOp empties the file.
	TruncateOp(op *FileOp, done FileCompletion)
	MaxIO() int
	// Provider is the device serving the file (for failure tracking).
	Provider() msg.DeviceID
	// Fail aborts the connection, erroring out all in-flight requests —
	// called when the owner learns the provider died.
	Fail(err error)
	// Close ends the session at its provider.
	Close(cb func(error))
}

// fileIssuer is the half of a file connection that differs between the
// peer-to-peer client and the kernel-mediated one.
type fileIssuer interface {
	issue(op *FileOp, kind smartssd.FileOp, off uint64, n int, done FileCompletion)
}

// fileCalls holds FileAPI's request methods, written once over issue.
type fileCalls struct{ via fileIssuer }

func (c fileCalls) ReadOp(op *FileOp, off uint64, n int, done FileCompletion) {
	c.via.issue(op, smartssd.OpRead, off, n, done)
}

func (c fileCalls) WriteOp(op *FileOp, off uint64, done FileCompletion) {
	c.via.issue(op, smartssd.OpWrite, off, 0, done)
}

func (c fileCalls) StatOp(op *FileOp, done FileCompletion) {
	c.via.issue(op, smartssd.OpStat, 0, 0, done)
}

func (c fileCalls) TruncateOp(op *FileOp, done FileCompletion) {
	c.via.issue(op, smartssd.OpTruncate, 0, 0, done)
}

// FileClient wraps a service Connection with the smart SSD's file
// protocol, giving NIC applications typed file I/O over the virtqueue.
type FileClient struct {
	Conn *Connection
	fileCalls
}

// Provider implements FileAPI.
func (fc *FileClient) Provider() msg.DeviceID { return fc.Conn.Provider }

// Fail implements FileAPI: abort the virtqueue, failing pending requests.
func (fc *FileClient) Fail(err error) { fc.Conn.Queue.Abort(err) }

// Close implements FileAPI.
func (fc *FileClient) Close(cb func(error)) { fc.Conn.Close(cb) }

// MaxIO returns the largest read/write payload that fits one cell.
func (fc *FileClient) MaxIO() int {
	return fc.Conn.Queue.CellSize() - max(smartssd.RespHeaderBytes, smartssd.ReqHeaderBytes)
}

// FileOp is one file request as a record its issuer owns, embeddable like
// interconnect.DMA and sim.Timer. It holds the request's header (a request
// without payload is sent straight from the record), is the completion of
// the queue it is submitted to, and decodes the response in place. The
// record is idle when done.FileDone is entered and may be reissued from
// inside it; issuing a record that is still pending panics.
type FileOp struct {
	done FileCompletion // nil unless pending
	hdr  [smartssd.ReqHeaderBytes]byte
	req  []byte // Payload's buffer, until issued
	// Size is the file size the response reported. Data is what a read
	// returned, lent: a view of the queue's reap buffer (or, mediated, of
	// the kernel's decoded answer), valid until FileDone returns. A
	// completion copies what it keeps.
	Size uint64
	Data []byte
}

// FileCompletion receives the end of a FileOp.
type FileCompletion interface {
	FileDone(op *FileOp, err error)
}

// Payload sizes the next request for n payload bytes and returns them to
// fill in: they sit behind the header in the one buffer the port will move,
// so a write's bytes are copied once on their way out.
func (op *FileOp) Payload(n int) []byte {
	op.req = make([]byte, smartssd.ReqHeaderBytes+n)
	return op.req[smartssd.ReqHeaderBytes:]
}

// Off returns the offset the record was last issued with.
func (op *FileOp) Off() uint64 { return binary.LittleEndian.Uint64(op.hdr[1:]) }

// prepare makes the record pending and returns the request to send.
func (op *FileOp) prepare(kind smartssd.FileOp, off uint64, n int, done FileCompletion) []byte {
	if op.done != nil {
		panic("smartnic: FileOp reused while in flight")
	}
	req := op.req
	op.done, op.req, op.Size, op.Data = done, nil, 0, nil
	smartssd.PutFileReqHeader(op.hdr[:], kind, off, uint32(n))
	if req == nil {
		return op.hdr[:]
	}
	copy(req, op.hdr[:])
	return req
}

func (op *FileOp) finish(err error) {
	done := op.done
	op.done = nil
	done.FileDone(op, err)
}

// issue sends the record over the virtqueue. What cannot be sent (more
// than a cell holds either way, a full or dead queue) completes at once.
func (fc *FileClient) issue(op *FileOp, kind smartssd.FileOp, off uint64, n int, done FileCompletion) {
	req := op.prepare(kind, off, n, done)
	var err error
	if n = max(n, len(req)-smartssd.ReqHeaderBytes); n > fc.MaxIO() {
		err = fmt.Errorf("smartnic: %v of %d exceeds per-request max %d", kind, n, fc.MaxIO())
	} else {
		err = fc.Conn.Queue.SubmitOp(req, op)
	}
	if err != nil {
		op.finish(err)
	}
}

// RequestDone implements virtio.Completion.
func (op *FileOp) RequestDone(b []byte, err error) {
	if err == nil {
		var resp smartssd.FileResp
		if resp, err = smartssd.DecodeFileResp(b); err == nil {
			op.Size, op.Data = resp.Size, resp.Data
			if resp.Status != smartssd.StatusOK {
				err = fmt.Errorf("smartnic: file op %v failed with status %d", smartssd.FileOp(op.hdr[0]), resp.Status)
			}
		}
	}
	op.finish(err)
}

// mediatedFile is the kernel-mediated FileAPI: every request is a
// FileIOReq syscall.
type mediatedFile struct {
	device.Opener // with the kernel: the handle is its ConnID
	rt            *Runtime
	maxIO         int
	seq           uint32
	dead          bool
	fileCalls
}

func (m *mediatedFile) Provider() msg.DeviceID { return m.Opener.Provider }
func (m *mediatedFile) MaxIO() int             { return m.maxIO }

// Fail implements FileAPI: the kernel died, the handle it issued is gone,
// and every subsequent syscall on it must fail fast so the owner reopens
// through the rebooted kernel. In-flight calls drain on their own — the
// revived kernel answers an unknown handle with StatusBadRequest.
func (m *mediatedFile) Fail(err error) { m.dead = true }

// Close implements FileAPI: the handle is dead from here on, and the
// kernel forgets its session.
func (m *mediatedFile) Close(cb func(error)) {
	m.dead = true
	m.rt.ended(&m.Opener)
	m.rt.closeAt(m.Opener.Provider, m.Abandon(), cb)
}

// issue sends the record as a FileIOReq syscall; the kernel bounds the
// transfer itself.
func (m *mediatedFile) issue(op *FileOp, kind smartssd.FileOp, off uint64, n int, done FileCompletion) {
	b := op.prepare(kind, off, n, done)
	if m.dead {
		op.finish(fmt.Errorf("smartnic: mediated handle %d is dead", m.ConnID))
		return
	}
	m.seq++
	// Safe to retransmit: the kernel deduplicates FileIOReq by (handle,
	// seq) and replays the recorded response, so a lost FileIOResp does
	// not re-apply a write.
	req := &msg.FileIOReq{
		App: m.rt.app, Handle: m.ConnID, Seq: m.seq,
		Op: uint8(kind), Off: off, Len: uint32(n),
	}
	if len(b) > smartssd.ReqHeaderBytes {
		req.Data = b[smartssd.ReqHeaderBytes:]
	}
	m.rt.nic.call(m.rt.Retry, m.Opener.Provider, req,
		callKey{kind: msg.KindFileIOResp, app: m.rt.app, id: uint64(m.ConnID), sub: m.seq},
		rawAnswer(func(_ msg.DeviceID, resp msg.Message, err error) {
			if err == nil {
				if r := resp.(*msg.FileIOResp); smartssd.Status(r.Status) != smartssd.StatusOK {
					err = fmt.Errorf("smartnic: mediated %v failed with status %d", kind, r.Status)
				} else {
					op.Size, op.Data = r.Size, r.Data
				}
			}
			op.finish(err)
		}))
}
