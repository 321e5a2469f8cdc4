package smartnic

import (
	"encoding/binary"
	"fmt"

	"nocpu/internal/msg"
	"nocpu/internal/smartssd"
)

// FileClient wraps a service Connection with the smart SSD's file
// protocol, giving NIC applications typed file I/O over the virtqueue. A
// request is a FileOp record; the callback methods come from fileCalls.
type FileClient struct {
	Conn *Connection
	fileCalls
}

func newFileClient(c *Connection) *FileClient {
	fc := &FileClient{Conn: c}
	fc.via = fc
	return fc
}

// OpenFile runs the Figure-2 sequence for "file:<name>" and wraps the
// resulting connection in a FileClient.
func (rt *Runtime) OpenFile(memctrl msg.DeviceID, name string, token uint64, entries uint16, cb func(*FileClient, error)) {
	rt.openFileQuery(memctrl, "file:"+name, token, entries, cb)
}

// OpenFileCreate is OpenFile but creates the file on the storage device
// if it does not exist ("file+create:<name>" — used for app-private
// files like index snapshots).
func (rt *Runtime) OpenFileCreate(memctrl msg.DeviceID, name string, token uint64, entries uint16, cb func(*FileClient, error)) {
	rt.openFileQuery(memctrl, "file+create:"+name, token, entries, cb)
}

func (rt *Runtime) openFileQuery(memctrl msg.DeviceID, query string, token uint64, entries uint16, cb func(*FileClient, error)) {
	rt.OpenService(memctrl, query, token, entries, func(c *Connection, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		cb(newFileClient(c), nil)
	})
}

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
	// returned: a view of the response buffer, which was made for this
	// request and is the receiver's to keep.
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
