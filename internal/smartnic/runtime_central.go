package smartnic

import (
	"errors"
	"fmt"

	"nocpu/internal/msg"
	"nocpu/internal/smartssd"
	"nocpu/internal/virtio"
)

// This file is the centralized-baseline counterpart of runtime.go: the
// same application-facing API, but every control operation is a syscall
// to the CPU kernel (centralos) instead of bus discovery + controller
// authorization. It exists so experiments can run the identical KVS
// application on both machines and compare.

// FileAPI abstracts a file connection so applications are agnostic to
// whether the data path is peer-to-peer (FileClient) or kernel-mediated
// (mediatedFile).
type FileAPI interface {
	// ReadOp and WriteOp issue a caller-owned record (FileOp); the callback
	// methods below are adapters over the same path.
	ReadOp(op *FileOp, off uint64, n int, done FileCompletion)
	WriteOp(op *FileOp, off uint64, done FileCompletion)
	Read(off uint64, n int, cb func([]byte, error))
	Write(off uint64, data []byte, cb func(error))
	Append(data []byte, cb func(newSize uint64, err error))
	Stat(cb func(size uint64, err error))
	Truncate(cb func(error))
	MaxIO() int
	// Provider is the device serving the file (for failure tracking).
	Provider() msg.DeviceID
	// Fail aborts the connection, erroring out all in-flight requests —
	// called when the owner learns the provider died.
	Fail(err error)
}

// fileIssuer is the half of a file connection that differs between the
// peer-to-peer client and the kernel-mediated one.
type fileIssuer interface {
	issue(op *FileOp, kind smartssd.FileOp, off uint64, n int, done FileCompletion)
}

// fileCalls is the rest of FileAPI, written once over issue for both: the
// typed record forms, and the callback forms as adapters that allocate a
// record of their own.
type fileCalls struct{ via fileIssuer }

// ReadOp fetches n bytes at off (n bounded by MaxIO) into op.Data.
func (c fileCalls) ReadOp(op *FileOp, off uint64, n int, done FileCompletion) {
	c.via.issue(op, smartssd.OpRead, off, n, done)
}

// WriteOp stores op's Payload at off.
func (c fileCalls) WriteOp(op *FileOp, off uint64, done FileCompletion) {
	c.via.issue(op, smartssd.OpWrite, off, 0, done)
}

type fileCall struct {
	FileOp
	data  func([]byte, error)
	size  func(uint64, error)
	plain func(error)
}

func (c *fileCall) FileDone(op *FileOp, err error) {
	switch {
	case c.data != nil:
		c.data(op.Data, err)
	case c.size != nil:
		c.size(op.Size, err)
	default:
		c.plain(err)
	}
}

func (c fileCalls) call(fc *fileCall, kind smartssd.FileOp, off uint64, n int, payload []byte) {
	if payload != nil {
		copy(fc.Payload(len(payload)), payload)
	}
	c.via.issue(&fc.FileOp, kind, off, n, fc)
}

// Read fetches n bytes at off (n bounded by MaxIO).
func (c fileCalls) Read(off uint64, n int, cb func([]byte, error)) {
	c.call(&fileCall{data: cb}, smartssd.OpRead, off, n, nil)
}

// Write stores data at off.
func (c fileCalls) Write(off uint64, data []byte, cb func(error)) {
	c.call(&fileCall{plain: cb}, smartssd.OpWrite, off, 0, data)
}

// Append adds data at EOF; cb receives the resulting file size.
func (c fileCalls) Append(data []byte, cb func(newSize uint64, err error)) {
	c.call(&fileCall{size: cb}, smartssd.OpAppend, 0, 0, data)
}

// Stat reports the file size.
func (c fileCalls) Stat(cb func(size uint64, err error)) {
	c.call(&fileCall{size: cb}, smartssd.OpStat, 0, 0, nil)
}

// Truncate empties the file.
func (c fileCalls) Truncate(cb func(error)) {
	c.call(&fileCall{plain: cb}, smartssd.OpTruncate, 0, 0, nil)
}

// Fail implements FileAPI for the mediated client: the kernel died, the
// handle it issued is gone, and every subsequent syscall on it must fail
// fast so the owner reopens through the rebooted kernel. In-flight
// calls drain on their own — the revived kernel answers an unknown
// handle with StatusBadRequest.
func (m *mediatedFile) Fail(err error) { m.dead = true }

// Provider implements FileAPI for the peer-to-peer client.
func (fc *FileClient) Provider() msg.DeviceID { return fc.Conn.Provider }

// Fail implements FileAPI: abort the virtqueue, failing pending requests.
func (fc *FileClient) Fail(err error) { fc.Conn.Queue.Abort(err) }

// OpenFileCentralDirect performs an Omni-X-style open: the kernel
// handles discovery (its registry), memory allocation and IOMMU
// programming, but the resulting virtqueue is app-to-SSD — the data
// plane stays peer-to-peer.
func (rt *Runtime) OpenFileCentralDirect(kernel msg.DeviceID, name string, token uint64, entries uint16, cb func(FileAPI, error)) {
	service := "file:" + name
	fail := func(err error) {
		cb(nil, fmt.Errorf("smartnic: central open %q: %w", name, err))
	}
	rt.open(kernel, service, token, func(or *msg.OpenResp, err error) {
		if err == nil && !or.OK {
			err = errors.New(or.Reason)
		}
		if err != nil {
			fail(fmt.Errorf("open: %w", err))
			return
		}
		// The connect syscall also goes through the kernel.
		cellSize := virtio.CellSizeFromQuote(or.SharedBytes, entries)
		rt.connect(kernel, service, or.ConnID, or.Base, entries, cellSize, func(drv *virtio.Driver, err error) {
			if err != nil {
				fail(err)
				return
			}
			cb(newFileClient(&Connection{
				rt: rt, Provider: kernel, Service: service,
				ConnID: or.ConnID, VA: or.Base, Bytes: or.SharedBytes, Queue: drv,
			}), nil)
		})
	})
}

// OpenFileMediated performs a traditional-stack open: the kernel owns the
// device queue, and every subsequent I/O is a FileIOReq syscall with the
// kernel copying data between the app and its page cache.
func (rt *Runtime) OpenFileMediated(kernel msg.DeviceID, name string, token uint64, cb func(FileAPI, error)) {
	rt.open(kernel, "mediated:"+name, token, func(or *msg.OpenResp, err error) {
		if err == nil && !or.OK {
			err = fmt.Errorf("smartnic: mediated open %q: %s", name, or.Reason)
		}
		if err != nil {
			cb(nil, err)
			return
		}
		m := &mediatedFile{rt: rt, kernel: kernel, handle: or.ConnID, maxIO: int(or.SharedBytes)}
		m.via = m
		cb(m, nil)
	})
}

// mediatedFile is the syscall-based FileAPI.
type mediatedFile struct {
	rt     *Runtime
	kernel msg.DeviceID
	handle uint32
	maxIO  int
	seq    uint32
	dead   bool
	fileCalls
}

func (m *mediatedFile) Provider() msg.DeviceID { return m.kernel }
func (m *mediatedFile) MaxIO() int             { return m.maxIO }

// issue sends the record as a FileIOReq syscall; the kernel bounds the
// transfer itself.
func (m *mediatedFile) issue(op *FileOp, kind smartssd.FileOp, off uint64, n int, done FileCompletion) {
	b := op.prepare(kind, off, n, done)
	if m.dead {
		op.finish(fmt.Errorf("smartnic: mediated handle %d is dead", m.handle))
		return
	}
	m.seq++
	// Safe to retransmit: the kernel deduplicates FileIOReq by (handle,
	// seq) and replays the recorded response, so a lost FileIOResp does
	// not re-apply a write.
	req := &msg.FileIOReq{
		App: m.rt.app, Handle: m.handle, Seq: m.seq,
		Op: uint8(kind), Off: off, Len: uint32(n),
	}
	if len(b) > smartssd.ReqHeaderBytes {
		req.Data = b[smartssd.ReqHeaderBytes:]
	}
	m.rt.nic.call(m.rt.Retry, m.kernel, req,
		callKey{kind: msg.KindFileIOResp, app: m.rt.app, id: uint64(m.handle), sub: m.seq},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			if err == nil {
				if r := resp.(*msg.FileIOResp); smartssd.Status(r.Status) != smartssd.StatusOK {
					err = fmt.Errorf("smartnic: mediated %v failed with status %d", kind, r.Status)
				} else {
					op.Size, op.Data = r.Size, r.Data
				}
			}
			op.finish(err)
		})
}
