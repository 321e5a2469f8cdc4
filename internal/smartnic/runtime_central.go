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
			cb(&FileClient{Conn: &Connection{
				rt: rt, Provider: kernel, Service: service,
				ConnID: or.ConnID, VA: or.Base, Bytes: or.SharedBytes, Queue: drv,
			}}, nil)
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
		cb(&mediatedFile{rt: rt, kernel: kernel, handle: or.ConnID, maxIO: int(or.SharedBytes)}, nil)
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
}

func (m *mediatedFile) Provider() msg.DeviceID { return m.kernel }
func (m *mediatedFile) MaxIO() int             { return m.maxIO }

func (m *mediatedFile) call(op smartssd.FileOp, off uint64, n uint32, data []byte, cb func(*msg.FileIOResp, error)) {
	if m.dead {
		cb(nil, fmt.Errorf("smartnic: mediated handle %d is dead", m.handle))
		return
	}
	m.seq++
	// Safe to retransmit: the kernel deduplicates FileIOReq by (handle,
	// seq) and replays the recorded response, so a lost FileIOResp does
	// not re-apply a write.
	req := &msg.FileIOReq{
		App: m.rt.app, Handle: m.handle, Seq: m.seq,
		Op: uint8(op), Off: off, Len: n, Data: data,
	}
	m.rt.nic.call(m.rt.Retry, m.kernel, req,
		callKey{kind: msg.KindFileIOResp, app: m.rt.app, id: uint64(m.handle), sub: m.seq},
		func(_ msg.DeviceID, resp msg.Message, err error) {
			if err != nil {
				cb(nil, err)
			} else if r := resp.(*msg.FileIOResp); smartssd.Status(r.Status) != smartssd.StatusOK {
				cb(nil, fmt.Errorf("smartnic: mediated %v failed with status %d", op, r.Status))
			} else {
				cb(r, nil)
			}
		})
}

func (m *mediatedFile) Read(off uint64, n int, cb func([]byte, error)) {
	m.call(smartssd.OpRead, off, uint32(n), nil, func(r *msg.FileIOResp, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		cb(r.Data, nil)
	})
}

func (m *mediatedFile) Write(off uint64, data []byte, cb func(error)) {
	m.call(smartssd.OpWrite, off, 0, data, func(r *msg.FileIOResp, err error) { cb(err) })
}

func (m *mediatedFile) Append(data []byte, cb func(uint64, error)) {
	m.call(smartssd.OpAppend, 0, 0, data, func(r *msg.FileIOResp, err error) {
		if err != nil {
			cb(0, err)
			return
		}
		cb(r.Size, nil)
	})
}

func (m *mediatedFile) Stat(cb func(uint64, error)) {
	m.call(smartssd.OpStat, 0, 0, nil, func(r *msg.FileIOResp, err error) {
		if err != nil {
			cb(0, err)
			return
		}
		cb(r.Size, nil)
	})
}

func (m *mediatedFile) Truncate(cb func(error)) {
	m.call(smartssd.OpTruncate, 0, 0, nil, func(r *msg.FileIOResp, err error) { cb(err) })
}
