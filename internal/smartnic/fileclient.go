package smartnic

import (
	"fmt"

	"nocpu/internal/msg"
	"nocpu/internal/smartssd"
)

// FileClient wraps a service Connection with the smart SSD's file
// protocol, giving NIC applications typed file I/O over the virtqueue.
type FileClient struct {
	Conn *Connection
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
		cb(&FileClient{Conn: c}, nil)
	})
}

// MaxIO returns the largest read/write payload that fits one cell.
func (fc *FileClient) MaxIO() int {
	cell := fc.Conn.Queue.CellSize()
	if n := cell - smartssd.RespHeaderBytes; n < cell-smartssd.ReqHeaderBytes {
		return n
	}
	return cell - smartssd.ReqHeaderBytes
}

func (fc *FileClient) roundTrip(req smartssd.FileReq, cb func(smartssd.FileResp, error)) {
	err := fc.Conn.Queue.Submit(smartssd.EncodeFileReq(req), func(respBytes []byte, err error) {
		if err != nil {
			cb(smartssd.FileResp{}, err)
			return
		}
		resp, derr := smartssd.DecodeFileResp(respBytes)
		if derr != nil {
			cb(smartssd.FileResp{}, derr)
			return
		}
		if resp.Status != smartssd.StatusOK {
			cb(resp, fmt.Errorf("smartnic: file op %v failed with status %d", req.Op, resp.Status))
			return
		}
		cb(resp, nil)
	})
	if err != nil {
		cb(smartssd.FileResp{}, err)
	}
}

// Read fetches n bytes at off (n bounded by MaxIO).
func (fc *FileClient) Read(off uint64, n int, cb func([]byte, error)) {
	if n > fc.MaxIO() {
		cb(nil, fmt.Errorf("smartnic: read of %d exceeds per-request max %d", n, fc.MaxIO()))
		return
	}
	fc.roundTrip(smartssd.FileReq{Op: smartssd.OpRead, Off: off, Len: uint32(n)}, func(r smartssd.FileResp, err error) {
		cb(r.Data, err)
	})
}

// Write stores data at off.
func (fc *FileClient) Write(off uint64, data []byte, cb func(error)) {
	if len(data) > fc.MaxIO() {
		cb(fmt.Errorf("smartnic: write of %d exceeds per-request max %d", len(data), fc.MaxIO()))
		return
	}
	fc.roundTrip(smartssd.FileReq{Op: smartssd.OpWrite, Off: off, Data: data}, func(r smartssd.FileResp, err error) {
		cb(err)
	})
}

// Append adds data at EOF; cb receives the resulting file size.
func (fc *FileClient) Append(data []byte, cb func(newSize uint64, err error)) {
	if len(data) > fc.MaxIO() {
		cb(0, fmt.Errorf("smartnic: append of %d exceeds per-request max %d", len(data), fc.MaxIO()))
		return
	}
	fc.roundTrip(smartssd.FileReq{Op: smartssd.OpAppend, Data: data}, func(r smartssd.FileResp, err error) {
		cb(r.Size, err)
	})
}

// Stat reports the file size.
func (fc *FileClient) Stat(cb func(size uint64, err error)) {
	fc.roundTrip(smartssd.FileReq{Op: smartssd.OpStat}, func(r smartssd.FileResp, err error) {
		cb(r.Size, err)
	})
}

// Truncate empties the file.
func (fc *FileClient) Truncate(cb func(error)) {
	fc.roundTrip(smartssd.FileReq{Op: smartssd.OpTruncate}, func(r smartssd.FileResp, err error) {
		cb(err)
	})
}

// Rename renames the connection's file, replacing any existing file of
// that name (used for compaction's atomic switch-over).
func (fc *FileClient) Rename(newName string, cb func(error)) {
	fc.roundTrip(smartssd.FileReq{Op: smartssd.OpRename, Data: []byte(newName)}, func(r smartssd.FileResp, err error) {
		cb(err)
	})
}
