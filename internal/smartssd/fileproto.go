package smartssd

import (
	"encoding/binary"
	"fmt"
)

// The file-access protocol carried in virtqueue request/response cells.
// The smart NIC's KVS runtime speaks this to the SSD's file service; no
// bus traffic is involved once the queue is connected — this is pure data
// plane.

// FileOp is the request opcode.
type FileOp uint8

// File operations.
const (
	OpRead FileOp = iota + 1
	OpWrite
	OpAppend
	OpStat
	OpTruncate
)

func (o FileOp) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAppend:
		return "append"
	case OpStat:
		return "stat"
	case OpTruncate:
		return "truncate"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is the response code.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusBadRequest
	StatusIOError
	// StatusBusy: the serving side refused the request under load (the
	// centralized kernel's mediated-I/O backlog bound). Retryable.
	StatusBusy
)

// FileReq is a decoded request.
type FileReq struct {
	Op   FileOp
	Off  uint64
	Len  uint32 // read length
	Data []byte // write/append payload
}

// FileResp is a decoded response.
type FileResp struct {
	Status Status
	Size   uint64 // stat/append: resulting file size
	Data   []byte // read payload
}

// PutFileReqHeader writes a request's fixed part into b[:ReqHeaderBytes]:
// op u8 | off u64 | len u32. The payload follows it in the same buffer.
func PutFileReqHeader(b []byte, op FileOp, off uint64, n uint32) {
	b[0] = byte(op)
	binary.LittleEndian.PutUint64(b[1:], off)
	binary.LittleEndian.PutUint32(b[9:], n)
}

// EncodeFileReq serializes a request into a buffer of its own.
func EncodeFileReq(r FileReq) []byte {
	b := make([]byte, ReqHeaderBytes+len(r.Data))
	PutFileReqHeader(b, r.Op, r.Off, r.Len)
	copy(b[ReqHeaderBytes:], r.Data)
	return b
}

// DecodeFileReq parses a request in place: Data aliases b, which the
// caller must own for as long as it uses the result.
func DecodeFileReq(b []byte) (FileReq, error) {
	if len(b) < ReqHeaderBytes {
		return FileReq{}, fmt.Errorf("smartssd: short file request (%d bytes)", len(b))
	}
	r := FileReq{
		Op:  FileOp(b[0]),
		Off: binary.LittleEndian.Uint64(b[1:]),
		Len: binary.LittleEndian.Uint32(b[9:]),
	}
	if len(b) > ReqHeaderBytes {
		r.Data = b[ReqHeaderBytes:]
	}
	return r, nil
}

// PutFileRespHeader writes a response's fixed part into
// b[:RespHeaderBytes]: status u8 | size u64. Read data follows it.
func PutFileRespHeader(b []byte, st Status, size uint64) {
	b[0] = byte(st)
	binary.LittleEndian.PutUint64(b[1:], size)
}

// DecodeFileResp parses a response in place: Data aliases b, as for
// DecodeFileReq.
func DecodeFileResp(b []byte) (FileResp, error) {
	if len(b) < RespHeaderBytes {
		return FileResp{}, fmt.Errorf("smartssd: short file response (%d bytes)", len(b))
	}
	r := FileResp{
		Status: Status(b[0]),
		Size:   binary.LittleEndian.Uint64(b[1:]),
	}
	if len(b) > RespHeaderBytes {
		r.Data = b[RespHeaderBytes:]
	}
	return r, nil
}

// RespHeaderBytes is the fixed response overhead; a read of N bytes needs
// a cell of at least N+RespHeaderBytes.
const RespHeaderBytes = 9

// ReqHeaderBytes is the fixed request overhead.
const ReqHeaderBytes = 13
