// Package kvs implements the paper's §3 application: a key-value store
// whose operations execute on the smart NIC while the data lives in a
// file on the smart SSD. No CPU participates — the NIC keeps the index in
// its local memory and reaches values over the shared-memory virtqueue.
//
// The store is log-structured: every put/delete appends a record to the
// data file (which doubles as the write-ahead log), and the index maps
// keys to value locations. Recovery after an SSD reset is a sequential
// scan of the file (§4's error-handling story, exercised by E5).
package kvs

import (
	"encoding/binary"
	"fmt"
)

// Op is a client request opcode.
type Op uint8

// Client operations.
const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status is a response code.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusError
	StatusUnavailable // store not (yet) connected to its file
	StatusShed        // admission control refused: deadline unmeetable
	// StatusDenied is a tenancy refusal: the requesting tenant may not
	// touch the key it named. Always typed — a cross-tenant probe gets
	// this status, never a silent drop and never NotFound (which would
	// leak key existence across the boundary).
	StatusDenied
	// StatusFenced is a lease refusal: the machine asked to serve as
	// primary does not (or does not yet) hold a quorum-countersigned
	// epoch lease for the moment of the request — it might be the old
	// primary on the wrong side of a partition, or the new primary
	// still inside the takeover fence that waits out the old lease.
	// Always typed: a fenced primary refuses loudly so a client retries
	// elsewhere, instead of silently serving a divergent history.
	StatusFenced
)

// Request is a decoded client request.
//
// Deadline, when nonzero, is the absolute virtual time (nanoseconds) by
// which the client needs the response; the store sheds requests it
// cannot serve in time (StatusShed) instead of working on already-dead
// ones. It is a trailing optional wire field — encoded only when
// nonzero — so deadline-free requests are byte-identical to the
// pre-deadline format and old encodings still decode (Deadline 0).
//
// Tenant, when nonzero, is the requesting isolation domain. The NIC
// edge stamps it (smartnic.DeliverFrom) — the store overwrites whatever
// a client wrote here, so the field is an authenticated transit stamp,
// not a client claim; it exists on the wire so the fabric router can
// carry the stamp across machine hops. A second trailing optional: when
// Tenant is present Deadline is encoded too (even if zero), keeping the
// two distinguishable by remaining length, and all tenant-free requests
// stay byte-identical to the pre-tenancy format.
type Request struct {
	Op       Op
	Key      string
	Value    []byte
	Deadline uint64
	Tenant   uint32
}

// Response is a decoded store response.
type Response struct {
	Status Status
	Value  []byte
}

// EncodeRequest serializes: op u8 | keyLen u16 | key | valLen u32 | val
// [| deadline u64 when nonzero or tenant present [| tenant u32 when
// nonzero]].
func EncodeRequest(r Request) []byte {
	n := 7 + len(r.Key) + len(r.Value)
	if r.Deadline != 0 || r.Tenant != 0 {
		n += 8
	}
	if r.Tenant != 0 {
		n += 4
	}
	b := make([]byte, n)
	b[0] = byte(r.Op)
	binary.LittleEndian.PutUint16(b[1:], uint16(len(r.Key)))
	copy(b[3:], r.Key)
	off := 3 + len(r.Key)
	binary.LittleEndian.PutUint32(b[off:], uint32(len(r.Value)))
	copy(b[off+4:], r.Value)
	tail := off + 4 + len(r.Value)
	if r.Deadline != 0 || r.Tenant != 0 {
		binary.LittleEndian.PutUint64(b[tail:], r.Deadline)
	}
	if r.Tenant != 0 {
		binary.LittleEndian.PutUint32(b[tail+8:], r.Tenant)
	}
	return b
}

// RequestKey returns an encoded request's key in place, a window on b
// capped at its length: what a router reads to pick the machine that
// will decode the request. It makes the framing check DecodeRequest
// makes, so the two refuse exactly the same bytes.
func RequestKey(b []byte) ([]byte, error) {
	if len(b) < 7 {
		return nil, fmt.Errorf("kvs: short request")
	}
	kl := int(binary.LittleEndian.Uint16(b[1:]))
	if len(b) < 3+kl+4 {
		return nil, fmt.Errorf("kvs: truncated key")
	}
	if len(b) < 7+kl+int(binary.LittleEndian.Uint32(b[3+kl:])) {
		return nil, fmt.Errorf("kvs: truncated value")
	}
	return b[3 : 3+kl : 3+kl], nil
}

// DecodeRequest parses a client request.
func DecodeRequest(b []byte) (Request, error) {
	key, err := RequestKey(b)
	if err != nil {
		return Request{}, err
	}
	kl := len(key)
	vl := int(binary.LittleEndian.Uint32(b[3+kl:]))
	r := Request{Op: Op(b[0]), Key: string(key)}
	if vl > 0 {
		r.Value = append([]byte(nil), b[7+kl:7+kl+vl]...)
	}
	if len(b) >= 7+kl+vl+8 {
		r.Deadline = binary.LittleEndian.Uint64(b[7+kl+vl:])
	}
	if len(b) >= 7+kl+vl+12 {
		r.Tenant = binary.LittleEndian.Uint32(b[7+kl+vl+8:])
	}
	return r, nil
}

// EncodeResponse serializes r into a buffer of exactly its length.
func EncodeResponse(r Response) []byte {
	return AppendResponse(make([]byte, 0, 5+len(r.Value)), r)
}

// AppendResponse appends r's encoding to b and returns the extended
// buffer: status u8 | valLen u32 | val.
func AppendResponse(b []byte, r Response) []byte {
	b = append(b, byte(r.Status))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Value)))
	return append(b, r.Value...)
}

// DecodeResponse parses a store response.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < 5 {
		return Response{}, fmt.Errorf("kvs: short response")
	}
	vl := int(binary.LittleEndian.Uint32(b[1:]))
	if len(b) < 5+vl {
		return Response{}, fmt.Errorf("kvs: truncated response value")
	}
	r := Response{Status: Status(b[0])}
	if vl > 0 {
		r.Value = append([]byte(nil), b[5:5+vl]...)
	}
	return r, nil
}

// Log-record framing within the data file:
// keyLen u16 | valLen u32 | key | value. valLen == tombstone marks a
// delete.
const tombstone = uint32(0xFFFFFFFF)

// recordHeader is the fixed framing overhead.
const recordHeader = 6

// recordLen is the framed length of one log record.
func recordLen(key string, value []byte) int { return recordHeader + len(key) + len(value) }

// putRecord frames one log record into b, which is recordLen bytes.
func putRecord(b []byte, key string, value []byte, del bool) {
	vl := uint32(len(value))
	if del {
		vl = tombstone
	}
	binary.LittleEndian.PutUint16(b[0:], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[2:], vl)
	copy(b[recordHeader:], key)
	copy(b[recordHeader+len(key):], value)
}

// recordMeta describes a parsed record header.
type recordMeta struct {
	keyLen int
	valLen int
	del    bool
}

func parseRecordHeader(b []byte) (recordMeta, bool) {
	if len(b) < recordHeader {
		return recordMeta{}, false
	}
	kl := int(binary.LittleEndian.Uint16(b[0:]))
	vlRaw := binary.LittleEndian.Uint32(b[2:])
	m := recordMeta{keyLen: kl}
	if vlRaw == tombstone {
		m.del = true
	} else {
		m.valLen = int(vlRaw)
	}
	return m, true
}

// totalLen returns the full record length.
func (m recordMeta) totalLen() int { return recordHeader + m.keyLen + m.valLen }
