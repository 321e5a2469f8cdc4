package msg

import (
	"errors"
	"math"
)

// writer accumulates a little-endian encoding. With sizing set it
// counts the bytes into n instead of appending them, so EncodedSize runs
// the same encode bodies without materialising a buffer.
type writer struct {
	buf    []byte
	sizing bool
	n      int
}

func (w *writer) u8(v uint8) {
	if w.sizing {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}
func (w *writer) u16(v uint16) {
	if w.sizing {
		w.n += 2
		return
	}
	w.buf = append(w.buf, byte(v), byte(v>>8))
}
func (w *writer) u32(v uint32) {
	if w.sizing {
		w.n += 4
		return
	}
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *writer) u64(v uint64) {
	w.u32(uint32(v))
	w.u32(uint32(v >> 32))
}
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	if w.sizing {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	if w.sizing {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}
func (w *writer) u64s(v []uint64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u64(x)
	}
}
func (w *writer) u16s(v []uint16) {
	w.u16(uint16(len(v)))
	for _, x := range v {
		w.u16(x)
	}
}

var errShort = errors.New("truncated message")

// reader decodes; the first error sticks and subsequent reads return
// zeros, so decoders can be written without per-field error checks.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = errShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}
func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (r *reader) u64() uint64 {
	lo := uint64(r.u32())
	hi := uint64(r.u32())
	return lo | hi<<32
}
func (r *reader) bool() bool { return r.u8() != 0 }
func (r *reader) str() string {
	n := int(r.u16())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// bytesField borrows the field from the frame (see Decode). The capacity
// is clipped so that an append by the holder cannot reach the bytes that
// follow the field.
func (r *reader) bytesField() []byte {
	n := int(r.u32())
	b := r.take(n)
	if b == nil {
		return nil
	}
	return b[:n:n]
}
func (r *reader) u16list() []uint16 {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	// Sanity bound: each element needs 2 bytes.
	if n < 0 || r.off+2*n > len(r.buf) {
		r.err = errShort
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = r.u16()
	}
	return out
}
func (r *reader) u64list() []uint64 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	// Sanity bound: each element needs 8 bytes.
	if n < 0 || r.off+8*n > len(r.buf) {
		r.err = errShort
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.u64()
	}
	return out
}
