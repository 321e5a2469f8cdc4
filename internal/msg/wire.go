package msg

import (
	"encoding/binary"
	"errors"
	"math"
)

// coder runs a message's one wire body (its wire method) in one of three
// modes: sizing counts the bytes an encoding would take, encoding appends
// them to buf, decoding reads them from buf into the message. Each body
// lists its fields once, as calls to the ops below, so the encoder and
// the decoder cannot disagree about the layout — the idiom of Bitcoin
// Core's SERIALIZE_METHODS/READWRITE and Boost.Serialization's
// serialize(Archive&).
//
// The integer ops are generic functions rather than methods (Go methods
// take no type parameters), so that a field of a defined type (AppID,
// DeviceID, Role, NackCode, Kind) passes without a conversion.
type coder struct {
	mode mode
	buf  []byte // encoding: the output so far; decoding: the frame
	off  int    // decoding: the read position; sizing: the bytes counted
	err  error  // decoding: the first failure, after which every op reads nothing
}

type mode uint8

const (
	sizing mode = iota
	encoding
	decoding
)

var errShort = errors.New("truncated message")

// take returns the frame's next n bytes, or nil once they run out (and
// from then on).
func (c *coder) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > len(c.buf)-c.off {
		c.err = errShort
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func u8[T ~uint8](c *coder, v *T) {
	switch c.mode {
	case sizing:
		c.off++
	case encoding:
		c.buf = append(c.buf, uint8(*v))
	default:
		if b := c.take(1); b != nil {
			*v = T(b[0])
		}
	}
}

func u16[T ~uint16](c *coder, v *T) {
	switch c.mode {
	case sizing:
		c.off += 2
	case encoding:
		c.buf = binary.LittleEndian.AppendUint16(c.buf, uint16(*v))
	default:
		if b := c.take(2); b != nil {
			*v = T(binary.LittleEndian.Uint16(b))
		}
	}
}

func u32[T ~uint32](c *coder, v *T) {
	switch c.mode {
	case sizing:
		c.off += 4
	case encoding:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*v))
	default:
		if b := c.take(4); b != nil {
			*v = T(binary.LittleEndian.Uint32(b))
		}
	}
}

func u64[T ~uint64](c *coder, v *T) {
	switch c.mode {
	case sizing:
		c.off += 8
	case encoding:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
	default:
		if b := c.take(8); b != nil {
			*v = T(binary.LittleEndian.Uint64(b))
		}
	}
}

// bool is one byte, 0 or 1; any nonzero byte decodes as true.
func (c *coder) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	u8(c, &b)
	if c.mode == decoding {
		*v = b != 0
	}
}

// str is a u16 length and the bytes; a longer string is cut to 65 535.
func (c *coder) str(v *string) {
	s := *v
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	n := uint16(len(s))
	u16(c, &n)
	switch c.mode {
	case sizing:
		c.off += int(n)
	case encoding:
		c.buf = append(c.buf, s...)
	default:
		if b := c.take(int(n)); b != nil {
			*v = string(b)
		}
	}
}

// bytes is a u32 length and the bytes. Decoded, the field borrows from
// the frame (see Decode), its capacity clipped so that an append by the
// holder cannot reach the bytes that follow it.
func (c *coder) bytes(v *[]byte) {
	n := uint32(len(*v))
	u32(c, &n)
	switch c.mode {
	case sizing:
		c.off += int(n)
	case encoding:
		c.buf = append(c.buf, *v...)
	default:
		if b := c.take(int(n)); b != nil {
			*v = b[:n:n]
		}
	}
}

// count moves the element count of the list *v — a u32 when wide, else
// a u16 — and returns how many elements the body then moves. Decoding,
// it refuses a count whose elements, at minSize bytes each, could not
// fit in what is left of the frame, so a claimed count never allocates
// more than the frame could fill; otherwise it makes *v that long (nil
// for a count of 0). The list is always made anew, never grown into, so
// a body decoded into again (DecodeInto) keeps nothing of its last frame.
func count[E any](c *coder, v *[]E, wide bool, minSize int) int {
	n := uint32(len(*v))
	if wide {
		u32(c, &n)
	} else {
		n16 := uint16(n)
		u16(c, &n16)
		n = uint32(n16)
	}
	if c.mode != decoding {
		return len(*v)
	}
	if c.err != nil {
		return 0
	}
	if int(n)*minSize > len(c.buf)-c.off {
		c.err = errShort
		return 0
	}
	*v = nil
	if n > 0 {
		*v = make([]E, n)
	}
	return int(n)
}

// u64s is a u32-counted list of u64s (frame lists). Like devs, it
// decodes a count of 0 as an empty list rather than nil, the form both
// have always decoded to (TestCorpusDecodesPinned).
func (c *coder) u64s(v *[]uint64) {
	for i := range count(c, v, true, 8) {
		u64(c, &(*v)[i])
	}
	if c.mode == decoding && *v == nil {
		*v = []uint64{}
	}
}

// devs is a u16-counted machine or device list (dead sets, ring
// members), decoded empty rather than nil when the count is 0.
func (c *coder) devs(v *[]DeviceID) {
	for i := range count(c, v, false, 2) {
		u16(c, &(*v)[i])
	}
	if c.mode == decoding && *v == nil {
		*v = []DeviceID{}
	}
}

// strs is a u16-counted list of strings.
func (c *coder) strs(v *[]string) {
	for i := range count(c, v, false, 2) {
		c.str(&(*v)[i])
	}
}

// optU32 is a trailing optional u32, the protocol's one way to evolve:
// written only when nonzero and read only when bytes remain, so a frame
// without it is the older form of the message, and still decodes (to 0).
// It must be a body's last op.
func (c *coder) optU32(v *uint32) {
	present := *v != 0
	if c.mode == decoding {
		present = c.err == nil && c.off < len(c.buf)
		*v = 0
	}
	if present {
		u32(c, v)
	}
}
