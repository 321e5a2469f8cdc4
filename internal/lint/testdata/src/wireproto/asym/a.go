// Package msg is a miniature codec package exercising wireproto's
// encode/decode symmetry checks: matched pairs pass, retyped and
// reordered fields are reported, and the trailing-optional idiom is
// accepted on both sides.
package msg

// Kind discriminates message types on the wire.
type Kind uint16

// Kinds.
const (
	KindInvalid Kind = iota
	KindGood
	KindSwap
	KindShort
	KindRetype
	KindOpt
	KindLenient
	KindMisplaced
	kindMax
)

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   {}
func (w *writer) u16(v uint16) {}
func (w *writer) u32(v uint32) {}
func (w *writer) u64(v uint64) {}
func (w *writer) str(s string) {}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) u8() uint8   { return 0 }
func (r *reader) u16() uint16 { return 0 }
func (r *reader) u32() uint32 { return 0 }
func (r *reader) u64() uint64 { return 0 }
func (r *reader) str() string { return "" }

// Good is fully symmetric: no findings.
type Good struct {
	A uint16
	B string
}

func (m *Good) Kind() Kind { return KindGood }
func (m *Good) encode(w *writer) {
	w.u16(m.A)
	w.str(m.B)
}
func (m *Good) decode(r *reader) {
	m.A = r.u16()
	m.B = r.str()
}

// Swap's decoder reads its two same-typed fields in the wrong order —
// invisible to op kinds, caught by field names.
type Swap struct {
	Credits uint32
	Window  uint32
}

func (m *Swap) Kind() Kind { return KindSwap }
func (m *Swap) encode(w *writer) {
	w.u32(m.Credits)
	w.u32(m.Window)
}
func (m *Swap) decode(r *reader) { // want `encode/decode asymmetry in Swap: op 0: encoder writes field "u32 Credits", decoder stores field "u32 Window" — fields are swapped or reordered`
	m.Window = r.u32()
	m.Credits = r.u32()
}

// Short's decoder stopped reading a field the encoder still writes.
type Short struct {
	A uint16
	B uint16
}

func (m *Short) Kind() Kind { return KindShort }
func (m *Short) encode(w *writer) {
	w.u16(m.A)
	w.u16(m.B)
}
func (m *Short) decode(r *reader) { // want `encode/decode asymmetry in Short: encoder writes 1 extra op\(s\) starting with "u16 B" that the decoder never reads`
	m.A = r.u16()
}

// Retype's decoder reads the fields with the wrong ops.
type Retype struct {
	N uint32
	S string
}

func (m *Retype) Kind() Kind { return KindRetype }
func (m *Retype) encode(w *writer) {
	w.u32(m.N)
	w.str(m.S)
}
func (m *Retype) decode(r *reader) { // want `encode/decode asymmetry in Retype: op 0: encoder writes "u32 N", decoder reads "str S"`
	m.S = r.str()
	m.N = r.u32()
}

// Opt uses the sanctioned evolution idiom on both sides: a trailing
// field written only when set, read only when bytes remain.
type Opt struct {
	A   uint16
	Inc uint32
}

func (m *Opt) Kind() Kind { return KindOpt }
func (m *Opt) encode(w *writer) {
	w.u16(m.A)
	if m.Inc != 0 {
		w.u32(m.Inc)
	}
}
func (m *Opt) decode(r *reader) {
	m.A = r.u16()
	if r.err == nil && r.off < len(r.buf) {
		m.Inc = r.u32()
	}
}

// Lenient's encoder writes its tail unconditionally while the decoder
// guards it — a NEW decoder accepting OLD short frames. Permitted.
type Lenient struct {
	A uint16
	T uint64
}

func (m *Lenient) Kind() Kind { return KindLenient }
func (m *Lenient) encode(w *writer) {
	w.u16(m.A)
	w.u64(m.T)
}
func (m *Lenient) decode(r *reader) {
	m.A = r.u16()
	if r.off < len(r.buf) {
		m.T = r.u64()
	}
}

// Misplaced guards a field that is not last: presence cannot be
// inferred by buffer exhaustion, so every later field shifts.
type Misplaced struct {
	Flag uint8
	X    uint16
}

func (m *Misplaced) Kind() Kind { return KindMisplaced }
func (m *Misplaced) encode(w *writer) { // want `conditional field "opt Flag" of Misplaced is not the trailing field`
	if m.Flag != 0 {
		w.u8(m.Flag)
	}
	w.u16(m.X)
}
func (m *Misplaced) decode(r *reader) { // want `encode/decode asymmetry in Misplaced`
	m.Flag = r.u8()
	m.X = r.u16()
}

// decodeBody is the decode dispatcher.
func decodeBody(k Kind, r *reader) any {
	switch k {
	case KindGood:
		m := &Good{}
		m.decode(r)
		return m
	case KindSwap:
		m := &Swap{}
		m.decode(r)
		return m
	case KindShort:
		m := &Short{}
		m.decode(r)
		return m
	case KindRetype:
		m := &Retype{}
		m.decode(r)
		return m
	case KindOpt:
		m := &Opt{}
		m.decode(r)
		return m
	case KindLenient:
		m := &Lenient{}
		m.decode(r)
		return m
	case KindMisplaced:
		m := &Misplaced{}
		m.decode(r)
		return m
	}
	return nil
}
