// Package msg is a miniature codec package with a committed wire.lock
// exercising the append-only evolution checks: removed fields, retyped
// fields, renumbered kinds, vanished kinds and reused wire numbers are
// reported; brand-new kinds on fresh numbers are not.
package msg // want `kind KindGone \(5\) is in wire.lock but gone from the tree: removing a wire kind orphans every peer still sending it`

// Kind discriminates message types on the wire.
type Kind uint16

// Kinds. KindC moved off its locked number; KindD and KindE are new,
// but KindE lands on the number the lock assigns to KindGone.
const (
	KindInvalid Kind = 0
	KindA       Kind = 1
	KindB       Kind = 2
	KindC       Kind = 9
	KindD       Kind = 4
	KindE       Kind = 5
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
}

func (r *reader) u8() uint8   { return 0 }
func (r *reader) u16() uint16 { return 0 }
func (r *reader) u32() uint32 { return 0 }
func (r *reader) u64() uint64 { return 0 }
func (r *reader) str() string { return "" }

// A dropped its locked trailing field Y.
type A struct{ X uint16 }

func (m *A) Kind() Kind { return KindA }
func (m *A) encode(w *writer) { // want `wire\.lock: field "u16 Y" removed from KindA: old frames still carry it, so every later field would decode shifted`
	w.u16(m.X)
}
func (m *A) decode(r *reader) { m.X = r.u16() }

// B retyped its locked field P from u32 to str.
type B struct{ P string }

func (m *B) Kind() Kind { return KindB }
func (m *B) encode(w *writer) { // want `wire\.lock: field 0 of KindB changed: wire\.lock has "u32 P", tree has "str P"`
	w.str(m.P)
}
func (m *B) decode(r *reader) { m.P = r.str() }

// C kept its layout but moved to a different wire number.
type C struct{ Q uint8 }

func (m *C) Kind() Kind { return KindC }
func (m *C) encode(w *writer) { // want `wire\.lock: kind KindC renumbered 3 -> 9: the discriminator is wire-visible, so old frames would dispatch to the wrong decoder`
	w.u8(m.Q)
}
func (m *C) decode(r *reader) { m.Q = r.u8() }

// D is a new kind on a fresh number: fine.
type D struct{ Z uint64 }

func (m *D) Kind() Kind       { return KindD }
func (m *D) encode(w *writer) { w.u64(m.Z) }
func (m *D) decode(r *reader) { m.Z = r.u64() }

// E is new but squats on the number the lock gives to KindGone.
type E struct{ V uint32 }

func (m *E) Kind() Kind { return KindE }
func (m *E) encode(w *writer) { // want `wire\.lock: new kind KindE reuses wire number 5, which wire\.lock assigns to KindGone`
	w.u32(m.V)
}
func (m *E) decode(r *reader) { m.V = r.u32() }

// decodeBody is the decode dispatcher.
func decodeBody(k Kind, r *reader) any {
	switch k {
	case KindA:
		m := &A{}
		m.decode(r)
		return m
	case KindB:
		m := &B{}
		m.decode(r)
		return m
	case KindC:
		m := &C{}
		m.decode(r)
		return m
	case KindD:
		m := &D{}
		m.decode(r)
		return m
	case KindE:
		m := &E{}
		m.decode(r)
		return m
	}
	return nil
}
