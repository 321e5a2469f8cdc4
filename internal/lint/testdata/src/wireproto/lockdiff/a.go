// Package msg is a miniature codec package with a committed wire.lock
// exercising the append-only evolution checks: removed fields, retyped
// fields, renumbered kinds, vanished kinds, reused wire numbers and
// same-typed fields that traded places are reported; brand-new kinds on
// fresh numbers and a field renamed in place are not.
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
	KindF       Kind = 6
	KindG       Kind = 7
)

type coder struct{ buf []byte }

func u8[T ~uint8](c *coder, v *T)   {}
func u16[T ~uint16](c *coder, v *T) {}
func u32[T ~uint32](c *coder, v *T) {}
func u64[T ~uint64](c *coder, v *T) {}
func (c *coder) str(v *string)      {}

// A dropped its locked trailing field Y.
type A struct{ X uint16 }

func (m *A) Kind() Kind { return KindA }
func (m *A) wire(c *coder) { // want `wire\.lock: field "u16 Y" removed from KindA: old frames still carry it, so every later field would decode shifted`
	u16(c, &m.X)
}

// B retyped its locked field P from u32 to str.
type B struct{ P string }

func (m *B) Kind() Kind { return KindB }
func (m *B) wire(c *coder) { // want `wire\.lock: field 0 of KindB changed: wire\.lock has "u32 P", tree has "str P"`
	c.str(&m.P)
}

// C kept its layout but moved to a different wire number.
type C struct{ Q uint8 }

func (m *C) Kind() Kind { return KindC }
func (m *C) wire(c *coder) { // want `wire\.lock: kind KindC renumbered 3 -> 9: the discriminator is wire-visible, so old frames would dispatch to the wrong decoder`
	u8(c, &m.Q)
}

// D is a new kind on a fresh number: fine.
type D struct{ Z uint64 }

func (m *D) Kind() Kind    { return KindD }
func (m *D) wire(c *coder) { u64(c, &m.Z) }

// E is new but squats on the number the lock gives to KindGone.
type E struct{ V uint32 }

func (m *E) Kind() Kind { return KindE }
func (m *E) wire(c *coder) { // want `wire\.lock: new kind KindE reuses wire number 5, which wire\.lock assigns to KindGone`
	u32(c, &m.V)
}

// F's two same-typed fields traded places: invisible to op kinds,
// caught by field names.
type F struct{ Window, Credits uint32 }

func (m *F) Kind() Kind { return KindF }
func (m *F) wire(c *coder) { // want `wire\.lock: field 0 of KindF moved: wire\.lock has "u32 Window" there, tree has "u32 Credits"` `wire\.lock: field 1 of KindF moved: wire\.lock has "u32 Credits" there, tree has "u32 Window"`
	u32(c, &m.Credits)
	u32(c, &m.Window)
}

// G renamed its locked field in place: not a wire change.
type G struct{ Size uint32 }

func (m *G) Kind() Kind    { return KindG }
func (m *G) wire(c *coder) { u32(c, &m.Size) }

// dispatch is the dispatcher.
func dispatch(k Kind, c *coder) any {
	switch k {
	case KindA:
		m := &A{}
		m.wire(c)
		return m
	case KindB:
		m := &B{}
		m.wire(c)
		return m
	case KindC:
		m := &C{}
		m.wire(c)
		return m
	case KindD:
		m := &D{}
		m.wire(c)
		return m
	case KindE:
		m := &E{}
		m.wire(c)
		return m
	case KindF:
		m := &F{}
		m.wire(c)
		return m
	case KindG:
		m := &G{}
		m.wire(c)
		return m
	}
	return nil
}
