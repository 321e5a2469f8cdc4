// Package msg is a miniature codec package exercising the shapes
// wireproto reads in a wire body: one accepted body of each shape
// (scalars, a list op, a counted loop nested in a counted loop, a
// trailing optional), pinned field by field by the committed wire.lock
// beside it, and a finding for each shape it refuses.
package msg

// Kind discriminates message types on the wire.
type Kind uint16

// Kinds.
const (
	KindInvalid Kind = iota
	KindScalar
	KindList
	KindNested
	KindOpt
	KindCond
	KindMisplaced
	KindUnknown
	kindMax
)

// ID is a defined type, as msg.DeviceID is.
type ID uint16

type coder struct{ buf []byte }

func u16[T ~uint16](c *coder, v *T)                         {}
func u32[T ~uint32](c *coder, v *T)                         {}
func (c *coder) bool(v *bool)                               {}
func (c *coder) str(v *string)                              {}
func (c *coder) devs(v *[]ID)                               {}
func (c *coder) optU32(v *uint32)                           {}
func (c *coder) varint(v *uint64)                           {}
func count[E any](c *coder, v *[]E, wide bool, min int) int { return 0 }

// Scalar is straight-line scalar ops.
type Scalar struct {
	A  ID
	OK bool
	B  string
}

func (*Scalar) Kind() Kind { return KindScalar }
func (m *Scalar) wire(c *coder) {
	u16(c, &m.A)
	c.bool(&m.OK)
	c.str(&m.B)
}

// List moves a list with a list op.
type List struct {
	Epoch uint32
	Dead  []ID
}

func (*List) Kind() Kind { return KindList }
func (m *List) wire(c *coder) {
	u32(c, &m.Epoch)
	c.devs(&m.Dead)
}

// Region is an element of Nested's list.
type Region struct {
	App      uint32
	Grantees []ID
}

// Nested loops over a counted list whose elements hold a counted list,
// as msg.StateResp does.
type Nested struct {
	Regions []Region
}

func (*Nested) Kind() Kind { return KindNested }
func (m *Nested) wire(c *coder) {
	for i := range count(c, &m.Regions, true, 6) {
		reg := &m.Regions[i]
		u32(c, &reg.App)
		for j := range count(c, &reg.Grantees, false, 2) {
			u16(c, &reg.Grantees[j])
		}
	}
}

// Opt ends in a trailing optional: the one way a message grows.
type Opt struct {
	A   ID
	Inc uint32
}

func (*Opt) Kind() Kind { return KindOpt }
func (m *Opt) wire(c *coder) {
	u16(c, &m.A)
	c.optU32(&m.Inc)
}

// Cond writes a field only sometimes, under an if: decoding, the body
// cannot know whether the field is there.
type Cond struct {
	A   ID
	Inc uint32
}

func (*Cond) Kind() Kind { return KindCond }
func (m *Cond) wire(c *coder) {
	u16(c, &m.A)
	if m.Inc != 0 { // want `coder op under a condition`
		u32(c, &m.Inc)
	}
}

// Misplaced has an optional that is not its last field: presence cannot
// be inferred by buffer exhaustion, so every later field shifts.
type Misplaced struct {
	Flag uint32
	X    ID
}

func (*Misplaced) Kind() Kind { return KindMisplaced }
func (m *Misplaced) wire(c *coder) { // want `optional field "opt Flag" of Misplaced is not the trailing field`
	c.optU32(&m.Flag)
	u16(c, &m.X)
}

// Unknown uses an op whose layout wireproto has not been taught.
type Unknown struct {
	N uint64
}

func (*Unknown) Kind() Kind { return KindUnknown }
func (m *Unknown) wire(c *coder) {
	c.varint(&m.N) // want `unknown coder op varint`
}

// dispatch is the dispatcher.
func dispatch(k Kind, c *coder) any {
	switch k {
	case KindScalar:
		m := &Scalar{}
		m.wire(c)
		return m
	case KindList:
		m := &List{}
		m.wire(c)
		return m
	case KindNested:
		m := &Nested{}
		m.wire(c)
		return m
	case KindOpt:
		m := &Opt{}
		m.wire(c)
		return m
	case KindCond:
		m := &Cond{}
		m.wire(c)
		return m
	case KindMisplaced:
		m := &Misplaced{}
		m.wire(c)
		return m
	case KindUnknown:
		m := &Unknown{}
		m.wire(c)
		return m
	}
	return nil
}
