// Package msg is a miniature codec package exercising wireproto's
// registration-completeness checks: every Kind constant needs a message
// type, and the dispatcher must run the right type's wire body for
// every kind.
package msg

// Kind discriminates message types on the wire.
type Kind uint16

// Kinds.
const (
	KindInvalid Kind = iota
	KindA
	KindB      // want `kind KindB has no arm in the dispatcher \(dispatch\): its frames can be neither encoded nor decoded`
	KindOrphan // want `msg\.Kind constant KindOrphan has no message type: no type's Kind\(\) method returns it`
	KindMis
	kindMax
)

type coder struct{ buf []byte }

func u16[T ~uint16](c *coder, v *T) {}

// A is registered end-to-end.
type A struct{ X uint16 }

func (m *A) Kind() Kind    { return KindA }
func (m *A) wire(c *coder) { u16(c, &m.X) }

// B has a type but dispatch never runs it.
type B struct{ Y uint16 }

func (m *B) Kind() Kind    { return KindB }
func (m *B) wire(c *coder) { u16(c, &m.Y) }

// Mis is registered, but the dispatcher runs the wrong type for it.
type Mis struct{ Z uint16 }

func (m *Mis) Kind() Kind    { return KindMis }
func (m *Mis) wire(c *coder) { u16(c, &m.Z) }

// Enc has a wire body but no kind to carry it.
type Enc struct{ W uint16 }

func (m *Enc) wire(c *coder) { u16(c, &m.W) } // want `Enc has a wire body but no resolvable Kind\(\) method returning a msg\.Kind constant`

// dispatch is the dispatcher.
func dispatch(k Kind, c *coder) any {
	switch k {
	case KindA:
		m := &A{}
		m.wire(c)
		return m
	case KindMis: // want `dispatcher runs A for KindMis, but A's Kind\(\) is KindA: frames of kind KindMis would be laid out as another kind's`
		m := &A{}
		m.wire(c)
		return m
	}
	return nil
}
