// Package msg is a miniature codec package exercising wireproto's
// registration-completeness checks: every Kind constant needs a message
// type, and the decode dispatcher must construct the right type for
// every kind.
package msg

// Kind discriminates message types on the wire.
type Kind uint16

// Kinds.
const (
	KindInvalid Kind = iota
	KindA
	KindB      // want `kind KindB is not constructed by the decode dispatcher \(decodeBody\): inbound frames of this kind are rejected as unknown`
	KindOrphan // want `msg\.Kind constant KindOrphan has no message type: no type's Kind\(\) method returns it`
	KindMis
	kindMax
)

type writer struct{ buf []byte }

func (w *writer) u16(v uint16) {}

type reader struct {
	buf []byte
	off int
}

func (r *reader) u16() uint16 { return 0 }

// A is registered end-to-end.
type A struct{ X uint16 }

func (m *A) Kind() Kind       { return KindA }
func (m *A) encode(w *writer) { w.u16(m.X) }
func (m *A) decode(r *reader) { m.X = r.u16() }

// B has a type but decodeBody never constructs it.
type B struct{ Y uint16 }

func (m *B) Kind() Kind       { return KindB }
func (m *B) encode(w *writer) { w.u16(m.Y) }
func (m *B) decode(r *reader) { m.Y = r.u16() }

// Mis is registered, but the dispatcher returns the wrong type for it.
type Mis struct{ Z uint16 }

func (m *Mis) Kind() Kind       { return KindMis }
func (m *Mis) encode(w *writer) { w.u16(m.Z) }
func (m *Mis) decode(r *reader) { m.Z = r.u16() }

// Enc can be sent but never parsed.
type Enc struct{ W uint16 }

func (m *Enc) encode(w *writer) { w.u16(m.W) } // want `Enc has encode but no decode method: frames of this kind can never be parsed by a receiver`

// decodeBody is the decode dispatcher.
func decodeBody(k Kind, r *reader) any {
	switch k {
	case KindA:
		m := &A{}
		m.decode(r)
		return m
	case KindMis: // want `decode dispatcher returns A for KindMis, but A's Kind\(\) is KindA: frames of kind KindMis would be parsed with the wrong layout`
		m := &A{}
		m.decode(r)
		return m
	}
	return nil
}
