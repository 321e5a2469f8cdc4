package sim

// FreeBound caps every free list of event records. It covers a rack's
// steady bursts (eight machines renewing their leases in step put 56
// frames on the wire at once), and keeps a list from holding a NIC's
// boot-time rx backlog for the rest of the run.
const FreeBound = 64

// Free is a bounded free list of event records, for an owner that alone
// can tell when one of its records is dead: only the owner puts a record
// back, and only once nothing else, the event queue included, holds it.
type Free[T any] struct{ recs []*T }

// Get returns a zeroed record: a freed one when the list has one, else a
// new one.
func (f *Free[T]) Get() *T {
	if n := len(f.recs); n > 0 {
		r := f.recs[n-1]
		f.recs = f.recs[:n-1]
		return r
	}
	return new(T)
}

// Put zeroes r, so that a freed record pins nothing it pointed at, and
// keeps it unless the list is full.
func (f *Free[T]) Put(r *T) {
	var zero T
	*r = zero
	if f.recs == nil {
		f.recs = make([]*T, 0, FreeBound)
	}
	if len(f.recs) < FreeBound {
		f.recs = append(f.recs, r)
	}
}
