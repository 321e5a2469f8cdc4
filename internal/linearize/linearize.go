// Package linearize records client-observed KVS histories and checks
// them for linearizability. It is the harness's L1 audit: after a
// fault-schedule run, every completed operation must be explainable by
// ONE sequential execution that respects real time — if no such order
// exists, two sides of a partition each executed writes the other
// never saw, i.e. split-brain, and no amount of per-machine assertion
// can prove its absence the way the client history can.
//
// The checker is the Wing–Gong construction [Wing & Gong, JPDC '93]
// specialized to a register per key: linearizability is compositional
// over independent objects, so each key's sub-history is searched
// separately (small DFS instances instead of one exponential one).
// Ambiguous operations — a timeout, a StatusError, an unavailable
// shard — may or may not have taken effect; the checker carries their
// writes as OPTIONAL events that the search may place at any point
// after invocation or drop entirely. Typed refusals (shed, fenced,
// denied) are the opposite: the contract says the operation did NOT
// execute, so they are excluded outright — which is precisely why
// fencing must be typed and never silent.
package linearize

import (
	"math"
	"sort"

	"nocpu/internal/sim"
)

// OpKind is the register operation vocabulary (mirrors kvs ops).
type OpKind uint8

const (
	Get OpKind = iota
	Put
	Delete
)

// Outcome is the client-observed result of one operation.
type Outcome uint8

const (
	// Pending: invoked, no response by end of run. The operation may or
	// may not have taken effect (a write in flight when the run ended).
	Pending Outcome = iota
	// OK / NotFound: definitive responses; the operation executed.
	OK
	NotFound
	// Fail: a typed refusal (shed, fenced, denied). The contract is
	// that the operation did NOT execute; it is excluded from the
	// linearization search entirely.
	Fail
	// Maybe: an ambiguous failure (StatusError, unavailable, transport
	// loss). The operation may have executed before the failure.
	Maybe
)

// Op is one invocation/response pair in a history. Outcome sits next to
// Kind, so the two share one word.
type Op struct {
	ID      int
	Kind    OpKind
	Outcome Outcome
	Key     string
	Arg     uint64 // value written (Put); unused otherwise
	Ret     uint64 // value read (Get that returned OK)
	Start   sim.Time
	End     sim.Time // response time; meaningless while Pending
}

// blockOps is how many ops one block of a history holds.
const blockOps = 1024

// History is an append-only record of client-side operations. One
// recorder per harness run; concurrency in the model comes from
// overlapping [Start, End] windows, so a single recorder serves any
// number of simulated clients. The ops are kept in fixed blocks, so a
// growing history never copies the ops it already holds.
type History struct {
	blocks [][]Op
	n      int
}

// NewHistory returns an empty recorder.
func NewHistory() *History { return &History{} }

// Invoke records the start of an operation and returns its ID for the
// matching Return call. Operations left without a Return stay Pending.
func (h *History) Invoke(kind OpKind, key string, arg uint64, now sim.Time) int {
	id := h.n
	if id%blockOps == 0 {
		h.blocks = append(h.blocks, make([]Op, 0, blockOps))
	}
	b := &h.blocks[len(h.blocks)-1]
	*b = append(*b, Op{ID: id, Kind: kind, Key: key, Arg: arg, Start: now, Outcome: Pending})
	h.n++
	return id
}

// Return records the response for the operation Invoke returned id for.
func (h *History) Return(id int, outcome Outcome, ret uint64, now sim.Time) {
	op := &h.blocks[id/blockOps][id%blockOps]
	op.Outcome = outcome
	op.Ret = ret
	op.End = now
}

// Result is the checker's verdict over one history.
type Result struct {
	OK     bool
	BadKey string // first (lexicographically) key with no linearization

	Keys     int // distinct keys checked
	Required int // definitive ops the search had to place
	Optional int // ambiguous writes carried as optional events
	Excluded int // typed refusals and unresolved reads, dropped

	// Aborted lists keys whose search exhausted the state budget
	// (verdict unknown there). Empty on any realistic history; non-nil
	// means the run must be treated as unverified, not as passing.
	Aborted []string
}

// maxStates bounds the total DFS states explored across all keys, so a
// pathological history degrades to an explicit "unknown" instead of
// hanging the harness.
const maxStates = 1 << 21

// timeInf orders optional events: an ambiguous write has no response
// constraint, so its effective end is the end of time.
const timeInf = sim.Time(math.MaxInt64)

// Check searches for a linearization of the history, key by key.
func Check(h *History) Result {
	perKey := make(map[string][]Op)
	var keys []string
	res := Result{OK: true}
	for _, b := range h.blocks {
		for _, op := range b {
			switch {
			case op.Outcome == Fail:
				res.Excluded++ // typed refusal: contractually never executed
				continue
			case op.Kind == Get && (op.Outcome == Pending || op.Outcome == Maybe):
				res.Excluded++ // a read nobody saw the result of constrains nothing
				continue
			case op.Outcome == Pending || op.Outcome == Maybe:
				res.Optional++
			default:
				res.Required++
			}
			if _, ok := perKey[op.Key]; !ok {
				keys = append(keys, op.Key)
			}
			perKey[op.Key] = append(perKey[op.Key], op)
		}
	}
	sort.Strings(keys)
	res.Keys = len(keys)

	budget := maxStates
	for _, k := range keys {
		switch checkKey(perKey[k], &budget) {
		case verdictFail:
			if res.OK {
				res.OK = false
				res.BadKey = k
			}
		case verdictAbort:
			res.Aborted = append(res.Aborted, k)
		}
	}
	return res
}

type verdict uint8

const (
	verdictOK verdict = iota
	verdictFail
	verdictAbort
)

// reg is the sequential specification: a single register per key.
type reg struct {
	present bool
	val     uint64
}

// apply runs one operation against the register, reporting whether the
// observed response is consistent with that state.
func apply(op Op, r reg) (reg, bool) {
	switch op.Kind {
	case Get:
		if op.Outcome == NotFound {
			return r, !r.present
		}
		return r, r.present && r.val == op.Ret
	case Put:
		return reg{present: true, val: op.Arg}, true
	default: // Delete
		if op.Outcome == OK {
			return reg{}, r.present
		}
		if op.Outcome == NotFound {
			return r, !r.present
		}
		// Optional delete: applying it to an absent register is a no-op
		// either way, so the effect is simply "absent".
		return reg{}, true
	}
}

// effEnd is the response-time bound the Wing–Gong minimality rule
// uses. Definitive ops end when their response arrived; ambiguous ones
// never constrain the order of others.
func effEnd(op Op) sim.Time {
	if op.Outcome == Pending || op.Outcome == Maybe {
		return timeInf
	}
	return op.End
}

// checkKey runs the Wing–Gong DFS over one key's sub-history. At each
// step, any not-yet-linearized operation whose invocation precedes the
// earliest outstanding response may be linearized next (the minimality
// rule: real-time order is preserved exactly for non-overlapping
// operations). Required ops must all be placed consistently; optional
// (ambiguous) writes are placed only when doing so helps — a path that
// never picks one IS the "it never took effect" branch, and the
// termination condition ignores them.
func checkKey(ops []Op, budget *int) verdict {
	n := len(ops)
	required := 0
	for _, op := range ops {
		if op.Outcome != Pending && op.Outcome != Maybe {
			required++
		}
	}
	if required == 0 {
		return verdictOK
	}

	words := (n + 63) / 64
	memo := make(map[string]bool)
	// memoKey folds the linearized-set bitmap and register state: two
	// search paths reaching the same pair explore identical futures.
	memoKey := func(mask []uint64, r reg) string {
		b := make([]byte, 0, words*8+9)
		for _, w := range mask {
			for s := 0; s < 64; s += 8 {
				b = append(b, byte(w>>s))
			}
		}
		if r.present {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(r.val>>s))
		}
		return string(b)
	}

	var dfs func(mask []uint64, r reg, left int) verdict
	dfs = func(mask []uint64, r reg, left int) verdict {
		if left == 0 {
			return verdictOK
		}
		if *budget <= 0 {
			return verdictAbort
		}
		*budget--
		key := memoKey(mask, r)
		if memo[key] {
			return verdictFail
		}
		minEnd := timeInf
		for i := 0; i < n; i++ {
			if mask[i/64]&(1<<(i%64)) == 0 {
				if e := effEnd(ops[i]); e < minEnd {
					minEnd = e
				}
			}
		}
		for i := 0; i < n; i++ {
			if mask[i/64]&(1<<(i%64)) != 0 || ops[i].Start > minEnd {
				continue
			}
			next, consistent := apply(ops[i], r)
			if !consistent {
				continue
			}
			mask[i/64] |= 1 << (i % 64)
			nl := left
			if ops[i].Outcome != Pending && ops[i].Outcome != Maybe {
				nl--
			}
			v := dfs(mask, next, nl)
			mask[i/64] &^= 1 << (i % 64)
			if v != verdictFail {
				return v
			}
		}
		memo[key] = true
		return verdictFail
	}

	return dfs(make([]uint64, words), reg{}, required)
}
