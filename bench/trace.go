package main

import (
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the program. Parent is an index into the same slice, -1 at the
// root. Times are host nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which is
// how the untraced repetitions run: the calls stay, the clock reads go.
type tracer struct {
	t0    time.Time
	rep   int
	spans []span
	stack []int
}

func newTracer(rep int) *tracer { return &tracer{t0: time.Now(), rep: rep} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Rep: t.rep})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.t0))
}

// spanTotal is the per-name summary of a trace: how often a span ran,
// its total time, and its self time (total minus the part its children
// cover).
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	ParentN string  `json:"parent"`
}

func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanTotal{}
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			if s.Parent >= 0 {
				st.ParentN = t.spans[s.Parent].Name
			}
			by[s.Name] = st
		}
		st.Count++
		st.TotalS += float64(s.End-s.Start) / 1e9
		st.SelfS += float64(s.End-s.Start-child[i]) / 1e9
	}
	out := make([]spanTotal, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
