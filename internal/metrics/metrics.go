// Package metrics provides the measurement primitives used by the
// experiment harness: counters, log-bucketed latency histograms with
// percentile queries, and plain-text table rendering for the tables
// recorded in EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"nocpu/internal/sim"
)

// Histogram records durations in logarithmic buckets (HdrHistogram-style:
// ~4% relative error) so percentile queries are O(buckets) and memory is
// constant regardless of sample count.
type Histogram struct {
	counts []uint64
	total  uint64
	min    sim.Duration
	max    sim.Duration
}

// bucketsPerOctave controls resolution: 16 sub-buckets per power of two.
const bucketsPerOctave = 16

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, 64*bucketsPerOctave), min: math.MaxInt64}
}

func bucketOf(d sim.Duration) int {
	if d < 1 {
		d = 1
	}
	v := uint64(d)
	// Index = octave*16 + position within octave.
	oct := 63 - leadingZeros(v)
	var sub uint64
	if oct > 4 {
		sub = (v >> (uint(oct) - 4)) & (bucketsPerOctave - 1)
	} else {
		sub = (v << (4 - uint(oct))) & (bucketsPerOctave - 1)
	}
	return oct*bucketsPerOctave + int(sub)
}

func leadingZeros(v uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// bucketValue returns a representative duration for bucket i (its lower
// bound).
func bucketValue(i int) sim.Duration {
	oct := i / bucketsPerOctave
	sub := uint64(i % bucketsPerOctave)
	if oct > 4 {
		return sim.Duration((uint64(1) << uint(oct)) | (sub << (uint(oct) - 4)))
	}
	return sim.Duration((uint64(1) << uint(oct)) | (sub >> (4 - uint(oct))))
}

// Observe records one sample.
func (h *Histogram) Observe(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.total++
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() sim.Duration { return h.max }

// Quantile returns the approximate q-quantile (0 <= q <= 1). The true
// value lies within one bucket (~6%) of the result.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// P50 and P99 are convenience quantiles.
func (h *Histogram) P50() sim.Duration { return h.Quantile(0.50) }
func (h *Histogram) P99() sim.Duration { return h.Quantile(0.99) }

// Table is a simple column-aligned table used for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		widths[i] = len(hd)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Gauge tracks an instantaneous queue depth with a high-watermark and an
// optional bound, the primitive behind the overload audit's Q1 invariant
// (no queue exceeds its bound). It is sampled by the subsystem that owns
// the queue — sim cannot import metrics — and carries no time of its
// own, so recording into one never perturbs a trace.
type Gauge struct {
	cur   int
	max   int
	bound int // 0 = unbounded
}

// NewGauge returns a gauge with the given bound (0 = unbounded).
func NewGauge(bound int) *Gauge { return &Gauge{bound: bound} }

// Set records the current depth, updating the high-watermark.
func (g *Gauge) Set(v int) {
	g.cur = v
	if v > g.max {
		g.max = v
	}
}

// Cur returns the current depth.
func (g *Gauge) Cur() int { return g.cur }

// Max returns the high-watermark.
func (g *Gauge) Max() int { return g.max }

// Bound returns the configured bound (0 = unbounded).
func (g *Gauge) Bound() int { return g.bound }

// Exceeded reports whether the high-watermark ever passed the bound.
func (g *Gauge) Exceeded() bool { return g.bound > 0 && g.max > g.bound }
