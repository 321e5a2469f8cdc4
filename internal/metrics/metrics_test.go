package metrics

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nocpu/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram not all-zero")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i * 1000))
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != 1000 || h.Max() != 100000 {
		t.Errorf("min=%v max=%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	var samples []sim.Duration
	r := sim.NewRand(1)
	for i := 0; i < 50000; i++ {
		d := sim.Duration(r.Intn(1000000) + 1)
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Quantile(q)
		rel := float64(got-exact) / float64(exact)
		if rel < -0.10 || rel > 0.10 {
			t.Errorf("q=%v: got %v exact %v (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	h.Observe(500)
	if h.Quantile(0) != 500 || h.Quantile(1) != 500 || h.Quantile(0.5) != 500 {
		t.Error("single-sample quantiles wrong")
	}
	h.Observe(0) // zero sample must be accepted
	if h.Min() != 0 {
		t.Error("zero sample not recorded as min")
	}
}

// Property: quantiles are monotone in q and bounded by [min, max].
func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(sim.Duration(v % 10000000))
		}
		if h.Count() == 0 {
			return true
		}
		prev := sim.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 3.14159)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: header and separator equal width.
	if len(lines[1]) != len(lines[2]) {
		t.Errorf("misaligned header/separator:\n%s", out)
	}
}
