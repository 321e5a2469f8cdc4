package main

import (
	"encoding/binary"
	"math"
	"sort"
)

// rng is the benchmark's own input generator (splitmix64). Inputs come
// from here, never from a generator inside the program under test, so
// a change to internal/sim cannot change what the workloads ask for.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^theta by inverse CDF.
type zipf struct {
	r   *rng
	cdf []float64
}

func newZipf(r *rng, n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{r: r, cdf: cdf}
}

func (z *zipf) next() int { return sort.SearchFloat64s(z.cdf, z.r.float()) }

// valueSize is the size of every stored value.
const valueSize = 64

// valueFor builds the 64 B value for key at version ver: the version in
// the first 8 bytes, then bytes derived from the key, so a reply that
// carries another key's value is caught.
func valueFor(key string, ver uint64) []byte {
	v := make([]byte, valueSize)
	binary.LittleEndian.PutUint64(v, ver)
	h := fnv64(key)
	for i := 8; i < valueSize; i += 8 {
		h = h*0x100000001b3 + uint64(i)
		binary.LittleEndian.PutUint64(v[i:], h)
	}
	return v
}

// valueVersion checks that v is some version of key's value and returns
// the version.
func valueVersion(key string, v []byte) (uint64, bool) {
	if len(v) != valueSize {
		return 0, false
	}
	ver := binary.LittleEndian.Uint64(v)
	want := valueFor(key, ver)
	for i := range v {
		if v[i] != want[i] {
			return 0, false
		}
	}
	return ver, true
}

func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4), which is
// what the driver uses, so the spreads printed here are the spreads it
// will see.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the q-th quantile of sorted (nearest rank).
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
