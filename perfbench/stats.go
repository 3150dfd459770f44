package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail number never rests on
// a handful of observations.
const minBeyond = 10

// errUnsupported marks a percentile the sample is too small to support.
var errUnsupported = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank q-quantile of samples, refusing any
// percentile fewer than minBeyond samples lie beyond.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	// The epsilon keeps a product like 0.9*100 from rounding up a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", 100*q, n, errUnsupported)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so the spreads -runs prints match the ones an
// external checker computes from the same values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// digestEntry is one answer's contribution to a run's answer digest: the
// operation that produced it, which answer of that operation it is (a
// threshold index or a subscription ID), and the probability's bits.
type digestEntry struct {
	op, key uint64
	p       float64
}

// digest is FNV-64a over the entries sorted by (op, key), so two runs
// that served the same answers agree regardless of completion order.
func digest(entries []digestEntry) uint64 {
	s := append([]digestEntry(nil), entries...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].op != s[j].op {
			return s[i].op < s[j].op
		}
		return s[i].key < s[j].key
	})
	h := fnv.New64a()
	var buf [24]byte
	for _, e := range s {
		binary.LittleEndian.PutUint64(buf[0:], e.op)
		binary.LittleEndian.PutUint64(buf[8:], e.key)
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(e.p))
		h.Write(buf[:])
	}
	return h.Sum64()
}
