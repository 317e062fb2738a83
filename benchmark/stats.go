package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p90 needs 100 samples and p99
// needs 1000. The median is always reportable.
const minBeyond = 10

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks; 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s sample) sum() float64 { return s.mean() * float64(len(s)) }

// supports reports whether the sample is large enough for percentile p
// (0 < p < 100) under the minBeyond rule.
func (s sample) supports(p float64) bool {
	beyond := int(math.Floor(float64(len(s)) * (100 - p) / 100))
	return beyond >= minBeyond
}

// percentile returns the p-th percentile, or 0 when the sample does not
// support it. 0 is the "not reported" value of every per-layer metric.
func (s sample) percentile(p float64) float64 {
	if !s.supports(p) {
		return 0
	}
	return s.quantile(p / 100)
}

// quartileSpread is the run-to-run spread the acceptance rule uses: the
// distance between the first and third quartile as a share of the median,
// with the quartiles of Python's statistics.quantiles(values, n=4)
// (exclusive method). ok is false below two values or at a zero median.
func quartileSpread(values []float64) (spread float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, false
	}
	v := sample(values).sorted()
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + (v[j]-v[j-1])*frac
	}
	med := sample(v).median()
	if med == 0 {
		return 0, false
	}
	return (q(3) - q(1)) / math.Abs(med), true
}
