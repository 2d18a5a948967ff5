package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: 256 linear
// sub-buckets per power of two, so a reading is within 0.4 % of the true
// value, in fixed memory however many samples arrive.
type hist struct {
	n      uint64
	counts [64 * subBuckets]uint64
}

const subBits = 8
const subBuckets = 1 << subBits

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits // ≥ 1
	return e*subBuckets + int(uint64(v)>>(e-1)) - subBuckets
}

// bucketRange is the [lo, hi) value range of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < 2*subBuckets {
		return float64(i), float64(i + 1)
	}
	e := i/subBuckets - 1
	m := i%subBuckets + subBuckets
	lo = float64(uint64(m) << e)
	return lo, lo + float64(uint64(1)<<e)
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// quantile returns the q-quantile, interpolated within its bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := bucketRange(i)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, hi := bucketRange(len(h.counts) - 1)
	return (lo + hi) / 2
}

// quantile is the q-quantile of v's numbers (NaNs are skipped: a slice
// without samples), interpolating between order statistics as Python's
// statistics.quantiles(method="inclusive") does.
func quantile(v []float64, q float64) float64 {
	var s []float64
	for _, x := range v {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quietQuartile is how the benchmark reduces its slices to one
// figure: the quartile on the good side (the lower quartile of a cost, the
// upper quartile of a rate). A shared host loses CPU to its neighbours in
// bursts of milliseconds to seconds; a slice hit by one reads worse, never
// better, so the good-side quartile tracks the program and the median
// would track the neighbours.
func quietQuartile(v []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(v, 0.25)
	}
	return quantile(v, 0.75)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
