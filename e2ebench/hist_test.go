package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketRangeContainsValue(t *testing.T) {
	for _, v := range []int64{0, 1, 511, 512, 513, 1023, 1024, 1025, 99999, 1 << 40} {
		lo, hi := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Fatalf("value %d in bucket [%v, %v)", v, lo, hi)
		}
	}
}

func TestQuantileWithinPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	vals := make([]float64, 100000)
	for i := range vals {
		v := int64(math.Exp(rng.Float64()*12) * 100)
		vals[i] = float64(v)
		h.add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := vals[int(q*float64(len(vals)-1))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%.2f = %v, want %v", q, got, want)
		}
	}
}
