package main

import (
	"math/rand"
	"testing"
)

func TestHistQuantilesWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]int64, 100000)
	for i := range xs {
		xs[i] = rng.Int63n(50_000_000)
		h.add(xs[i])
	}
	for _, q := range []float64{0.5, 0.99} {
		want := percentile(xs, q)
		got := h.quantile(q)
		if d := (got - want) / want; d > 1.0/histSub || d < -1.0/histSub {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 1 << 20, 1<<20 + 12345} {
		if got := histValue(histIndex(v)); got < float64(v)*(1-1.0/histSub)-1 || got > float64(v)*(1+1.0/histSub)+1 {
			t.Errorf("value %d lands in a bucket reading %.1f", v, got)
		}
	}
}
