package main

import (
	"math"
	"testing"
)

func TestQuantileUniform(t *testing.T) {
	xs := make([]float64, 1001)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := quantile(xs, q), q*1000; math.Abs(got-want) > 1 {
			t.Errorf("quantile(0..1000, %g) = %g, want about %g", q, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %g, want 7", got)
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	if _, q := tail(xs, 0.99); math.Abs(q-0.95) > 1e-12 {
		t.Errorf("tail of 200 samples reported p%g, want p95", q*100)
	}
	if _, q := tail(xs[:15], 0.99); q != 0.5 {
		t.Errorf("tail of 15 samples reported p%g, want p50", q*100)
	}
	if _, q := tail(make([]float64, 5000), 0.99); q != 0.99 {
		t.Errorf("tail of 5000 samples reported p%g, want p99", q*100)
	}
}
