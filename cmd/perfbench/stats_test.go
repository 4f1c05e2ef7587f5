package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-sample p90 = %v, want 7", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestPercentileCountsFailuresInTheTail(t *testing.T) {
	inf := math.Inf(1)
	xs := []float64{1, 2, 3, inf}
	if got := percentile(xs, 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
	if got := percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 interpolating into a failure = %v, want +Inf", got)
	}
	if got := percentile(xs, 0.5); got != 2.5 {
		t.Errorf("median below the failure = %v, want 2.5", got)
	}
}

func TestRatioAndMean(t *testing.T) {
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1,4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("empty mean = %v, want 0", got)
	}
}
