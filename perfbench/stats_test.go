package main

import (
	"math"
	"testing"
)

// The percentile rule: the highest reportable percentile is the one
// with exactly minBeyond samples beyond it, and any higher one has
// fewer.
func TestTailPercentileHasTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 19, 100, 999, 1000, 1001, 4096, 123457} {
		p, ok := tailPercentile(n)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		if beyond := n - rank(p, n); beyond != minBeyond {
			t.Errorf("n=%d: p%.6g has %d samples beyond, want %d", n, p, beyond, minBeyond)
		}
		if !reportable(p, n) {
			t.Errorf("n=%d: tail percentile p%.6g not reportable", n, p)
		}
		if higher := math.Nextafter(p, 101) + 1e-6; higher <= 100 && reportable(higher, n) {
			t.Errorf("n=%d: p%.6g above the tail percentile is reportable", n, higher)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, ok := tailPercentile(n); ok {
			t.Errorf("n=%d: a tail percentile exists with too few samples", n)
		}
	}
}

func TestP99NeedsAThousandSamples(t *testing.T) {
	if reportable(99, 999) {
		t.Error("p99 of 999 samples has fewer than 10 beyond it but is reportable")
	}
	if !reportable(99, 1000) {
		t.Error("p99 of 1000 samples has 10 beyond it but is not reportable")
	}
	if !reportable(50, 20) || reportable(50, 19) {
		t.Error("p50 needs exactly 20 samples")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
