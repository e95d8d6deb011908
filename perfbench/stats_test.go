package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.0001, 1},
	} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("percentile of no samples should be NaN")
	}
}

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
	}{{5, "p50"}, {19, "p50"}, {20, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {10000, "p99.9"}} {
		if _, got := tailLevel(c.n); got != c.name {
			t.Errorf("tailLevel(%d) = %s, want %s", c.n, got, c.name)
		}
	}
	// A p99 over 1000 samples has exactly 10 samples above it.
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	sum := summarize(s, "ms")
	beyond := 0
	for _, v := range s {
		if v > sum.TailV {
			beyond++
		}
	}
	if sum.Tail != "p99" || beyond != 10 || sum.N != 1000 || sum.Median != 499 {
		t.Fatalf("summary %+v with %d beyond the tail", sum, beyond)
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v, %v; want 4", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.Inf(1)}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) should fail", bad)
		}
	}
}
