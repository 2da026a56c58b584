package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be modified
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.95, 4.8}, {0.125, 1.5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
	// A cell that was not measured must not produce a plausible class time.
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with an unmeasured cell = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 40}}, 70},
		{"disjoint children", []interval{{10, 20}, {50, 70}}, 70},
		// A hedged request: two round trips in flight at once. The
		// overlap is covered once, not twice.
		{"overlapping children", []interval{{10, 60}, {40, 80}}, 30},
		{"nested children", []interval{{10, 90}, {20, 30}}, 20},
		{"child outlives parent", []interval{{50, 150}}, 50},
		{"child before parent", []interval{{-20, 10}}, 90},
		{"unsorted", []interval{{60, 80}, {0, 20}, {10, 30}}, 50},
		{"empty child", []interval{{30, 30}}, 100},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self time = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{10}); got != 0 {
		t.Errorf("one run has spread %v, want 0", got)
	}
	if got := spread([]float64{9, 10, 11}); !near(got, 0.1) {
		t.Errorf("spread(9, 10, 11) = %v, want 0.1", got)
	}
}
