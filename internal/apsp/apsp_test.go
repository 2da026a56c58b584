package apsp

import (
	"testing"
	"testing/quick"

	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
)

func TestMatrixMatchesFloydWarshall(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(10),
		gen.Cycle(9),
		gen.Star(12),
		gen.Grid2D(4, 5, false),
		gen.Complete(7),
		gen.GNM(20, 35, 3),
		gen.Disconnected(gen.Path(4), 3),
	}
	for _, g := range graphs {
		for _, v := range []core.Variant{core.BranchBased, core.BranchAvoiding} {
			if err := VerifyMatrix(g, AllDistances(g, v)); err != nil {
				t.Fatalf("variant %d on %s: %v", v, g, err)
			}
		}
	}
}

func TestMatrixProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 4 + int(seed%20)
		g := gen.GNM(n, int64(n), seed)
		return VerifyMatrix(g, AllDistances(g, core.BranchAvoiding)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSummaryPath(t *testing.T) {
	g := gen.Path(10)
	for _, v := range []core.Variant{core.BranchBased, core.BranchAvoiding} {
		r := Summary(g, v)
		if r.Diameter != 9 {
			t.Fatalf("path diameter = %d", r.Diameter)
		}
		if r.Radius != 5 { // center vertices have ecc 5
			t.Fatalf("path radius = %d", r.Radius)
		}
		if r.Ecc[0] != 9 || r.Ecc[4] != 5 {
			t.Fatalf("ecc wrong: %v", r.Ecc)
		}
		if r.ReachablePairs != 90 {
			t.Fatalf("reachable pairs = %d", r.ReachablePairs)
		}
	}
}

func TestSummaryCycleUniform(t *testing.T) {
	g := gen.Cycle(8)
	r := Summary(g, core.BranchAvoiding)
	if r.Diameter != 4 || r.Radius != 4 {
		t.Fatalf("cycle8: diameter=%d radius=%d", r.Diameter, r.Radius)
	}
	for _, e := range r.Ecc {
		if e != 4 {
			t.Fatalf("cycle ecc not uniform: %v", r.Ecc)
		}
	}
	// Mean distance of C8: distances 1,1,2,2,3,3,4 per vertex → 16/7.
	want := 16.0 / 7.0
	if diff := r.MeanDistance - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("mean distance = %v, want %v", r.MeanDistance, want)
	}
}

func TestSummaryVariantsAgree(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 5)
	a := Summary(g, core.BranchBased)
	b := Summary(g, core.BranchAvoiding)
	if a.Diameter != b.Diameter || a.Radius != b.Radius ||
		a.ReachablePairs != b.ReachablePairs || a.MeanDistance != b.MeanDistance {
		t.Fatalf("summaries differ: %+v vs %+v", a, b)
	}
}

func TestSummaryDisconnected(t *testing.T) {
	g := gen.Disconnected(gen.Path(3), 2)
	r := Summary(g, core.BranchBased)
	if r.Diameter != 2 {
		t.Fatalf("diameter = %d", r.Diameter)
	}
	// Each component: 3 vertices, 6 ordered pairs.
	if r.ReachablePairs != 12 {
		t.Fatalf("pairs = %d", r.ReachablePairs)
	}
	isolated := graph.MustBuild(3, nil, graph.Options{})
	r2 := Summary(isolated, core.BranchBased)
	if r2.Diameter != 0 || r2.Radius != 0 || r2.ReachablePairs != 0 || r2.MeanDistance != 0 {
		t.Fatalf("isolated summary: %+v", r2)
	}
}

func TestSummaryMatchesPseudoDiameter(t *testing.T) {
	// PseudoDiameter is a lower bound on the true diameter.
	g := gen.GNM(60, 120, 9)
	r := Summary(g, core.BranchAvoiding)
	if pd := g.PseudoDiameter(); uint32(pd) > r.Diameter {
		t.Fatalf("pseudo-diameter %d exceeds true diameter %d", pd, r.Diameter)
	}
}

func TestVerifyMatrixCatchesCorruption(t *testing.T) {
	g := gen.Cycle(6)
	d := AllDistances(g, core.BranchBased)
	d[2][3]++
	if err := VerifyMatrix(g, d); err == nil {
		t.Fatal("corrupted matrix accepted")
	}
	if err := VerifyMatrix(g, d[:2]); err == nil {
		t.Fatal("truncated matrix accepted")
	}
}
