package sssp

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/testutil"
)

// bellmanFord is BellmanFord to completion into a fresh array.
func bellmanFord(g *graph.Weighted, src uint32, variant core.Variant) ([]uint64, perfcount.Stats) {
	dist, st, _ := BellmanFord(context.Background(), g, src, variant, nil)
	return dist, st
}

func TestKernelsAgreeWithDijkstra(t *testing.T) {
	testutil.ForEachWeighted(t, nil, func(t *testing.T, g *graph.Weighted) {
		want := Dijkstra(g, 0)
		bb, stBB := bellmanFord(g, 0, core.BranchBased)
		ba, stBA := bellmanFord(g, 0, core.BranchAvoiding)
		if g.NumVertices() > 0 {
			if err := Verify(g, 0, want); err != nil {
				t.Fatalf("dijkstra oracle invalid: %v", err)
			}
		}
		testutil.MustEqualDists(t, "branch-based", bb, want)
		testutil.MustEqualDists(t, "branch-avoiding", ba, want)
		// Both BF variants sweep identically.
		if stBB.Passes != stBA.Passes {
			t.Fatalf("passes differ: %d vs %d", stBB.Passes, stBA.Passes)
		}
	})
}

func TestAgreementProperty(t *testing.T) {
	x := testutil.Exec(t, 2, par.Static)
	f := func(seed uint64) bool {
		n := 10 + int(seed%80)
		g := testutil.RandomWeighted(n, 2*n, 20, seed)
		src := uint32(seed % uint64(n))
		want := Dijkstra(g, src)
		bb, _ := bellmanFord(g, src, core.BranchBased)
		ba, _ := bellmanFord(g, src, core.BranchAvoiding)
		eng, _, _ := Parallel(x, g, src, ParallelOptions{Variant: core.Hybrid}, nil, new(Scratch))
		for v := range want {
			if bb[v] != want[v] || ba[v] != want[v] || eng[v] != want[v] {
				return false
			}
		}
		return Verify(g, src, want) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStoreAsymmetry(t *testing.T) {
	// Branch-avoiding stores exactly |V| per pass; branch-based stores
	// per improvement.
	g := testutil.AttachHashWeights(t, gen.Grid3D(6, 6, 6, 1), 50, 7)
	_, bb := bellmanFord(g, 0, core.BranchBased)
	_, ba := bellmanFord(g, 0, core.BranchAvoiding)
	v := uint64(g.NumVertices())
	if ba.DistStores != v*uint64(ba.Passes) {
		t.Fatalf("BA stores = %d, want %d", ba.DistStores, v*uint64(ba.Passes))
	}
	if bb.DistStores == 0 || bb.DistStores == ba.DistStores {
		t.Fatalf("BB stores = %d, suspicious", bb.DistStores)
	}
	// Final sweep changes nothing.
	if bb.PassChanges[bb.Passes-1] != 0 || ba.PassChanges[ba.Passes-1] != 0 {
		t.Fatal("final sweep reported changes")
	}
	if bb.Total() <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestPassChangesAgree(t *testing.T) {
	g := testutil.RandomWeighted(120, 400, 9, 11)
	_, bb := bellmanFord(g, 5, core.BranchBased)
	_, ba := bellmanFord(g, 5, core.BranchAvoiding)
	for i := range bb.PassChanges {
		if bb.PassChanges[i] != ba.PassChanges[i] {
			t.Fatalf("pass %d: changes %d vs %d", i, bb.PassChanges[i], ba.PassChanges[i])
		}
	}
}

func TestDisconnected(t *testing.T) {
	g := graph.MustBuildWeighted(4, []graph.WeightedEdge{{U: 0, V: 1, W: 3}, {U: 2, V: 3, W: 4}}, "2comp")
	for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding} {
		dist, _ := bellmanFord(g, 0, variant)
		if dist[2] != Inf || dist[3] != Inf {
			t.Fatal("unreachable vertices not Inf")
		}
		if dist[1] != 3 {
			t.Fatalf("dist[1] = %d", dist[1])
		}
	}
	d := Dijkstra(g, 0)
	if d[2] != Inf {
		t.Fatal("dijkstra reached other component")
	}
}

func TestZeroWeightEdges(t *testing.T) {
	g := graph.MustBuildWeighted(3, []graph.WeightedEdge{{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0}}, "zeros")
	for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding} {
		dist, _ := bellmanFord(g, 0, variant)
		if dist[1] != 0 || dist[2] != 0 {
			t.Fatalf("zero-weight distances: %v", dist)
		}
		if err := Verify(g, 0, dist); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := graph.MustBuildWeighted(0, nil, "")
	if d := Dijkstra(empty, 0); len(d) != 0 {
		t.Fatal("empty dijkstra")
	}
	single := graph.MustBuildWeighted(1, nil, "")
	dist, st := bellmanFord(single, 0, core.BranchAvoiding)
	if dist[0] != 0 || st.Passes != 1 {
		t.Fatal("singleton BF wrong")
	}
}

// TestOutOfRangeSourceIsAllInf: every kernel answers a source past the
// last vertex with an all-Inf labeling — none panics, none reaches a
// vertex.
func TestOutOfRangeSourceIsAllInf(t *testing.T) {
	g := testutil.RandomWeighted(40, 90, 9, 5)
	n := g.NumVertices()
	x := testutil.Exec(t, 2, par.Static)
	kernels := []struct {
		name string
		run  func(src uint32) []uint64
	}{
		{"dijkstra", func(src uint32) []uint64 {
			dist, _ := DijkstraCtx(context.Background(), g, src, nil, new(Scratch))
			return dist
		}},
		{"bellman-ford", func(src uint32) []uint64 {
			dist, _ := bellmanFord(g, src, core.BranchBased)
			return dist
		}},
		{"parallel", func(src uint32) []uint64 {
			dist, _, _ := Parallel(x, g, src, ParallelOptions{Variant: core.Hybrid}, nil, new(Scratch))
			return dist
		}},
	}
	for _, k := range kernels {
		for _, src := range []uint32{uint32(n), uint32(n) + 7, ^uint32(0)} {
			dist := k.run(src)
			if len(dist) != n {
				t.Fatalf("%s src=%d: %d distances for %d vertices", k.name, src, len(dist), n)
			}
			for v, d := range dist {
				if d != Inf {
					t.Fatalf("%s src=%d: dist[%d] = %d, want Inf", k.name, src, v, d)
				}
			}
		}
	}
}

// TestMaxWeightNoOverflow pins the overflow contract: path sums of
// maximal uint32 weights stay far below the 2^62 Inf sentinel, so the
// branchless 64-bit comparisons stay in their safe range and every
// kernel still agrees.
func TestMaxWeightNoOverflow(t *testing.T) {
	const maxW = ^uint32(0)
	n := 50
	edges := make([]graph.WeightedEdge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.WeightedEdge{U: uint32(i), V: uint32(i + 1), W: maxW})
	}
	g := graph.MustBuildWeighted(n, edges, "maxw-path")
	want := Dijkstra(g, 0)
	if want[n-1] != uint64(n-1)*uint64(maxW) {
		t.Fatalf("end distance = %d, want %d", want[n-1], uint64(n-1)*uint64(maxW))
	}
	bb, _ := bellmanFord(g, 0, core.BranchBased)
	ba, _ := bellmanFord(g, 0, core.BranchAvoiding)
	eng, _, _ := Parallel(testutil.Exec(t, 3, par.Static), g, 0, ParallelOptions{}, nil, new(Scratch))
	testutil.MustEqualDists(t, "branch-based", bb, want)
	testutil.MustEqualDists(t, "branch-avoiding", ba, want)
	testutil.MustEqualDists(t, "parallel", eng, want)
	if err := Verify(g, 0, want); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	g := testutil.RandomWeighted(30, 80, 10, 13)
	dist := Dijkstra(g, 0)
	cases := []func([]uint64){
		func(d []uint64) { d[0] = 1 },             // source nonzero
		func(d []uint64) { d[10] = 0 },            // too small (no tight pred)
		func(d []uint64) { d[10] = d[10] + 1000 }, // too large (unrelaxed edge)
	}
	for i, corrupt := range cases {
		bad := make([]uint64, len(dist))
		copy(bad, dist)
		corrupt(bad)
		if err := Verify(g, 0, bad); err == nil {
			t.Errorf("corruption %d not caught", i)
		}
	}
	if err := Verify(g, 0, dist[:5]); err == nil {
		t.Error("length mismatch not caught")
	}
	// Labelings every arc and every vertex's tight incoming arc accept,
	// but no path from the source backs: a vertex at distance 0 beside
	// the source, an isolated vertex at 0, and a zero-weight island whose
	// two vertices certify each other.
	edge := graph.MustBuildWeighted(3, []graph.WeightedEdge{{U: 0, V: 1, W: 5}}, "edge")
	island := graph.MustBuildWeighted(4, []graph.WeightedEdge{{U: 0, V: 1, W: 5}, {U: 2, V: 3, W: 0}}, "island")
	for _, tc := range []struct {
		g    *graph.Weighted
		dist []uint64
	}{
		{edge, []uint64{0, 0, Inf}},
		{edge, []uint64{0, 5, 0}},
		{island, []uint64{0, 5, 7, 7}},
	} {
		if err := Verify(tc.g, 0, tc.dist); err == nil {
			t.Errorf("%s: unbacked labeling %v not caught", tc.g.Name(), tc.dist)
		}
	}
}

// TestVerifyMessages pins each distinct Verify failure mode by its
// diagnostic, so a refactor cannot silently merge or drop a check.
func TestVerifyMessages(t *testing.T) {
	g := graph.MustBuildWeighted(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}}, "p3")
	cases := []struct {
		dist []uint64
		want string
	}{
		{[]uint64{0, 2}, "distances for"},
		{[]uint64{7, 2, 5}, "dist[src"},
		{[]uint64{0, 9, 5}, "not relaxed"},
		{[]uint64{0, 2, 4}, "no tight predecessor"},
	}
	for _, tc := range cases {
		err := Verify(g, 0, tc.dist)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Verify(%v) = %v, want %q", tc.dist, err, tc.want)
		}
	}
	// Valid labelings (including unreached-as-Inf and empty graphs) pass.
	if err := Verify(g, 0, []uint64{0, 2, 5}); err != nil {
		t.Errorf("valid labeling rejected: %v", err)
	}
	empty := graph.MustBuildWeighted(0, nil, "")
	if err := Verify(empty, 0, nil); err != nil {
		t.Errorf("empty graph rejected: %v", err)
	}
	two := graph.MustBuildWeighted(2, nil, "")
	if err := Verify(two, 0, []uint64{0, Inf}); err != nil {
		t.Errorf("unreached vertex rejected: %v", err)
	}
}
