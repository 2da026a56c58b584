package bagraph

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/sssp"
	"bagraph/internal/testutil"
)

// pathWeighted builds a weighted path 0-1-...-n-1 with unit weights.
// The pull-style Bellman-Ford sweeps vertices in ascending order and
// relaxes in place, so from the far end (root n-1) distances propagate
// one vertex per pass and the pass count is controlled by n.
func pathWeighted(t *testing.T, n int) *WeightedGraph {
	t.Helper()
	edges := make([]WeightedEdge, n-1)
	for i := range edges {
		edges[i] = WeightedEdge{U: uint32(i), V: uint32(i + 1), W: 1}
	}
	g, err := NewWeightedGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunWarmWorkspaceAllocs pins the per-pass heap allocation count of
// the Run dispatch path at zero on a warm Workspace.
//
// A Run can never be literally allocation-free: it returns a fresh
// *Result and appends per-pass observability records (PassDurations,
// PassChanges) into slices that grow 1→2→4→…. But those growth
// allocations depend only on the *bracket* the pass count falls in, not
// on the count itself. So the guard compares two warm-workspace runs
// whose pass counts differ but sit inside the same append-growth
// bracket (16, 32]: every allocation that is per-run or per-bracket
// cancels, and any allocation made once per pass — a conversion that
// boxes, a buffer the kernel forgot to reuse, a map the dispatch grew —
// shows up as a difference and fails the test.
func TestRunWarmWorkspaceAllocs(t *testing.T) {
	const bracketLo, bracketHi = 16, 32
	ctx := context.Background()
	measure := func(n int) float64 {
		t.Helper()
		g := pathWeighted(t, n)
		ws := &Workspace{}
		req := Request{Kind: KindSSSP, SSSP: SSSPBellmanFordBranchAvoiding, Root: uint32(n - 1), Workspace: ws}
		// Warm the workspace and check the run lands in the bracket.
		res, err := Run(ctx, g, req)
		if err != nil {
			t.Fatal(err)
		}
		if p := res.Stats.Passes; p <= bracketLo || p > bracketHi {
			t.Fatalf("n=%d: %d passes, outside the (%d, %d] growth bracket the test needs", n, p, bracketLo, bracketHi)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(ctx, g, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(18)
	long := measure(26)
	if short != long {
		t.Fatalf("allocations grew with pass count: %.1f allocs at 18 passes vs %.1f at 26 — some allocation is per-pass, not per-run", short, long)
	}
}

// TestWorkspaceReusesCapacityAcrossGraphs: one Workspace serves a large
// graph, then a small one, then the large one again, for every kernel
// form — each CC, BFS and SSSP algorithm, sequential and parallel, and
// the multi-source batch — on the plain graphs and on their
// degree-ordered views. Every answer equals its oracle, and the second
// large run allocates no |V|-sized array: the small graph's run
// reslices the large buffers instead of replacing them.
func TestWorkspaceReusesCapacityAcrossGraphs(t *testing.T) {
	large := testutil.RandomWeighted(20000, 80000, 40, 31)
	small := testutil.RandomWeighted(300, 900, 40, 37)
	n := large.NumVertices()
	pool := NewWorkerPool(2)
	t.Cleanup(pool.Close)
	type target struct {
		name string
		g    *WeightedGraph
		tgt  Target
	}
	var targets [][2]target
	for _, relabel := range []bool{false, true} {
		var pair [2]target
		for i, g := range []*WeightedGraph{large, small} {
			var tgt Target = g
			if relabel {
				rl, err := RelabelDegree(g)
				if err != nil {
					t.Fatal(err)
				}
				tgt = rl
			}
			pair[i] = target{fmt.Sprintf("n=%d/relabel=%v", g.NumVertices(), relabel), g, tgt}
		}
		targets = append(targets, pair)
	}
	reqs := []struct {
		name string
		req  Request
	}{
		{"par-do", Request{Kind: KindBFS, Parallel: true, Root: 3}},
		{"par-hybrid-sssp", Request{Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true, Root: 3}},
		{"par-bb-cc", Request{Kind: KindCC, CC: CCBranchBased, Parallel: true}},
		{"par-ba-cc", Request{Kind: KindCC, CC: CCBranchAvoiding, Parallel: true}},
		{"par-hybrid-cc", Request{Kind: KindCC, CC: CCHybrid, Parallel: true}},
		{"sv-bb", Request{Kind: KindCC, CC: CCBranchBased}},
		{"sv-ba", Request{Kind: KindCC, CC: CCBranchAvoiding}},
		{"hybrid", Request{Kind: KindCC, CC: CCHybrid}},
		{"unionfind", Request{Kind: KindCC, CC: CCUnionFind}},
		{"bb-bfs", Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 3}},
		{"ba-bfs", Request{Kind: KindBFS, BFS: BFSBranchAvoiding, Root: 3}},
		{"dir-opt", Request{Kind: KindBFS, BFS: BFSDirectionOptimizing, Root: 3}},
		{"bb-sssp", Request{Kind: KindSSSP, SSSP: SSSPBellmanFord, Root: 3}},
		{"ba-sssp", Request{Kind: KindSSSP, SSSP: SSSPBellmanFordBranchAvoiding, Root: 3}},
		{"dijkstra", Request{Kind: KindSSSP, SSSP: SSSPDijkstra, Root: 3}},
		{"ms", Request{Kind: KindBFSBatch, Roots: []uint32{3, 250, 3}}},
	}
	check := func(name string, g *WeightedGraph, req Request, res *Result) {
		t.Helper()
		switch req.Kind {
		case KindBFS:
			want, _ := bfs.TopDownBranchBased(g.Graph, req.Root)
			testutil.MustEqualDists(t, name, res.Hops, want)
		case KindBFSBatch:
			if len(res.HopsBatch) != len(req.Roots) {
				t.Fatalf("%s: %d arrays for %d roots", name, len(res.HopsBatch), len(req.Roots))
			}
			for i, r := range req.Roots {
				want, _ := bfs.TopDownBranchBased(g.Graph, r)
				testutil.MustEqualDists(t, fmt.Sprintf("%s/root%d", name, i), res.HopsBatch[i], want)
			}
		case KindSSSP:
			testutil.MustEqualDists(t, name, res.Dists, sssp.Dijkstra(g, req.Root))
		default:
			testutil.MustEqualLabels(t, name, res.Labels, cc.UnionFind(g.Graph))
		}
	}
	for _, pair := range targets {
		for _, r := range reqs {
			ws := &Workspace{}
			req := r.req
			req.Workspace = ws
			for _, tg := range []target{pair[0], pair[1]} {
				name := r.name + "/" + tg.name
				check(name, tg.g, req, poolRunOK(t, pool, tg.tgt, req))
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := poolRunOK(t, pool, pair[0].tgt, req)
			runtime.ReadMemStats(&after)
			name := r.name + "/" + pair[0].name + "/again"
			check(name, pair[0].g, req, res)
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(4*n) {
				t.Errorf("%s: allocated %d bytes, a |V|-sized uint32 array is %d", name, bytes, 4*n)
			}
		}
	}
}
