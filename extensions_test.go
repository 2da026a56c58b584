package bagraph

import (
	"context"
	"strings"
	"testing"

	"bagraph/internal/testutil"
)

func weightedRing(t *testing.T, n int) *WeightedGraph {
	t.Helper()
	edges := make([]WeightedEdge, n)
	for i := 0; i < n; i++ {
		edges[i] = WeightedEdge{U: uint32(i), V: uint32((i + 1) % n), W: uint32(i%3 + 1)}
	}
	g, err := NewWeightedGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShortestPathsAllAlgorithms(t *testing.T) {
	g := weightedRing(t, 24)
	var ref []uint64
	for _, alg := range []SSSPAlgorithm{SSSPBellmanFord, SSSPBellmanFordBranchAvoiding, SSSPDijkstra} {
		dist := runOK(t, g, Request{Kind: KindSSSP, SSSP: alg, Root: 0}).Dists
		if dist[0] != 0 {
			t.Fatalf("%v: dist[src] = %d", alg, dist[0])
		}
		if ref == nil {
			ref = dist
			continue
		}
		testutil.MustEqualDists(t, alg.String(), dist, ref)
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g, err := NewWeightedGraph(3, []WeightedEdge{{U: 0, V: 1, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dist := runOK(t, g, Request{Kind: KindSSSP, SSSP: SSSPBellmanFordBranchAvoiding, Root: 0}).Dists
	if dist[2] != InfDistance {
		t.Fatalf("isolated vertex distance = %d, want InfDistance", dist[2])
	}
}

func TestSSSPAlgorithmStrings(t *testing.T) {
	for _, a := range []SSSPAlgorithm{SSSPBellmanFord, SSSPBellmanFordBranchAvoiding, SSSPDijkstra} {
		if strings.HasPrefix(a.String(), "SSSPAlgorithm(") {
			t.Fatalf("missing name for %d", a)
		}
	}
}

func TestRunExtensionsExperiment(t *testing.T) {
	var sb strings.Builder
	err := RunExperiment("extensions", &sb, ExperimentOptions{Scale: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Bellman-Ford", "betweenness", "APSP"} {
		if !strings.Contains(out, want) {
			t.Errorf("extensions output missing %q", want)
		}
	}
}

// TestExtensionsErrorPaths pins the weighted family's rejections on the
// resident pool's Run (TestRunRejections holds the package-level table):
// source validation, unknown enum values, the baselines without a
// parallel form, and the parallel-only hybrid.
func TestExtensionsErrorPaths(t *testing.T) {
	w := weightedRing(t, 6)
	pool := NewWorkerPool(2)
	defer pool.Close()
	for _, req := range []Request{
		{Kind: KindSSSP, SSSP: SSSPDijkstra, Root: 6},
		{Kind: KindSSSP, SSSP: SSSPAlgorithm(99)},
		{Kind: KindSSSP, SSSP: SSSPAlgorithm(99), Parallel: true},
		{Kind: KindSSSP, SSSP: SSSPHybrid},
		{Kind: KindSSSP, SSSP: SSSPDijkstra, Parallel: true},
		{Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true, Root: 9999},
	} {
		if _, err := pool.Run(context.Background(), w, req); err == nil {
			t.Errorf("pool.Run(%+v) accepted", req)
		}
	}
}

// TestShortestPathsParallelFacade checks the parallel SSSP kernel from
// both entry points: every parallel-capable algorithm matches the
// sequential oracle at several pool widths, and the resident pool writes
// a preset buffer in place with the same result as a nil-buffer run.
func TestShortestPathsParallelFacade(t *testing.T) {
	w := testutil.RandomWeighted(250, 800, 40, 5)
	want := runOK(t, w, Request{Kind: KindSSSP, SSSP: SSSPDijkstra, Root: 4}).Dists
	for _, alg := range []SSSPAlgorithm{SSSPBellmanFord, SSSPBellmanFordBranchAvoiding, SSSPHybrid} {
		for _, workers := range []int{1, 3} {
			got := runOK(t, w, Request{Kind: KindSSSP, SSSP: alg, Parallel: true, Root: 4, Workers: workers}).Dists
			testutil.MustEqualDists(t, alg.String(), got, want)
		}
	}

	pool := NewWorkerPool(2)
	defer pool.Close()
	buf := make([]uint64, w.NumVertices())
	req := Request{Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true, Root: 4}
	testutil.MustEqualDists(t, "pool/nil", poolRunOK(t, pool, w, req).Dists, want)
	req.Workspace = &Workspace{Dists: buf}
	preset := poolRunOK(t, pool, w, req).Dists
	if &preset[0] != &buf[0] {
		t.Fatal("pool SSSP result does not alias the caller buffer")
	}
	testutil.MustEqualDists(t, "pool/preset", preset, want)
}

// TestShortestHopsMultiSourceFacade checks KindBFSBatch: the
// shared-sweep results match per-source BFS (duplicates included), and
// the resident pool writes preset per-root buffers in place.
func TestShortestHopsMultiSourceFacade(t *testing.T) {
	g := ring(t, 30)
	roots := []uint32{0, 7, 7, 29}
	dists := runOK(t, g, Request{Kind: KindBFSBatch, Roots: roots, Workers: 2}).HopsBatch
	for i, r := range roots {
		want := runOK(t, g, Request{Kind: KindBFS, BFS: BFSBranchBased, Root: r}).Hops
		testutil.MustEqualDists(t, "multi-source", dists[i], want)
	}

	pool := NewWorkerPool(2)
	defer pool.Close()
	bufs := make([][]uint32, len(roots))
	for i := range bufs {
		bufs[i] = make([]uint32, g.NumVertices())
	}
	res := poolRunOK(t, pool, g, Request{
		Kind: KindBFSBatch, Roots: roots, Workspace: &Workspace{HopsBatch: bufs},
	})
	for i, got := range res.HopsBatch {
		if &got[0] != &bufs[i][0] {
			t.Fatalf("batch result %d does not alias the caller buffer", i)
		}
		testutil.MustEqualDists(t, "pool batch", got, dists[i])
	}
}

// TestShortestPathsIntoAndAttachWeights covers the reusable distance
// buffer of the sequential SSSP kernels and the weighted-view
// constructor the daemon uses.
func TestShortestPathsIntoAndAttachWeights(t *testing.T) {
	g := ring(t, 10)
	w, err := AttachWeights(g, func(u, v uint32) uint32 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	want := runOK(t, w, Request{Kind: KindSSSP, SSSP: SSSPDijkstra, Root: 0}).Dists
	buf := make([]uint64, 10)
	for _, alg := range []SSSPAlgorithm{SSSPBellmanFord, SSSPBellmanFordBranchAvoiding, SSSPDijkstra} {
		got := runOK(t, w, Request{Kind: KindSSSP, SSSP: alg, Root: 0, Workspace: &Workspace{Dists: buf}}).Dists
		if &got[0] != &buf[0] {
			t.Fatalf("%v: result does not alias the caller buffer", alg)
		}
		testutil.MustEqualDists(t, alg.String(), got, want)
	}
	// A wrong-size buffer allocates instead of clobbering.
	small := make([]uint64, 3)
	got := runOK(t, w, Request{Kind: KindSSSP, SSSP: SSSPDijkstra, Root: 0, Workspace: &Workspace{Dists: small}}).Dists
	if len(got) != 10 {
		t.Fatalf("wrong-size buffer: len=%d", len(got))
	}
	// Asymmetric weight functions are rejected.
	if _, err := AttachWeights(g, func(u, v uint32) uint32 { return u + 1 }); err == nil {
		t.Fatal("asymmetric weights accepted")
	}
}
