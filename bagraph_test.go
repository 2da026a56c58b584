package bagraph

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"bagraph/internal/graph"
	"bagraph/internal/testutil"
)

func ring(t *testing.T, n int) *Graph {
	t.Helper()
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{U: uint32(i), V: uint32((i + 1) % n)}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphAndDigraph(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || !g.HasEdge(1, 0) {
		t.Fatal("NewGraph produced wrong graph")
	}
	if _, err := NewGraph(1, []Edge{{U: 0, V: 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// The vertex bound is checked before the offsets are allocated.
	if strconv.IntSize == 64 {
		limit := int64(graph.MaxVertices)
		if _, err := NewGraph(int(limit+1), nil); err == nil {
			t.Fatal("MaxVertices+1 vertices accepted")
		}
	}
}

func TestConnectedComponentsAllAlgorithms(t *testing.T) {
	g := ring(t, 40)
	var ref []uint32
	for _, alg := range []CCAlgorithm{CCBranchBased, CCBranchAvoiding, CCHybrid, CCUnionFind} {
		labels := runOK(t, g, Request{Kind: KindCC, CC: alg}).Labels
		if ComponentCount(labels) != 1 {
			t.Fatalf("%v: ring has %d components", alg, ComponentCount(labels))
		}
		if ref == nil {
			ref = labels
			continue
		}
		testutil.MustEqualLabels(t, alg.String(), labels, ref)
	}
}

func TestConnectedComponentsParallelFacade(t *testing.T) {
	g := ring(t, 200)
	ref := runOK(t, g, Request{Kind: KindCC, CC: CCBranchBased}).Labels
	for _, alg := range []CCAlgorithm{CCBranchBased, CCBranchAvoiding, CCHybrid} {
		for _, workers := range []int{0, 1, 4} {
			res := runOK(t, g, Request{Kind: KindCC, CC: alg, Parallel: true, Workers: workers})
			testutil.MustEqualLabels(t, fmt.Sprintf("%v workers=%d", alg, workers), res.Labels, ref)
		}
	}
}

func TestShortestHopsParallelFacade(t *testing.T) {
	g := ring(t, 200)
	ref := runOK(t, g, Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 7}).Hops
	for _, workers := range []int{0, 1, 4} {
		res := runOK(t, g, Request{Kind: KindBFS, Parallel: true, Root: 7, Workers: workers})
		testutil.MustEqualDists(t, fmt.Sprintf("workers=%d", workers), res.Hops, ref)
	}
}

func TestCCAlgorithmStrings(t *testing.T) {
	for _, alg := range []CCAlgorithm{CCBranchBased, CCBranchAvoiding, CCHybrid, CCUnionFind} {
		if strings.HasPrefix(alg.String(), "CCAlgorithm(") {
			t.Fatalf("missing name for %d", alg)
		}
	}
}

func TestShortestHopsVariants(t *testing.T) {
	g := ring(t, 30)
	var ref []uint32
	for _, v := range []BFSVariant{BFSBranchBased, BFSBranchAvoiding, BFSDirectionOptimizing} {
		dist := runOK(t, g, Request{Kind: KindBFS, BFS: v, Root: 3}).Hops
		if dist[3] != 0 || dist[18] != 15 {
			t.Fatalf("%v: distances wrong: d[3]=%d d[18]=%d", v, dist[3], dist[18])
		}
		if ref == nil {
			ref = dist
			continue
		}
		testutil.MustEqualDists(t, v.String(), dist, ref)
	}
}

func TestUnreachedSentinel(t *testing.T) {
	g, _ := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	dist := runOK(t, g, Request{Kind: KindBFS, BFS: BFSBranchAvoiding, Root: 0}).Hops
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Fatal("other component not marked Unreached")
	}
}

func TestPlatformsCatalog(t *testing.T) {
	ps := Platforms()
	if len(ps) != 7 {
		t.Fatalf("Platforms() = %v", ps)
	}
}

func TestProfileSVReproducesHeadline(t *testing.T) {
	g, err := CorpusGraph("cond-mat-2005", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := ProfileSV(g, "Haswell", false)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := ProfileSV(g, "Haswell", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb.PerIteration) != len(ba.PerIteration) {
		t.Fatal("pass counts differ")
	}
	if bb.TotalMispredictions() <= ba.TotalMispredictions() {
		t.Fatal("branch-based should mispredict more")
	}
	if bb.TotalSeconds() <= ba.TotalSeconds() {
		t.Fatal("branch-avoiding SV should win on Haswell")
	}
	if !ba.BranchAvoiding || bb.BranchAvoiding {
		t.Fatal("BranchAvoiding flag wrong")
	}
	if _, err := ProfileSV(g, "M1", false); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestProfileBFSStoreBlowup(t *testing.T) {
	g, err := CorpusGraph("ldoor", 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := ProfileBFS(g, 0, "Bonnell", false)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := ProfileBFS(g, 0, "Bonnell", true)
	if err != nil {
		t.Fatal(err)
	}
	var sBB, sBA uint64
	for _, it := range bb.PerIteration {
		sBB += it.Stores
	}
	for _, it := range ba.PerIteration {
		sBA += it.Stores
	}
	if sBA < 10*sBB {
		t.Fatalf("BA stores %d not an order of magnitude above BB %d", sBA, sBB)
	}
	// On Bonnell (expensive stores) branch-avoiding BFS must lose.
	if ba.TotalSeconds() <= bb.TotalSeconds() {
		t.Fatal("branch-avoiding BFS should lose on Bonnell")
	}
	if _, err := ProfileBFS(g, uint32(g.NumVertices()), "Bonnell", true); err == nil {
		t.Fatal("out-of-range root accepted")
	}
	if _, err := ProfileBFS(g, 0, "M1", false); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestCorpusGraphErrors(t *testing.T) {
	if _, err := CorpusGraph("karate", 0.01, 1); err == nil {
		t.Fatal("unknown corpus name accepted")
	}
	if _, err := CorpusGraph("auto", 2.0, 1); err == nil {
		t.Fatal("bad scale accepted")
	}
	g, err := CorpusGraph("coAuthorsDBLP", 0.005, 1)
	if err != nil || g.NumVertices() == 0 {
		t.Fatalf("corpus generation failed: %v", err)
	}
	if len(CorpusNames()) != 5 {
		t.Fatal("corpus roster wrong")
	}
}

func TestMETISRoundTripViaFacade(t *testing.T) {
	g := ring(t, 12)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != 12 || h.NumEdges() != 12 {
		t.Fatal("round trip changed graph")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table1", &buf, ExperimentOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Haswell") {
		t.Fatal("table1 output missing systems")
	}
	if err := RunExperiment("fig99", &buf, ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Experiments()) < 15 {
		t.Fatalf("Experiments() = %v", Experiments())
	}
}

// TestFacadeErrorPaths pins the rejections of the entry points beside
// the package-level Run (whose table is TestRunRejections): the resident
// pool's Run validates exactly like it, and ProfileBFS checks its root.
func TestFacadeErrorPaths(t *testing.T) {
	g := ring(t, 8)
	pool := NewWorkerPool(2)
	defer pool.Close()
	for _, req := range []Request{
		{Kind: KindBFS, BFS: BFSBranchBased, Root: 8},
		{Kind: KindBFS, BFS: BFSVariant(99)},
		{Kind: KindBFS, Parallel: true, Root: 100},
		{Kind: KindBFSBatch, Roots: []uint32{0, 99}},
		{Kind: KindCC, CC: CCAlgorithm(99)},
		{Kind: KindCC, CC: CCUnionFind, Parallel: true},
	} {
		if _, err := pool.Run(context.Background(), g, req); err == nil {
			t.Errorf("pool.Run(%+v) accepted", req)
		}
	}
	if _, err := ProfileBFS(g, 8, "Haswell", false); err == nil {
		t.Fatal("out-of-range root accepted by ProfileBFS")
	}
}

// TestWorkerPoolFacade exercises the resident pool: results match the
// transient-pool Run, and a workspace preset with caller buffers is
// written in place and yields the same results as a nil-buffer run.
func TestWorkerPoolFacade(t *testing.T) {
	g := ring(t, 64)
	pool := NewWorkerPool(2)
	defer pool.Close()
	if pool.Workers() != 2 {
		t.Fatalf("Workers() = %d", pool.Workers())
	}
	poolOK := func(req Request) *Result {
		t.Helper()
		return poolRunOK(t, pool, g, req)
	}

	want := runOK(t, g, Request{Kind: KindCC, CC: CCHybrid, Parallel: true, Workers: 2}).Labels
	labels := make([]uint32, 64)
	scratch := make([]uint32, 64)
	got := poolOK(Request{Kind: KindCC, CC: CCHybrid, Parallel: true,
		Workspace: &Workspace{Labels: labels, Scratch: scratch}}).Labels
	if &got[0] != &labels[0] && &got[0] != &scratch[0] {
		t.Fatal("result does not alias a caller buffer")
	}
	testutil.MustEqualLabels(t, "preset buffers", got, want)
	testutil.MustEqualLabels(t, "nil buffers", poolOK(Request{Kind: KindCC, CC: CCHybrid, Parallel: true}).Labels, want)

	wantDist := runOK(t, g, Request{Kind: KindBFS, Parallel: true, Root: 5, Workers: 2}).Hops
	buf := make([]uint32, 64)
	gotDist := poolOK(Request{Kind: KindBFS, Parallel: true, Root: 5, Workspace: &Workspace{Hops: buf}}).Hops
	if &gotDist[0] != &buf[0] {
		t.Fatal("distances do not alias the caller buffer")
	}
	testutil.MustEqualDists(t, "preset buffer", gotDist, wantDist)
	testutil.MustEqualDists(t, "nil buffer", poolOK(Request{Kind: KindBFS, Parallel: true, Root: 5}).Hops, wantDist)
}
