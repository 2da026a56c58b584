package bagraph

// Tests for the unified Run API: result equivalence against the
// internal kernels, populated Stats for every family, cooperative
// cancellation (pre-cancelled, barrier-exact mid-kernel, pool
// survival), workspace reuse, and the empty-graph root-validation
// regression.

import (
	"context"
	"errors"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/gen"
	"bagraph/internal/sssp"
	"bagraph/internal/testutil"
)

// runOK is the no-error Run helper.
func runOK(t *testing.T, g Target, req Request) *Result {
	t.Helper()
	res, err := Run(context.Background(), g, req)
	if err != nil {
		t.Fatalf("Run(%v): %v", req.Kind, err)
	}
	return res
}

// poolRunOK is runOK on a resident pool.
func poolRunOK(t *testing.T, pool *WorkerPool, g Target, req Request) *Result {
	t.Helper()
	res, err := pool.Run(context.Background(), g, req)
	if err != nil {
		t.Fatalf("pool.Run(%v): %v", req.Kind, err)
	}
	return res
}

// TestRunCCEquivalence: every CC request form reproduces the internal
// kernels' canonical labeling byte for byte.
func TestRunCCEquivalence(t *testing.T) {
	g := gen.RMAT(9, 6, gen.DefaultRMAT, 7)
	want, _ := cc.SVBranchBased(g)
	for _, alg := range []CCAlgorithm{CCBranchBased, CCBranchAvoiding, CCHybrid, CCUnionFind} {
		res := runOK(t, g, Request{Kind: KindCC, CC: alg})
		testutil.MustEqualLabels(t, "seq/"+alg.String(), res.Labels, want)
	}
	for _, alg := range []CCAlgorithm{CCBranchBased, CCBranchAvoiding, CCHybrid} {
		res := runOK(t, g, Request{Kind: KindCC, CC: alg, Parallel: true, Workers: 3})
		testutil.MustEqualLabels(t, "par/"+alg.String(), res.Labels, want)
	}
}

// TestRunBFSEquivalence: every BFS request form (including the batch
// kind) reproduces the internal kernels' distances byte for byte.
func TestRunBFSEquivalence(t *testing.T) {
	g := gen.RMAT(9, 6, gen.DefaultRMAT, 7)
	want, _ := bfs.TopDownBranchBased(g, 3)
	for _, v := range []BFSVariant{BFSBranchBased, BFSBranchAvoiding, BFSDirectionOptimizing} {
		res := runOK(t, g, Request{Kind: KindBFS, BFS: v, Root: 3})
		testutil.MustEqualDists(t, "seq/"+v.String(), res.Hops, want)
	}
	res := runOK(t, g, Request{Kind: KindBFS, Parallel: true, Root: 3, Workers: 3})
	testutil.MustEqualDists(t, "par-do", res.Hops, want)

	roots := []uint32{3, 0, 17, 3}
	batch := runOK(t, g, Request{Kind: KindBFSBatch, Roots: roots, Workers: 2})
	if len(batch.HopsBatch) != len(roots) {
		t.Fatalf("batch returned %d arrays for %d roots", len(batch.HopsBatch), len(roots))
	}
	for i, r := range roots {
		w, _ := bfs.TopDownBranchBased(g, r)
		testutil.MustEqualDists(t, "batch", batch.HopsBatch[i], w)
	}
}

// TestRunSSSPEquivalence: every SSSP request form matches the Dijkstra
// oracle, and a weighted target serves the unweighted kinds.
func TestRunSSSPEquivalence(t *testing.T) {
	w := testutil.RandomWeighted(300, 900, 25, 11)
	want := sssp.Dijkstra(w, 5)
	seq := []SSSPAlgorithm{SSSPBellmanFord, SSSPBellmanFordBranchAvoiding, SSSPDijkstra}
	for _, alg := range seq {
		res := runOK(t, w, Request{Kind: KindSSSP, SSSP: alg, Root: 5})
		testutil.MustEqualDists(t, "seq/"+alg.String(), res.Dists, want)
	}
	par := []SSSPAlgorithm{SSSPBellmanFord, SSSPBellmanFordBranchAvoiding, SSSPHybrid}
	for _, alg := range par {
		res := runOK(t, w, Request{Kind: KindSSSP, SSSP: alg, Parallel: true, Root: 5, Workers: 3})
		testutil.MustEqualDists(t, "par/"+alg.String(), res.Dists, want)
	}

	// A *WeightedGraph serves the unweighted kinds through its
	// structure.
	res := runOK(t, w, Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 5})
	if len(res.Hops) != w.NumVertices() {
		t.Fatalf("BFS over weighted target: %d hops", len(res.Hops))
	}
}

// TestRunRejections pins Run's error paths: unknown kinds and enums per
// family, out-of-range roots, baselines without parallel forms, the
// parallel-only hybrid, and nil targets.
func TestRunRejections(t *testing.T) {
	g := gen.Path(8)
	w := testutil.AttachHashWeights(t, g, 9, 1)
	var nilG *Graph
	var nilW *WeightedGraph
	cases := []struct {
		name   string
		target Target
		req    Request
	}{
		{"unknown kind", g, Request{Kind: Kind(99)}},
		{"cc/unknown algorithm", g, Request{Kind: KindCC, CC: CCAlgorithm(99)}},
		{"cc/unknown algorithm, parallel", g, Request{Kind: KindCC, CC: CCAlgorithm(99), Parallel: true}},
		{"cc/union-find has no parallel form", g, Request{Kind: KindCC, CC: CCUnionFind, Parallel: true}},
		{"bfs/unknown variant", g, Request{Kind: KindBFS, BFS: BFSVariant(99)}},
		{"bfs/root out of range", g, Request{Kind: KindBFS, Root: 8}},
		{"bfs/root out of range, parallel", g, Request{Kind: KindBFS, Parallel: true, Root: 8}},
		{"bfs-batch/member out of range", g, Request{Kind: KindBFSBatch, Roots: []uint32{0, 8}}},
		{"sssp/unweighted target", g, Request{Kind: KindSSSP, Root: 0}},
		{"sssp/unknown algorithm", w, Request{Kind: KindSSSP, SSSP: SSSPAlgorithm(99)}},
		{"sssp/unknown algorithm, parallel", w, Request{Kind: KindSSSP, SSSP: SSSPAlgorithm(99), Parallel: true}},
		{"sssp/dijkstra has no parallel form", w, Request{Kind: KindSSSP, SSSP: SSSPDijkstra, Parallel: true}},
		{"sssp/hybrid is parallel-only", w, Request{Kind: KindSSSP, SSSP: SSSPHybrid}},
		{"sssp/source out of range", w, Request{Kind: KindSSSP, Root: 8}},
		{"sssp/source out of range, parallel", w, Request{Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true, Root: 8}},
		{"nil target", nil, Request{Kind: KindCC}},
		// Typed nils must error, not dereference.
		{"typed-nil *Graph", nilG, Request{Kind: KindCC}},
		{"typed-nil *WeightedGraph", nilW, Request{Kind: KindSSSP}},
	}
	for _, c := range cases {
		if _, err := Run(context.Background(), c.target, c.req); err == nil {
			t.Errorf("%s: Run(%+v) accepted", c.name, c.req)
		}
	}
}

// TestRunStatsPopulated: Result.Stats is non-zero for every kernel
// family, sequential and parallel.
func TestRunStatsPopulated(t *testing.T) {
	g := gen.RMAT(9, 6, gen.DefaultRMAT, 3)
	w := testutil.AttachHashWeights(t, g, 16, 3)

	checks := []struct {
		name string
		req  Request
		more func(t *testing.T, st Stats)
	}{
		{"cc/seq-bb", Request{Kind: KindCC, CC: CCBranchBased}, func(t *testing.T, st Stats) {
			if st.LabelStores == 0 || len(st.PassChanges) != st.Passes {
				t.Errorf("cc stats incomplete: %+v", st)
			}
		}},
		{"cc/seq-ba", Request{Kind: KindCC, CC: CCBranchAvoiding}, nil},
		{"cc/par-hybrid", Request{Kind: KindCC, CC: CCHybrid, Parallel: true, Workers: 2}, func(t *testing.T, st Stats) {
			if st.LabelStores == 0 {
				t.Error("parallel cc lost LabelStores")
			}
		}},
		{"bfs/seq-bb", Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 0}, func(t *testing.T, st Stats) {
			if st.Reached == 0 || st.DistStores == 0 || st.QueueStores == 0 {
				t.Errorf("bfs stats incomplete: %+v", st)
			}
			if st.TopDownLevels != st.Passes {
				t.Errorf("top-down kernel: %d of %d levels top-down", st.TopDownLevels, st.Passes)
			}
		}},
		{"bfs/seq-ba", Request{Kind: KindBFS, BFS: BFSBranchAvoiding, Root: 0}, nil},
		{"bfs/par-do", Request{Kind: KindBFS, Parallel: true, Root: 0, Workers: 2}, func(t *testing.T, st Stats) {
			if st.TopDownLevels+st.BottomUpLevels != st.Passes {
				t.Errorf("direction split %d+%d != %d levels",
					st.TopDownLevels, st.BottomUpLevels, st.Passes)
			}
			if st.Reached == 0 || st.DistStores == 0 {
				t.Errorf("parallel bfs stats incomplete: %+v", st)
			}
		}},
		{"bfsbatch", Request{Kind: KindBFSBatch, Roots: []uint32{0, 9}, Workers: 2}, func(t *testing.T, st Stats) {
			if st.Waves != 1 || st.Reached == 0 || st.DistStores == 0 {
				t.Errorf("batch stats incomplete: %+v", st)
			}
		}},
		{"sssp/seq-bb", Request{Kind: KindSSSP, SSSP: SSSPBellmanFord, Root: 0}, func(t *testing.T, st Stats) {
			if st.DistStores == 0 || len(st.PassChanges) != st.Passes {
				t.Errorf("sssp stats incomplete: %+v", st)
			}
		}},
		{"sssp/seq-ba", Request{Kind: KindSSSP, SSSP: SSSPBellmanFordBranchAvoiding, Root: 0}, nil},
		{"sssp/par-ba", Request{Kind: KindSSSP, SSSP: SSSPBellmanFordBranchAvoiding, Parallel: true, Root: 0, Workers: 2}, func(t *testing.T, st Stats) {
			if st.CandStores == 0 || st.Buckets == 0 || st.DistStores == 0 {
				t.Errorf("delta-stepping stats incomplete: %+v", st)
			}
		}},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			var target Target = g
			if c.req.Kind == KindSSSP {
				target = w
			}
			res := runOK(t, target, c.req)
			if res.Stats.Passes == 0 {
				t.Fatalf("Stats.Passes == 0: %+v", res.Stats)
			}
			if len(res.Stats.PassDurations) != res.Stats.Passes {
				t.Fatalf("%d durations for %d passes",
					len(res.Stats.PassDurations), res.Stats.Passes)
			}
			if c.more != nil {
				c.more(t, res.Stats)
			}
		})
	}

	// The Dijkstra baseline has no pass structure; everything else must
	// never return an all-zero Stats. (Union-find likewise — both are
	// baselines, not paper kernels.)
	res := runOK(t, w, Request{Kind: KindSSSP, SSSP: SSSPDijkstra, Root: 0})
	if res.Stats.Passes != 0 {
		t.Errorf("dijkstra reported %d passes", res.Stats.Passes)
	}
}

// TestRunPreCancelled: a context dead before the call returns its
// error for every kind, with no result.
func TestRunPreCancelled(t *testing.T) {
	g := gen.Path(64)
	w := testutil.AttachHashWeights(t, g, 9, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []Request{
		{Kind: KindCC, CC: CCBranchAvoiding},
		{Kind: KindCC, CC: CCHybrid, Parallel: true},
		{Kind: KindBFS, Root: 0},
		{Kind: KindBFS, Parallel: true, Root: 0},
		{Kind: KindBFSBatch, Roots: []uint32{0, 1}},
		{Kind: KindSSSP, SSSP: SSSPDijkstra, Root: 0},
	}
	for _, req := range reqs {
		var target Target = g
		if req.Kind == KindSSSP {
			target = w
		}
		res, err := Run(ctx, target, req)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", req.Kind, err)
		}
		if res != nil {
			t.Errorf("%v: pre-cancelled Run returned a result", req.Kind)
		}
	}
}

// TestRunCancelMidKernel: a context cancelled mid-run stops every
// kernel family at a pass barrier, returning ctx's error plus the
// partial result of the completed passes. High-diameter graphs (ring,
// path) guarantee many barriers.
func TestRunCancelMidKernel(t *testing.T) {
	g := gen.Path(512) // diameter 511: hundreds of passes/levels
	w := testutil.AttachHashWeights(t, g, 1, 1)

	// Every kernel checks the context once at the Run entry and once per
	// pass/level (the engine kernels inside par.Exec.Pass, the
	// sequential ones at the top of their pass loop). An Err budget of 2
	// therefore completes exactly one pass and cancels before the
	// second — below even the Gauss-Seidel kernels' two-pass minimum.
	const budget = 2
	reqs := []struct {
		name string
		req  Request
	}{
		{"cc/seq-bb", Request{Kind: KindCC, CC: CCBranchBased}},
		{"cc/seq-ba", Request{Kind: KindCC, CC: CCBranchAvoiding}},
		{"cc/seq-hybrid", Request{Kind: KindCC, CC: CCHybrid}},
		{"cc/par", Request{Kind: KindCC, CC: CCBranchAvoiding, Parallel: true, Workers: 2}},
		{"bfs/seq-bb", Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 0}},
		{"bfs/seq-ba", Request{Kind: KindBFS, BFS: BFSBranchAvoiding, Root: 0}},
		{"bfs/seq-do", Request{Kind: KindBFS, BFS: BFSDirectionOptimizing, Root: 0}},
		{"bfs/par", Request{Kind: KindBFS, Parallel: true, Root: 0, Workers: 2}},
		{"bfsbatch", Request{Kind: KindBFSBatch, Roots: []uint32{0, 511}, Workers: 2}},
		{"sssp/seq-bb", Request{Kind: KindSSSP, SSSP: SSSPBellmanFord, Root: 0}},
		{"sssp/seq-ba", Request{Kind: KindSSSP, SSSP: SSSPBellmanFordBranchAvoiding, Root: 0}},
		{"sssp/par", Request{Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true, Root: 0, Workers: 2}},
	}
	for _, c := range reqs {
		t.Run(c.name, func(t *testing.T) {
			var target Target = g
			if c.req.Kind == KindSSSP {
				target = w
			}
			full := runOK(t, target, c.req)
			res, err := Run(testutil.CancelAfter(budget), target, c.req)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("mid-kernel cancellation returned no partial result")
			}
			if res.Stats.Passes == 0 || res.Stats.Passes >= full.Stats.Passes {
				t.Fatalf("cancelled run completed %d of %d passes — not a mid-kernel stop",
					res.Stats.Passes, full.Stats.Passes)
			}
		})
	}
}

// TestWorkerPoolSurvivesCancelledRun: a resident pool that served a
// cancelled Run keeps serving correct results (run with -race, this is
// the no-leaked-state proof for the serving layer's steady state).
func TestWorkerPoolSurvivesCancelledRun(t *testing.T) {
	g := gen.Path(512)
	pool := NewWorkerPool(2)
	defer pool.Close()

	want := runOK(t, g, Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 0})
	for i := 0; i < 3; i++ {
		res, err := pool.Run(testutil.CancelAfter(5), g, Request{Kind: KindBFS, Parallel: true, Root: 0})
		if !errors.Is(err, context.Canceled) || res == nil {
			t.Fatalf("cancelled pool Run: res=%v err=%v", res, err)
		}
		ok, err := pool.Run(context.Background(), g, Request{Kind: KindBFS, Parallel: true, Root: 0})
		if err != nil {
			t.Fatalf("pool unusable after cancelled Run: %v", err)
		}
		testutil.MustEqualDists(t, "post-cancel", ok.Hops, want.Hops)
	}
}

// TestRunEmptyGraphRootValidation is the checkRoot/checkSource
// regression test: on a 0-vertex graph every root/source — including
// 0 — must be rejected, for every kind. (The guard used to be skipped
// entirely when NumVertices() == 0.)
func TestRunEmptyGraphRootValidation(t *testing.T) {
	empty, err := NewGraph(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wempty, err := NewWeightedGraph(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []uint32{0, 3} {
		if _, err := Run(context.Background(), empty, Request{Kind: KindBFS, Root: root}); err == nil {
			t.Errorf("KindBFS root %d accepted on the empty graph", root)
		}
		if _, err := Run(context.Background(), empty, Request{Kind: KindBFSBatch, Roots: []uint32{root}}); err == nil {
			t.Errorf("KindBFSBatch root %d accepted on the empty graph", root)
		}
		if _, err := Run(context.Background(), wempty, Request{Kind: KindSSSP, Root: root}); err == nil {
			t.Errorf("KindSSSP source %d accepted on the empty graph", root)
		}
		if _, err := Run(context.Background(), empty, Request{Kind: KindBFS, Parallel: true, Root: root}); err == nil {
			t.Errorf("parallel KindBFS root %d accepted on the empty graph", root)
		}
	}
	// CC has no root: the empty graph is a valid (empty) instance.
	res := runOK(t, empty, Request{Kind: KindCC, CC: CCBranchAvoiding})
	if len(res.Labels) != 0 {
		t.Fatalf("empty-graph CC returned %d labels", len(res.Labels))
	}
	// An empty batch is likewise valid: no roots, no arrays.
	batch := runOK(t, empty, Request{Kind: KindBFSBatch})
	if len(batch.HopsBatch) != 0 {
		t.Fatal("empty batch returned arrays")
	}
}

// TestWorkspaceReuse: a workspace primed by the first Run is reused by
// later runs of every kind — results alias the workspace buffers, and
// the buffers persist across calls.
func TestWorkspaceReuse(t *testing.T) {
	g := gen.GNM(400, 1200, 5)
	w := testutil.AttachHashWeights(t, g, 9, 5)
	n := g.NumVertices()
	ws := &Workspace{}

	cc1 := runOK(t, g, Request{Kind: KindCC, CC: CCHybrid, Parallel: true, Workers: 2, Workspace: ws})
	if len(ws.Labels) != n || len(ws.Scratch) != n {
		t.Fatalf("CC did not prime the workspace: %d/%d", len(ws.Labels), len(ws.Scratch))
	}
	if &cc1.Labels[0] != &ws.Labels[0] && &cc1.Labels[0] != &ws.Scratch[0] {
		t.Fatal("CC result does not alias the workspace")
	}
	labels0, scratch0 := &ws.Labels[0], &ws.Scratch[0]
	runOK(t, g, Request{Kind: KindCC, CC: CCBranchAvoiding, Parallel: true, Workers: 2, Workspace: ws})
	if &ws.Labels[0] != labels0 || &ws.Scratch[0] != scratch0 {
		t.Fatal("second CC run reallocated the workspace")
	}

	b1 := runOK(t, g, Request{Kind: KindBFS, Parallel: true, Root: 0, Workers: 2, Workspace: ws})
	if &b1.Hops[0] != &ws.Hops[0] {
		t.Fatal("BFS result does not alias the workspace")
	}
	hops0 := &ws.Hops[0]
	runOK(t, g, Request{Kind: KindBFS, Parallel: true, Root: 7, Workers: 2, Workspace: ws})
	if &ws.Hops[0] != hops0 {
		t.Fatal("second BFS run reallocated the workspace")
	}

	s1 := runOK(t, w, Request{Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true, Root: 0, Workers: 2, Workspace: ws})
	if &s1.Dists[0] != &ws.Dists[0] {
		t.Fatal("SSSP result does not alias the workspace")
	}
	dists0 := &ws.Dists[0]
	runOK(t, w, Request{Kind: KindSSSP, SSSP: SSSPBellmanFord, Root: 3, Workspace: ws})
	if &ws.Dists[0] != dists0 {
		t.Fatal("sequential SSSP run reallocated the workspace")
	}

	batch := runOK(t, g, Request{Kind: KindBFSBatch, Roots: []uint32{0, 1, 2}, Workers: 2, Workspace: ws})
	if len(ws.HopsBatch) != 3 || &batch.HopsBatch[0][0] != &ws.HopsBatch[0][0] {
		t.Fatal("batch result does not alias the workspace")
	}
	inner0 := &ws.HopsBatch[0][0]
	runOK(t, g, Request{Kind: KindBFSBatch, Roots: []uint32{9, 8, 7}, Workers: 2, Workspace: ws})
	if &ws.HopsBatch[0][0] != inner0 {
		t.Fatal("second batch run reallocated the workspace")
	}

	// Reused buffers never leak stale results: a fresh workspace-less
	// run agrees.
	again := runOK(t, g, Request{Kind: KindBFS, Parallel: true, Root: 7, Workers: 2, Workspace: ws})
	clean := runOK(t, g, Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 7})
	testutil.MustEqualDists(t, "workspace reuse", again.Hops, clean.Hops)

	// Sequential kernels write into the same buffers.
	seqBFS := runOK(t, g, Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 9, Workspace: ws})
	if &seqBFS.Hops[0] != hops0 {
		t.Fatal("sequential BFS result does not alias the workspace")
	}
	seqCC := runOK(t, g, Request{Kind: KindCC, CC: CCBranchAvoiding, Workspace: ws})
	if &seqCC.Labels[0] != labels0 {
		t.Fatal("sequential CC result does not alias the workspace")
	}
	uf := runOK(t, g, Request{Kind: KindCC, CC: CCUnionFind, Workspace: ws})
	if &uf.Labels[0] != labels0 || &ws.Scratch[0] != scratch0 {
		t.Fatal("union-find run reallocated the workspace")
	}
	testutil.MustEqualLabels(t, "union-find in a used workspace", uf.Labels, runOK(t, g, Request{Kind: KindCC}).Labels)
	runOK(t, g, Request{Kind: KindCC, CC: CCHybrid, Parallel: true, Workers: 2, Workspace: ws})
}

// TestKindStrings: every kind names itself.
func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{KindCC, KindBFS, KindSSSP, KindBFSBatch} {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Errorf("Kind(%d).String() = %q", int(k), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("unknown kind stringer: %q", Kind(42).String())
	}
}
