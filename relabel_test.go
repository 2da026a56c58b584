package bagraph

// Property suite for the degree-ordered relabeling layer: for every
// corpus graph (including the Hub multigraph adversary), every kernel
// kind, and every standard worker count, a request against the
// Relabeled view must produce results byte-identical to the same
// request against the raw graph. Runs under -race in CI like the rest
// of the suite.

import (
	"context"
	"testing"

	"bagraph/internal/testutil"
)

// pickRoots returns a deterministic spread of roots for an n-vertex
// graph: the ends plus interior vertices, deduplicated by range.
func pickRoots(n int) []uint32 {
	if n == 0 {
		return nil
	}
	roots := []uint32{0}
	if n > 3 {
		roots = append(roots, uint32(n/2), uint32(n-1))
	}
	return roots
}

func TestRelabeledEquivalence(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *Graph) {
		rl, err := RelabelDegree(g)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		roots := pickRoots(n)
		for _, workers := range testutil.WorkerCounts {
			for _, parallel := range []bool{false, true} {
				req := Request{Kind: KindCC, CC: CCBranchAvoiding, Parallel: parallel, Workers: workers}
				want := runOK(t, g, req)
				got := runOK(t, rl, req)
				testutil.MustEqualLabels(t, "cc", got.Labels, want.Labels)
				if !parallel {
					break // sequential kernels ignore workers
				}
			}
			for _, root := range roots {
				req := Request{Kind: KindBFS, Parallel: true, Root: root, Workers: workers,
					Schedule: ScheduleStealing}
				want := runOK(t, g, req)
				got := runOK(t, rl, req)
				testutil.MustEqualDists(t, "bfs", got.Hops, want.Hops)
			}
			if n > 0 {
				req := Request{Kind: KindBFSBatch, Roots: roots, Workers: workers}
				want := runOK(t, g, req)
				got := runOK(t, rl, req)
				for i := range want.HopsBatch {
					testutil.MustEqualDists(t, "bfs-batch", got.HopsBatch[i], want.HopsBatch[i])
				}
			}
		}
	})
}

func TestRelabeledWeightedEquivalence(t *testing.T) {
	for _, seed := range testutil.DefaultSeeds {
		for _, w := range testutil.WeightedCorpus(t, seed) {
			rl, err := RelabelDegree(w)
			if err != nil {
				t.Fatal(err)
			}
			roots := pickRoots(w.NumVertices())
			for _, workers := range testutil.WorkerCounts {
				for _, root := range roots {
					req := Request{Kind: KindSSSP, SSSP: SSSPHybrid, Parallel: true,
						Root: root, Workers: workers}
					want := runOK(t, w, req)
					got := runOK(t, rl, req)
					testutil.MustEqualDists(t, "sssp", got.Dists, want.Dists)
				}
			}
			// The unweighted kinds run on a weighted wrapper's structure.
			req := Request{Kind: KindCC, Parallel: true, Workers: 2}
			want := runOK(t, w, req)
			got := runOK(t, rl, req)
			testutil.MustEqualLabels(t, "cc-on-weighted", got.Labels, want.Labels)
		}
	}
}

// TestRequestRelabelOption checks the Request.Relabel path: same
// results, and the Workspace caches the permuted view across calls.
func TestRequestRelabelOption(t *testing.T) {
	g := testutil.Hub(192, 600)
	ws := &Workspace{}
	for call := 0; call < 3; call++ {
		req := Request{Kind: KindBFS, Parallel: true, Relabel: true, Workspace: ws}
		got := runOK(t, g, req)
		want := runOK(t, g, Request{Kind: KindBFS, Parallel: true})
		testutil.MustEqualDists(t, "bfs-relabel-opt", got.Hops, want.Hops)
	}
	if ws.rl == nil || ws.rl.rel == nil {
		t.Fatal("workspace did not cache the relabeled view")
	}
	first := ws.rl.rel
	runOK(t, g, Request{Kind: KindCC, Parallel: true, Relabel: true, Workspace: ws})
	if ws.rl.rel != first {
		t.Fatal("cached relabeled view rebuilt for the same target")
	}
}

// TestRelabeledWorkspaceReuse checks that a workspace-bearing relabeled
// run reuses the caller-visible output buffers across calls.
func TestRelabeledWorkspaceReuse(t *testing.T) {
	g := testutil.Corpus(1)[0]
	rl, err := RelabelDegree(g)
	if err != nil {
		t.Fatal(err)
	}
	ws := &Workspace{}
	res1 := runOK(t, rl, Request{Kind: KindBFS, Parallel: true, Workspace: ws})
	ptr1 := &res1.Hops[0]
	res2 := runOK(t, rl, Request{Kind: KindBFS, Parallel: true, Root: 1, Workspace: ws})
	if &res2.Hops[0] != ptr1 {
		t.Error("relabeled run did not reuse the workspace Hops buffer")
	}
	want := runOK(t, g, Request{Kind: KindBFS, Parallel: true, Root: 1})
	testutil.MustEqualDists(t, "ws-reuse", res2.Hops, want.Hops)
}

// TestRelabeledAttachWeights checks weight attachment in original ids:
// SSSP on the weighted Relabeled matches SSSP on AttachWeights of the
// raw graph.
func TestRelabeledAttachWeights(t *testing.T) {
	g := testutil.Corpus(2)[0]
	fn := func(u, v uint32) uint32 { return 1 + (u^v)%7 }
	w, err := AttachWeights(g, fn)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := RelabelDegree(g)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Weighted() != nil {
		t.Fatal("unweighted wrapper claims weights")
	}
	if _, err := rl.AttachWeights(fn); err != nil {
		t.Fatal(err)
	}
	if _, err := rl.AttachWeights(fn); err == nil {
		t.Fatal("second AttachWeights accepted")
	}
	req := Request{Kind: KindSSSP, SSSP: SSSPBellmanFordBranchAvoiding}
	want := runOK(t, w, req)
	got := runOK(t, rl, req)
	testutil.MustEqualDists(t, "attach-weights", got.Dists, want.Dists)
}

// TestRelabeledRootValidation checks out-of-range roots fail the same
// way they do unrelabeled, and that errors carry the caller's id.
func TestRelabeledRootValidation(t *testing.T) {
	g := testutil.Corpus(1)[3]
	rl, err := RelabelDegree(g)
	if err != nil {
		t.Fatal(err)
	}
	bad := uint32(g.NumVertices() + 7)
	_, errRaw := Run(context.Background(), g, Request{Kind: KindBFS, Root: bad})
	_, errRel := Run(context.Background(), rl, Request{Kind: KindBFS, Root: bad})
	if errRaw == nil || errRel == nil {
		t.Fatal("out-of-range root accepted")
	}
	if errRaw.Error() != errRel.Error() {
		t.Fatalf("validation messages diverge: %q vs %q", errRaw, errRel)
	}
}

// TestRelabeledStatsWordsScanned checks the locality proxy is populated
// by the word sweeps on a graph dense enough to go bottom-up.
func TestRelabeledStatsWordsScanned(t *testing.T) {
	g := testutil.Corpus(1)[0] // rmat: bottom-up levels guaranteed
	res := runOK(t, g, Request{Kind: KindBFS, Parallel: true})
	if res.Stats.BottomUpLevels > 0 && res.Stats.WordsScanned == 0 {
		t.Fatal("bottom-up levels ran but WordsScanned is zero")
	}
	batch := runOK(t, g, Request{Kind: KindBFSBatch, Roots: []uint32{0, 1, 2}})
	if batch.Stats.WordsScanned == 0 {
		t.Fatal("multi-source sweep reported zero WordsScanned")
	}
}
