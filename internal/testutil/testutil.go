// Package testutil is the shared property-test harness for the kernel
// equivalence suites. Before it existed, the cc, bfs and sssp packages
// each carried a hand-rolled copy of the same generator loop (skewed
// RMAT, stencil grids, uniform GNM, structural edge cases) and the same
// element-for-element comparison against a sequential oracle. The
// harness centralizes both: Corpus/WeightedCorpus produce the
// seed-parameterized graph sets, ForEachGraph/ForEachWeighted run a
// check as one subtest per (seed, graph), and MustEqualDists /
// MustEqualLabels are the oracle comparators every suite shares.
//
// The corpus spans the generator classes the paper's Table 2 stands in
// for — social/collaboration (RMAT, skewed degrees), FEM/road meshes
// (2D/3D grids), uniform random (GNM) — plus the structural edge cases
// parallel kernels historically break on: disconnected graphs, stars
// (one-vertex ranges next to the full arc volume), paths (maximum
// diameter), singletons and the empty graph.
package testutil

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/xrand"
)

// WorkerCounts is the standard worker sweep for parallel-kernel
// equivalence tests: it covers the inline fast path (1), non-trivial
// partitions (2, 4), and more workers than the CI container has
// cores (8).
var WorkerCounts = []int{1, 2, 4, 8}

// DefaultSeeds is the seed set ForEachGraph and ForEachWeighted use
// when the caller passes none: two independent draws keep the
// randomized corpus honest without doubling suite runtime for every
// new axis.
var DefaultSeeds = []uint64{1, 2}

// Hub returns the forced-skew scheduling adversary: vertex 0 carries
// its n-1 star arcs plus loops parallel self-loops, so it owns well
// over half of all arcs (a simple undirected graph caps a vertex at
// exactly half — the kept parallel self-loops push past it). Any
// arc-balanced partition must hand one worker a block dominated by the
// hub; a scheduler that cannot shed that block's remaining chunks
// stalls every pass barrier. Self-loops are relaxation no-ops in every
// kernel (a vertex never improves its own label, distance, or
// frontier bit), so oracles are unaffected.
func Hub(n, loops int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1+loops)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(i)})
	}
	for i := 0; i < loops; i++ {
		edges = append(edges, graph.Edge{U: 0, V: 0})
	}
	return graph.MustBuild(n, edges, graph.Options{
		Name: fmt.Sprintf("hub%d+%d", n, loops), KeepSelfLoops: true, KeepParallelEdges: true,
	})
}

// Corpus returns the deterministic equivalence corpus for one seed.
// The random members (RMAT, GNM, the disconnected composite) are
// re-drawn per seed; the structural members are fixed shapes.
func Corpus(seed uint64) []*graph.Graph {
	return []*graph.Graph{
		gen.RMAT(10, 8, gen.DefaultRMAT, seed),
		gen.RMAT(12, 4, gen.DefaultRMAT, seed+100),
		gen.Grid2D(40, 40, false),
		gen.Grid3D(12, 12, 12, 1),
		gen.GNM(2000, 6000, seed+200),
		gen.GNM(500, 400, seed+300), // sparse: many components, BFS reaches a fragment
		gen.Disconnected(gen.GNM(300, 900, seed+400), 4),
		gen.Star(100),
		Hub(192, 600), // one vertex owning >50% of arcs: the steal-schedule adversary
		gen.Path(257),
		graph.MustBuild(1, nil, graph.Options{Name: "single"}),
		graph.MustBuild(0, nil, graph.Options{Name: "empty"}),
	}
}

// ForEachGraph runs fn as one subtest per (seed, corpus graph). A nil
// or empty seed list means DefaultSeeds.
func ForEachGraph(t *testing.T, seeds []uint64, fn func(t *testing.T, g *graph.Graph)) {
	t.Helper()
	if len(seeds) == 0 {
		seeds = DefaultSeeds
	}
	for _, seed := range seeds {
		for _, g := range Corpus(seed) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, g), func(t *testing.T) { fn(t, g) })
		}
	}
}

// RandomWeighted builds a random weighted graph from one seed: a
// random spanning path (keeping most of it connected) plus m extra
// uniform edges, weights in [1, maxW].
func RandomWeighted(n, m int, maxW uint32, seed uint64) *graph.Weighted {
	r := xrand.New(seed)
	edges := make([]graph.WeightedEdge, 0, m+n)
	perm := r.Perm(n)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.WeightedEdge{
			U: uint32(perm[i]), V: uint32(perm[i+1]), W: 1 + r.Uint32()%maxW,
		})
	}
	for i := 0; i < m; i++ {
		edges = append(edges, graph.WeightedEdge{
			U: uint32(r.Intn(n)), V: uint32(r.Intn(n)), W: 1 + r.Uint32()%maxW,
		})
	}
	return graph.MustBuildWeighted(n, edges, fmt.Sprintf("wrand-%d-%d", n, m))
}

// AttachHashWeights wraps g with deterministic symmetric hash weights
// in [1, maxW] (xrand.SymmetricWeights).
func AttachHashWeights(tb testing.TB, g *graph.Graph, maxW uint32, seed uint64) *graph.Weighted {
	tb.Helper()
	w, err := graph.AttachWeights(g, xrand.SymmetricWeights(maxW, seed))
	if err != nil {
		tb.Fatalf("testutil: attach weights to %s: %v", g, err)
	}
	return w
}

// WeightedCorpus returns the weighted equivalence corpus for one seed:
// random weighted multigraphs (whose parallel edges and self-loops
// exercise the builder's collapse rules), hash-weighted structural
// corpus members, a deliberate shortcut triangle, zero-weight edges,
// and the weighted degenerates.
func WeightedCorpus(tb testing.TB, seed uint64) []*graph.Weighted {
	tb.Helper()
	return []*graph.Weighted{
		RandomWeighted(50, 120, 10, seed),
		RandomWeighted(200, 600, 100, seed+100),
		RandomWeighted(400, 1600, 7, seed+200),
		AttachHashWeights(tb, gen.Grid2D(17, 23, false), 50, seed),
		AttachHashWeights(tb, gen.Grid3D(8, 8, 8, 1), 31, seed+300),
		AttachHashWeights(tb, gen.RMAT(9, 6, gen.DefaultRMAT, seed+400), 20, seed+400),
		AttachHashWeights(tb, gen.BarabasiAlbert(150, 3, seed+500), 50, seed+500),
		AttachHashWeights(tb, gen.Disconnected(gen.GNM(120, 300, seed+600), 3), 9, seed+600),
		AttachHashWeights(tb, Hub(192, 600), 50, seed+700),
		graph.MustBuildWeighted(4, []graph.WeightedEdge{
			{U: 0, V: 1, W: 10}, {U: 0, V: 2, W: 1}, {U: 2, V: 1, W: 1},
		}, "shortcut"),
		graph.MustBuildWeighted(3, []graph.WeightedEdge{
			{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 0},
		}, "zeros"),
		graph.MustBuildWeighted(1, nil, "wsingle"),
		graph.MustBuildWeighted(0, nil, "wempty"),
	}
}

// ForEachWeighted runs fn as one subtest per (seed, weighted corpus
// graph). A nil or empty seed list means DefaultSeeds.
func ForEachWeighted(t *testing.T, seeds []uint64, fn func(t *testing.T, g *graph.Weighted)) {
	t.Helper()
	if len(seeds) == 0 {
		seeds = DefaultSeeds
	}
	for _, seed := range seeds {
		for _, g := range WeightedCorpus(t, seed) {
			t.Run(fmt.Sprintf("seed%d/%s", seed, g), func(t *testing.T) { fn(t, g) })
		}
	}
}

// MustEqualDists fails the test unless got matches want element for
// element. It reports the first mismatching index and stops the test:
// a kernel that disagrees with its oracle once will usually disagree
// thousands of times, and the first divergence is the diagnostic one.
func MustEqualDists[E comparable](tb testing.TB, ctx string, got, want []E) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d distances, oracle has %d", ctx, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			tb.Fatalf("%s: dist[%d] = %v, oracle says %v", ctx, v, got[v], want[v])
		}
	}
}

// MustEqualLabels is the component-labeling comparator: identical to
// MustEqualDists but named for the CC suites' intent.
func MustEqualLabels(tb testing.TB, ctx string, got, want []uint32) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d labels, oracle has %d", ctx, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			tb.Fatalf("%s: vertex %d labeled %d, oracle says %d", ctx, v, got[v], want[v])
		}
	}
}

// Exec returns the handle the engine-kernel tests reach their kernels
// through: a background context, a pool of the given size (< 1 means
// GOMAXPROCS) closed when the test ends, and the schedule.
func Exec(tb testing.TB, workers int, sched par.Schedule) par.Exec {
	tb.Helper()
	pool := par.NewPool(workers)
	tb.Cleanup(pool.Close)
	return par.Exec{Ctx: context.Background(), Pool: pool, Schedule: sched}
}

// cancelAfter is a context whose Err starts reporting Canceled after a
// fixed number of nil answers.
type cancelAfter struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// CancelAfter returns a context that allows n Err checks before
// cancelling. The kernels observe cancellation only through Err at
// pass/level barriers (never Done), so the budget makes mid-kernel
// cancellation barrier-exact and timing-free: a sequential kernel runs
// exactly n passes and stops at the next barrier.
func CancelAfter(n int) context.Context {
	return &cancelAfter{Context: context.Background(), left: n}
}
