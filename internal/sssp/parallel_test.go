package sssp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/testutil"
)

// TestParallelMatchesDijkstra is the acceptance property: every
// relaxation variant, every worker count, every corpus graph — the
// delta-stepping kernel must reproduce the Dijkstra oracle element for
// element.
func TestParallelMatchesDijkstra(t *testing.T) {
	testutil.ForEachWeighted(t, nil, func(t *testing.T, g *graph.Weighted) {
		want := Dijkstra(g, 0)
		if g.NumVertices() > 0 {
			if err := Verify(g, 0, want); err != nil {
				t.Fatalf("dijkstra oracle invalid: %v", err)
			}
		}
		for _, workers := range testutil.WorkerCounts {
			x := testutil.Exec(t, workers, par.Static)
			for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
				name := fmt.Sprintf("%s/w%d", variant, workers)
				dist, st, _ := Parallel(x, g, 0, ParallelOptions{Variant: variant}, nil, new(Scratch))
				testutil.MustEqualDists(t, name, dist, want)
				if g.NumVertices() > 0 {
					if err := Verify(g, 0, dist); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if st.Passes == 0 || st.Buckets == 0 {
						t.Fatalf("%s: no passes/buckets recorded (%d/%d)", name, st.Passes, st.Buckets)
					}
				}
			}
		}
	})
}

// TestParallelDeltaSweep pins that correctness is independent of the
// bucket width: tiny deltas (many buckets, Dijkstra-like) and huge
// deltas (one bucket, Bellman-Ford-like) must agree with the oracle.
func TestParallelDeltaSweep(t *testing.T) {
	g := testutil.RandomWeighted(300, 900, 50, 7)
	want := Dijkstra(g, 3)
	x := testutil.Exec(t, 4, par.Static)
	for _, delta := range []uint64{1, 2, 16, 1 << 20} {
		for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
			dist, _, _ := Parallel(x, g, 3, ParallelOptions{Variant: variant, Delta: delta}, nil, new(Scratch))
			testutil.MustEqualDists(t, fmt.Sprintf("delta=%d/%s", delta, variant), dist, want)
		}
	}
}

// TestParallelNonZeroSourceAndBuffer covers non-zero sources and the
// distance buffer's reuse by capacity: a buffer that holds |V| is
// aliased, a shorter one replaced.
func TestParallelNonZeroSourceAndBuffer(t *testing.T) {
	g := testutil.RandomWeighted(200, 700, 30, 9)
	n := g.NumVertices()
	buf := make([]uint64, n+5)
	x := testutil.Exec(t, 3, par.Static)
	for _, src := range []uint32{1, 17, uint32(n - 1)} {
		want := Dijkstra(g, src)
		dist, _, _ := Parallel(x, g, src, ParallelOptions{}, buf, new(Scratch))
		if &dist[0] != &buf[0] {
			t.Fatal("result does not alias the caller buffer")
		}
		testutil.MustEqualDists(t, fmt.Sprintf("src=%d", src), dist, want)
	}
	small := make([]uint64, 3)
	dist, _, _ := Parallel(x, g, 0, ParallelOptions{}, small, new(Scratch))
	if len(dist) != n {
		t.Fatalf("wrong-size buffer: len=%d, want %d", len(dist), n)
	}
}

// TestParallelSharedPool reuses one resident pool across runs; the
// kernel must not close it and repeated runs must stay correct.
func TestParallelSharedPool(t *testing.T) {
	x := testutil.Exec(t, 4, par.Static)
	g := testutil.RandomWeighted(150, 500, 20, 11)
	want := Dijkstra(g, 0)
	for run := 0; run < 3; run++ {
		dist, _, _ := Parallel(x, g, 0, ParallelOptions{Variant: core.Hybrid}, nil, new(Scratch))
		testutil.MustEqualDists(t, fmt.Sprintf("run%d", run), dist, want)
	}
}

// TestParallelStoreAsymmetry pins the paper's headline on the scatter
// phase: the branch-avoiding loop stores one candidate per scanned
// arc, the branch-based loop only per improvement.
func TestParallelStoreAsymmetry(t *testing.T) {
	g := testutil.RandomWeighted(400, 1600, 9, 13)
	x := testutil.Exec(t, 2, par.Static)
	_, bb, _ := Parallel(x, g, 0, ParallelOptions{Variant: core.BranchBased}, nil, new(Scratch))
	_, ba, _ := Parallel(x, g, 0, ParallelOptions{Variant: core.BranchAvoiding}, nil, new(Scratch))
	if ba.CandStores <= bb.CandStores {
		t.Fatalf("BA cand stores = %d, not above BB's %d", ba.CandStores, bb.CandStores)
	}
	if bb.CandStores == 0 {
		t.Fatal("BB recorded no candidate stores")
	}
	if bb.Total() <= 0 || ba.Total() <= 0 {
		t.Fatal("no pass time recorded")
	}
}

// TestParallelOutOfRangeSource mirrors the sequential kernels: an
// out-of-range source yields an all-Inf labeling rather than a panic.
func TestParallelOutOfRangeSource(t *testing.T) {
	g := graph.MustBuildWeighted(3, []graph.WeightedEdge{{U: 0, V: 1, W: 2}}, "tiny")
	dist, st, _ := Parallel(testutil.Exec(t, 2, par.Static), g, 9, ParallelOptions{}, nil, new(Scratch))
	for v, d := range dist {
		if d != Inf {
			t.Fatalf("dist[%d] = %d, want Inf", v, d)
		}
	}
	if st.Passes != 0 {
		t.Fatalf("passes = %d for out-of-range source", st.Passes)
	}
}

// TestVariantString pins the canonical names the CLI and daemon expose,
// on the single core.Variant the relaxation kernels take.
func TestVariantString(t *testing.T) {
	for v, want := range map[core.Variant]string{
		core.BranchBased: "branch-based", core.BranchAvoiding: "branch-avoiding",
		core.Hybrid: "hybrid", core.Variant(42): "unknown",
	} {
		if got := v.String(); got != want {
			t.Errorf("Variant(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

// TestParallelFarBuckets: one MaxUint32 edge on a unit-weight path at
// delta 1 puts the buckets on its two sides about 2^32 ids apart. Every
// variant must still return Dijkstra's distances, and a query must
// allocate O(|V|) — the bucket window is capped, the far side waits in
// the far list — not O(largest bucket id). The bound covers a fresh
// scratch plus the per-pass records (pass times and change counts, the
// chunk lists) of the ~2|V| passes a one-vertex-per-bucket path takes.
func TestParallelFarBuckets(t *testing.T) {
	const n = 3001 // a vertex count no other test uses: the first query builds its scratch
	edges := make([]graph.WeightedEdge, 0, n-1)
	for v := uint32(0); v+1 < n; v++ {
		w := uint32(1)
		if v == n/2 {
			w = ^uint32(0)
		}
		edges = append(edges, graph.WeightedEdge{U: v, V: v + 1, W: w})
	}
	g := graph.MustBuildWeighted(n, edges, "far-path")
	want := Dijkstra(g, 0)
	for _, workers := range []int{1, 4} {
		x := testutil.Exec(t, workers, par.Static)
		for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
			name := fmt.Sprintf("%s/w%d", variant, workers)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dist, _, err := Parallel(x, g, 0, ParallelOptions{Variant: variant, Delta: 1}, nil, new(Scratch))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			testutil.MustEqualDists(t, name, dist, want)
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 1024*n {
				t.Fatalf("%s: allocated %d bytes for %d vertices", name, bytes, n)
			}
		}
	}
}

// TestParallelWarmQueryAllocatesLittle: with the result buffer and a
// Scratch supplied, a repeat query reuses every scratch array of the
// previous one and allocates less than one more distance array — even
// after garbage collections, which is what a sync.Pool would not
// survive. The schedule is static, so every buffer is already at its
// size after the first run.
func TestParallelWarmQueryAllocatesLittle(t *testing.T) {
	g := testutil.RandomWeighted(20000, 80000, 40, 23)
	n := g.NumVertices()
	want := Dijkstra(g, 5)
	for _, workers := range []int{1, 3} {
		x := testutil.Exec(t, workers, par.Static)
		opt := ParallelOptions{Variant: core.Hybrid}
		buf, s := make([]uint64, n), new(Scratch)
		Parallel(x, g, 5, opt, buf, s) // warm the scratch
		for run := 0; run < 4; run++ {
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dist, _, _ := Parallel(x, g, 5, opt, buf, s)
			runtime.ReadMemStats(&after)
			testutil.MustEqualDists(t, fmt.Sprintf("w%d/run%d", workers, run), dist, want)
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(8*n) {
				t.Fatalf("w%d/run%d: a warm query allocated %d bytes, a distance array is %d", workers, run, bytes, 8*n)
			}
		}
	}
}

// passBudget is an Err-only context that reports cancellation once its
// budget of Err calls is spent — one call per relaxation pass.
type passBudget struct {
	context.Context
	left int
}

func (p *passBudget) Err() error {
	if p.left <= 0 {
		return context.Canceled
	}
	p.left--
	return nil
}

// TestParallelCancelledQueryLeavesCleanScratch: a query cancelled
// between passes stops with vertices queued and frontiers built; the
// scratch it returns must be clean, so the next
// query on the same shape still returns Dijkstra's distances.
func TestParallelCancelledQueryLeavesCleanScratch(t *testing.T) {
	g := testutil.RandomWeighted(500, 2000, 60, 29)
	want := Dijkstra(g, 0)
	for _, workers := range []int{1, 3} {
		pool := par.NewPool(workers)
		t.Cleanup(pool.Close)
		s := new(Scratch)
		for budget := 0; budget < 12; budget++ {
			opt := ParallelOptions{Variant: core.Hybrid, Delta: 4}
			cut := par.Exec{Ctx: &passBudget{Context: context.Background(), left: budget}, Pool: pool}
			if _, _, err := Parallel(cut, g, 0, opt, nil, s); !errors.Is(err, context.Canceled) {
				t.Fatalf("w%d budget %d: err = %v, want context.Canceled", workers, budget, err)
			}
			x := par.Exec{Ctx: context.Background(), Pool: pool}
			dist, _, err := Parallel(x, g, 0, opt, nil, s)
			if err != nil {
				t.Fatal(err)
			}
			testutil.MustEqualDists(t, fmt.Sprintf("w%d/after-cancel-%d", workers, budget), dist, want)
		}
	}
}

// TestParallelFrontierInVertexOrder pins the shape of the owners'
// bitset sweeps: every frontier gather returns is strictly ascending
// and carries its rows' arc prefix, both word sets are all-zero after
// every open and settle, and the distances still match Dijkstra's —
// here with stale and duplicate queue entries on both sides of an
// owner boundary and a vertex count that leaves the last word partial.
func TestParallelFrontierInVertexOrder(t *testing.T) {
	const n = 64*5 + 37
	g := testutil.RandomWeighted(n, 4*n, 40, 31)
	want := Dijkstra(g, 0)
	offs := g.Offsets()
	for _, workers := range []int{1, 2, 3} {
		x := testutil.Exec(t, workers, par.Static)
		for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
			name := fmt.Sprintf("%s/w%d", variant, workers)
			dist := initDist(nil, n, 0)
			q := newQuery(workers, g, dist, ParallelOptions{Variant: variant, Delta: 8}, new(Scratch))
			if workers > 1 && len(q.owners) != workers {
				t.Fatalf("%s: %d owners", name, len(q.owners))
			}
			edge := 64 // a word boundary when there is one owner
			if len(q.owners) > 1 {
				edge = q.owners[len(q.owners)-1].lo * 64
			}
			push := func(v int, b uint64) {
				q.owners[q.s.ownerOf[v/64]].push(uint32(v), b, 0)
			}
			push(0, 0)
			push(0, 0)
			for _, v := range []int{edge - 2, edge - 1, edge, edge + 1} {
				push(v, 0) // stale unless v's final distance lands in bucket 0
			}
			for _, v := range []int{edge - 1, edge} {
				// Live duplicates: a vertex queued at its true distance
				// is a state the kernel may reach on its own.
				if want[v] == Inf {
					t.Fatalf("%s: vertex %d unreachable", name, v)
				}
				dist[v] = want[v]
				push(v, want[v]>>q.shift)
				push(v, want[v]>>q.shift)
			}
			for o := range q.owners {
				q.owners[o].next = q.owners[o].nextBucket(0)
			}

			clean := func(after string) {
				for w := range q.s.inFrontier {
					if q.s.inFrontier[w] != 0 || q.s.changed[w] != 0 {
						t.Fatalf("%s: after %s in bucket %d, word %d: inFrontier %#x changed %#x",
							name, after, q.cur, w, q.s.inFrontier[w], q.s.changed[w])
					}
				}
			}
			var st perfcount.Stats
			for q.cur = q.lowest(); q.cur != noBucket; q.cur = q.lowest() {
				x.Pool.Run(len(q.owners), q.open)
				clean("open")
				for f := q.gather(); ; f = q.gather() {
					if len(f.arcs) != len(f.verts)+1 || f.arcs[0] != 0 {
						t.Fatalf("%s: %d vertices, %d prefix entries from %d", name, len(f.verts), len(f.arcs), f.arcs[0])
					}
					for i, v := range f.verts {
						if i > 0 && v <= f.verts[i-1] {
							t.Fatalf("%s: bucket %d frontier not ascending at %d: %d after %d", name, q.cur, i, v, f.verts[i-1])
						}
						if deg := offs[v+1] - offs[v]; f.arcs[i+1]-f.arcs[i] != deg {
							t.Fatalf("%s: vertex %d has %d prefix arcs, degree %d", name, v, f.arcs[i+1]-f.arcs[i], deg)
						}
					}
					if len(f.verts) == 0 {
						break
					}
					if err := q.pass(x, &st, f); err != nil {
						t.Fatal(err)
					}
					clean("settle")
				}
			}
			q.release()
			testutil.MustEqualDists(t, name, dist, want)
		}
	}
}
