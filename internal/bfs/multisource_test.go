package bfs

import (
	"fmt"
	"testing"

	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/testutil"
)

// msRoots picks k spread-out in-range sources for a graph.
func msRoots(g *graph.Graph, k int) []uint32 {
	n := g.NumVertices()
	roots := make([]uint32, k)
	for i := range roots {
		roots[i] = uint32((i * 977) % n)
	}
	return roots
}

// TestMultiSourceMatchesSequential is the batch-kernel acceptance
// property: every source's distance array out of the shared sweep must
// equal an independent sequential traversal from that source, across
// the corpus and worker counts.
func TestMultiSourceMatchesSequential(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *graph.Graph) {
		if g.NumVertices() == 0 {
			dists, st, _ := MultiSource(testutil.Exec(t, 2, par.Static), g, []uint32{}, nil, new(Scratch))
			if len(dists) != 0 || st.Reached != 0 {
				t.Fatalf("empty graph: %d dists, reached %d", len(dists), st.Reached)
			}
			return
		}
		k := 5
		if g.NumVertices() < k {
			k = g.NumVertices()
		}
		roots := msRoots(g, k)
		for _, workers := range testutil.WorkerCounts {
			dists, st, _ := MultiSource(testutil.Exec(t, workers, par.Static), g, roots, nil, new(Scratch))
			if len(dists) != k {
				t.Fatalf("w%d: %d distance arrays for %d roots", workers, len(dists), k)
			}
			reached := 0
			for i, r := range roots {
				want, _ := TopDownBranchBased(g, r)
				testutil.MustEqualDists(t, fmt.Sprintf("w%d/root%d", workers, r), dists[i], want)
				for _, d := range want {
					if d != Inf {
						reached++
					}
				}
			}
			if st.Reached != reached {
				t.Fatalf("w%d: Stats.Reached = %d, distance arrays say %d", workers, st.Reached, reached)
			}
			if st.Waves != 1 {
				t.Fatalf("w%d: %d waves for %d roots", workers, st.Waves, k)
			}
		}
	})
}

// TestMultiSourceWaves drives a batch past the 64-bit mask width: 70
// sources must split into two waves and still match the oracle.
func TestMultiSourceWaves(t *testing.T) {
	g := gen.RMAT(10, 8, gen.DefaultRMAT, 5)
	roots := msRoots(g, 70)
	dists, st, _ := MultiSource(testutil.Exec(t, 4, par.Static), g, roots, nil, new(Scratch))
	if st.Waves != 2 {
		t.Fatalf("waves = %d, want 2", st.Waves)
	}
	for i, r := range roots {
		want, _ := TopDownBranchBased(g, r)
		testutil.MustEqualDists(t, fmt.Sprintf("root%d", r), dists[i], want)
	}
}

// TestMultiSourceDuplicatesAndReuse covers duplicate roots in one
// batch (each request keeps its own array) and the Dists buffer
// contract.
func TestMultiSourceDuplicatesAndReuse(t *testing.T) {
	g := gen.Grid2D(20, 20, false)
	n := g.NumVertices()
	roots := []uint32{7, 7, 0, 7}
	bufs := make([][]uint32, len(roots))
	for i := range bufs {
		bufs[i] = make([]uint32, n)
	}
	x := testutil.Exec(t, 2, par.Static)
	s := new(Scratch)
	dists, _, _ := MultiSource(x, g, roots, bufs, s)
	for i := range dists {
		if &dists[i][0] != &bufs[i][0] {
			t.Fatalf("result %d does not alias the caller buffer", i)
		}
		want, _ := TopDownBranchBased(g, roots[i])
		testutil.MustEqualDists(t, fmt.Sprintf("req%d", i), dists[i], want)
	}
	// Reuse the buffers for a second batch: prior contents must not leak.
	roots2 := []uint32{1, 2, 3, 4}
	dists2, _, _ := MultiSource(x, g, roots2, bufs, s)
	for i := range dists2 {
		want, _ := TopDownBranchBased(g, roots2[i])
		testutil.MustEqualDists(t, fmt.Sprintf("reuse/req%d", i), dists2[i], want)
	}
}

// TestMultiSourceSharedPool reuses one resident pool across batches.
func TestMultiSourceSharedPool(t *testing.T) {
	x := testutil.Exec(t, 4, par.Static)
	g := gen.Grid3D(10, 10, 10, 1)
	for run := 0; run < 3; run++ {
		dists, _, _ := MultiSource(x, g, []uint32{0, 500}, nil, new(Scratch))
		for i, r := range []uint32{0, 500} {
			want, _ := TopDownBranchBased(g, r)
			testutil.MustEqualDists(t, fmt.Sprintf("run%d/root%d", run, r), dists[i], want)
		}
	}
}

// TestMultiSourceSharedSweepEconomy pins the batching win the daemon
// relies on: one wave's level count is bounded by the widest member,
// not the sum over members.
func TestMultiSourceSharedSweepEconomy(t *testing.T) {
	g := gen.Path(200)
	roots := msRoots(g, 8)
	_, st, _ := MultiSource(testutil.Exec(t, 2, par.Static), g, roots, nil, new(Scratch))
	sum := 0
	for _, r := range roots {
		_, sst := TopDownBranchBased(g, r)
		sum += sst.Passes
	}
	if st.Passes >= sum {
		t.Fatalf("shared sweep used %d levels, independent traversals %d", st.Passes, sum)
	}
}

// TestMultiSourceCountersScheduleFree pins the active-word sweep on a
// vertex count that is not a multiple of 64, over two waves: every
// counter is the same at any worker count under either schedule, and
// WordsScanned is exactly the non-empty active words summed over the
// levels, recomputed here from the oracle distances. A vertex is active
// in a wave's level-L sweep iff its largest distance from the wave's
// roots is at least L (unreached counts as infinite); the roots of a
// wave are distinct, so no vertex is saturated before level 1.
func TestMultiSourceCountersScheduleFree(t *testing.T) {
	g := gen.Grid2D(301, 157, false)
	n := g.NumVertices()
	if n%64 == 0 {
		t.Fatalf("|V| = %d is a multiple of 64", n)
	}
	roots := msRoots(g, 70)
	want := make([][]uint32, len(roots))
	for i, r := range roots {
		want[i], _ = TopDownBranchBased(g, r)
	}

	var passes int
	var words uint64
	for lo := 0; lo < len(roots); lo += msWave {
		// Levels run until one advances no search: the deepest finite
		// distance plus one.
		maxd := make([]uint32, n)
		deepest := uint32(0)
		for _, d := range want[lo:min(lo+msWave, len(roots))] {
			for v := range maxd {
				maxd[v] = max(maxd[v], d[v])
				if d[v] != Inf {
					deepest = max(deepest, d[v])
				}
			}
		}
		for level := uint32(1); level <= deepest+1; level++ {
			passes++
			for w := 0; w < n; w += 64 {
				for v := w; v < min(w+64, n); v++ {
					if maxd[v] >= level {
						words++
						break
					}
				}
			}
		}
	}

	var first *perfcount.Stats
	for _, sched := range []par.Schedule{par.Static, par.Stealing} {
		for _, workers := range []int{1, 2, 3, 4} {
			name := fmt.Sprintf("%v/w%d", sched, workers)
			dists, st, err := MultiSource(testutil.Exec(t, workers, sched), g, roots, nil, new(Scratch))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range roots {
				testutil.MustEqualDists(t, fmt.Sprintf("%s/root%d", name, roots[i]), dists[i], want[i])
			}
			if st.Waves != 2 || st.Passes != passes || st.WordsScanned != words {
				t.Fatalf("%s: %d waves, %d levels scanned %d words, want 2, %d and %d",
					name, st.Waves, st.Passes, st.WordsScanned, passes, words)
			}
			if first == nil {
				first = &st
				continue
			}
			if st.Reached != first.Reached || st.DistStores != first.DistStores ||
				st.WordsScanned != first.WordsScanned || st.Passes != first.Passes {
				t.Fatalf("%s: counters %+v differ from the first run's %+v", name, st, *first)
			}
		}
	}
}
