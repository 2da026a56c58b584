package bfs

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bagraph/internal/corpus"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/testutil"
	"bagraph/internal/xrand"
)

func TestParallelDOMatchesSequential(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *graph.Graph) {
		if g.NumVertices() == 0 {
			return // no root to traverse from
		}
		ref, _ := TopDownBranchBased(g, 0)
		for _, workers := range testutil.WorkerCounts {
			x := testutil.Exec(t, workers, par.Static)
			// Stress both heuristic regimes: default thresholds, and
			// alpha/beta forcing bottom-up almost immediately.
			for _, ab := range [][2]int{{defaultAlpha, defaultBeta}, {1 << 20, 1 << 20}} {
				name := fmt.Sprintf("w%d/a%d", workers, ab[0])
				dist, st, _ := parallelDO(x, g, 0, nil, new(Scratch), ab[0], ab[1])
				testutil.MustEqualDists(t, name, dist, ref)
				if err := Verify(g, 0, dist); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var reached int
				for _, d := range dist {
					if d != Inf {
						reached++
					}
				}
				if st.Reached != reached {
					t.Fatalf("%s: Stats.Reached = %d, distance array says %d", name, st.Reached, reached)
				}
			}
		}
	})
}

func TestParallelDONonZeroRoot(t *testing.T) {
	g := gen.RMAT(11, 6, gen.DefaultRMAT, 6)
	x := testutil.Exec(t, 4, par.Static)
	for _, root := range []uint32{1, 17, uint32(g.NumVertices() - 1)} {
		ref, _ := TopDownBranchBased(g, root)
		dist, _, _ := ParallelDO(x, g, root, nil, new(Scratch))
		for v := range dist {
			if dist[v] != ref[v] {
				t.Fatalf("root %d: dist[%d] = %d, want %d", root, v, dist[v], ref[v])
			}
		}
	}
}

func TestParallelDOSharedPool(t *testing.T) {
	x := testutil.Exec(t, 4, par.Static)
	g := gen.Grid3D(10, 10, 10, 1)
	ref, _ := TopDownBranchBased(g, 0)
	for run := 0; run < 3; run++ {
		dist, _, _ := ParallelDO(x, g, 0, nil, new(Scratch))
		for v := range dist {
			if dist[v] != ref[v] {
				t.Fatalf("run %d: dist[%d] = %d, want %d", run, v, dist[v], ref[v])
			}
		}
	}
}

func TestParallelDOEmptyGraph(t *testing.T) {
	g := graph.MustBuild(0, nil, graph.Options{})
	dist, st, _ := ParallelDO(testutil.Exec(t, 2, par.Static), g, 0, nil, new(Scratch))
	if len(dist) != 0 || st.Reached != 0 {
		t.Fatalf("empty graph: dist=%v reached=%d", dist, st.Reached)
	}
}

// TestParallelDOWarmQueryAllocatesLittle: with the distance array and a
// Scratch supplied, a repeat query on a collaboration graph allocates
// less than one more distance array, even after garbage collections:
// the level queues, the word sets and the cost arrays all come back
// from the scratch at the capacity the first query left them.
func TestParallelDOWarmQueryAllocatesLittle(t *testing.T) {
	d, _ := corpus.ByName("coAuthorsDBLP")
	g := d.Generate(0.1, 1)
	n := g.NumVertices()
	const root = 7
	want, _ := TopDownBranchBased(g, root)
	for _, workers := range []int{1, 3} {
		x := testutil.Exec(t, workers, par.Static)
		buf, s := make([]uint32, n), new(Scratch)
		ParallelDO(x, g, root, buf, s) // warm the scratch
		for run := 0; run < 4; run++ {
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dist, st, _ := ParallelDO(x, g, root, buf, s)
			runtime.ReadMemStats(&after)
			testutil.MustEqualDists(t, fmt.Sprintf("w%d/run%d", workers, run), dist, want)
			if st.BottomUpLevels < 2 {
				t.Fatalf("w%d: %d bottom-up levels, want consecutive ones", workers, st.BottomUpLevels)
			}
			if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(4*n) {
				t.Fatalf("w%d/run%d: a warm query allocated %d bytes, a distance array is %d", workers, run, bytes, 4*n)
			}
		}
	}
}

// TestParallelDOCountersScheduleFree pins the bottom-up word sweep's
// invariants on a vertex count that is not a multiple of 64, with
// isolated vertices and the root in the partial last word: every
// counter is the same at any worker count under either schedule, and
// WordsScanned is exactly the non-empty unvisited words summed over the
// bottom-up levels, recomputed here from the oracle distances.
func TestParallelDOCountersScheduleFree(t *testing.T) {
	const n = 64*20 + 37
	isolated := func(v uint32) bool { return v%97 == 41 || v == n-1 }
	r := xrand.New(29)
	var edges []graph.Edge
	for v := uint32(1); v < n; v++ {
		for range 3 {
			u := uint32(r.Intn(int(v)))
			if !isolated(u) && !isolated(v) {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	g := graph.MustBuild(n, edges, graph.Options{Name: "tail-root"})
	root := uint32(n - 2)
	if root < 64*20 || g.Degree(root) == 0 {
		t.Fatalf("root %d is not a connected vertex of the last word", root)
	}
	want, _ := TopDownBranchBased(g, root)
	offs := g.Offsets()

	for _, ab := range [][2]int{{defaultAlpha, defaultBeta}, {1 << 20, 1 << 20}} {
		alpha, beta := ab[0], ab[1]
		// The direction of each level and the unvisited words each
		// bottom-up sweep finds, from the oracle.
		var bottomUp int
		var words uint64
		for level := uint32(0); ; level++ {
			size, volume := 0, int64(0)
			for v, d := range want {
				if d == level {
					size++
					volume += offs[v+1] - offs[v]
				}
			}
			if size == 0 {
				break
			}
			if volume > g.NumArcs()/int64(alpha) && size > n/beta {
				bottomUp++
				for w := 0; w < n; w += 64 {
					for v := w; v < min(w+64, n); v++ {
						if want[v] > level {
							words++
							break
						}
					}
				}
			}
		}
		if bottomUp == 0 {
			t.Fatalf("a%d: no bottom-up level to check", alpha)
		}

		var first *perfcount.Stats
		for _, sched := range []par.Schedule{par.Static, par.Stealing} {
			for _, workers := range []int{1, 2, 3, 4} {
				name := fmt.Sprintf("a%d/%v/w%d", alpha, sched, workers)
				dist, st, err := parallelDO(testutil.Exec(t, workers, sched), g, root, nil, new(Scratch), alpha, beta)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				testutil.MustEqualDists(t, name, dist, want)
				if st.BottomUpLevels != bottomUp || st.WordsScanned != words {
					t.Fatalf("%s: %d bottom-up levels scanned %d words, want %d and %d",
						name, st.BottomUpLevels, st.WordsScanned, bottomUp, words)
				}
				if first == nil {
					first = &st
					continue
				}
				if st.DistStores != first.DistStores || st.QueueStores != first.QueueStores ||
					st.WordsScanned != first.WordsScanned || !slices.Equal(st.LevelSizes, first.LevelSizes) ||
					st.TopDownLevels != first.TopDownLevels || st.BottomUpLevels != first.BottomUpLevels {
					t.Fatalf("%s: counters %+v differ from the first run's %+v", name, st, *first)
				}
			}
		}
	}
}
