package bfs

import (
	"fmt"
	"testing"

	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/testutil"
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
				dist, st, _ := parallelDO(x, g, 0, ParallelOptions{}, ab[0], ab[1])
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
		dist, _, _ := ParallelDO(x, g, root, ParallelOptions{})
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
		dist, _, _ := ParallelDO(x, g, 0, ParallelOptions{})
		for v := range dist {
			if dist[v] != ref[v] {
				t.Fatalf("run %d: dist[%d] = %d, want %d", run, v, dist[v], ref[v])
			}
		}
	}
}

func TestParallelDOEmptyGraph(t *testing.T) {
	g := graph.MustBuild(0, nil, graph.Options{})
	dist, st, _ := ParallelDO(testutil.Exec(t, 2, par.Static), g, 0, ParallelOptions{})
	if len(dist) != 0 || st.Reached != 0 {
		t.Fatalf("empty graph: dist=%v reached=%d", dist, st.Reached)
	}
}
