package simkern

import (
	"context"
	"testing"

	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/sssp"
	"bagraph/internal/testutil"
)

func weighted(t *testing.T, g *graph.Graph, seed uint64) *graph.Weighted {
	t.Helper()
	return testutil.AttachHashWeights(t, g, 30, seed)
}

func TestBellmanFordMatchesNativeAndDijkstra(t *testing.T) {
	graphs := []*graph.Weighted{
		weighted(t, gen.Grid2D(6, 7, false), 1),
		weighted(t, gen.BarabasiAlbert(120, 3, 2), 3),
		weighted(t, gen.Cycle(30), 5),
	}
	for _, g := range graphs {
		oracle := sssp.Dijkstra(g, 0)
		rBB := BellmanFordBranchBased(machine(), g, 0)
		rBA := BellmanFordBranchAvoiding(machine(), g, 0)
		for v := range oracle {
			want := oracle[v]
			if want == sssp.Inf {
				want = SSSPInf
			}
			if rBB.Dist[v] != want || rBA.Dist[v] != want {
				t.Fatalf("%s: dist[%d]: BB=%d BA=%d want %d", g, v, rBB.Dist[v], rBA.Dist[v], want)
			}
		}
		if rBB.Passes != rBA.Passes {
			t.Fatalf("%s: passes differ: %d vs %d", g, rBB.Passes, rBA.Passes)
		}
		native, nst, _ := sssp.BellmanFord(context.Background(), g, 0, core.BranchBased, nil)
		if nst.Passes != rBB.Passes {
			t.Fatalf("%s: instrumented passes %d != native %d", g, rBB.Passes, nst.Passes)
		}
		for v := range native {
			if native[v] != sssp.Inf && rBB.Dist[v] != native[v] {
				t.Fatalf("%s: instrumented dist differs from native at %d", g, v)
			}
		}
	}
}

// TestBellmanFordExactCounts pins the closed-form branch counts per
// pass: BB = 2A + 2V + 2, BA = A + 2V + 2, exactly as SV (the weight
// load changes loads, not branches).
func TestBellmanFordExactCounts(t *testing.T) {
	g := weighted(t, gen.Grid2D(8, 8, false), 9)
	V := uint64(g.NumVertices())
	A := uint64(g.NumArcs())

	rBB := BellmanFordBranchBased(machine(), g, 0)
	rBA := BellmanFordBranchAvoiding(machine(), g, 0)

	for i, c := range rBB.PerPass {
		want := 2*A + 2*V + 2
		if i == len(rBB.PerPass)-1 {
			want++
		}
		if c.Branches != want {
			t.Fatalf("BB pass %d branches = %d, want %d", i, c.Branches, want)
		}
	}
	for i, c := range rBA.PerPass {
		want := A + 2*V + 2
		if i == len(rBA.PerPass)-1 {
			want++
		}
		if c.Branches != want {
			t.Fatalf("BA pass %d branches = %d, want %d", i, c.Branches, want)
		}
		// Loads: 3 per vertex + 3 per arc (adj, dist, weight).
		if got, wantL := c.Loads, 3*V+3*A; got != wantL {
			t.Fatalf("BA pass %d loads = %d, want %d", i, got, wantL)
		}
		if c.Stores != V {
			t.Fatalf("BA pass %d stores = %d, want %d", i, c.Stores, V)
		}
		if c.CondMoves != A {
			t.Fatalf("BA pass %d condmoves = %d, want %d", i, c.CondMoves, A)
		}
	}
}

// TestBellmanFordMispredictShape: the SV finding transfers — the
// branch-based relaxation mispredicts far more than the loop floor while
// churn lasts.
func TestBellmanFordMispredictShape(t *testing.T) {
	g := weighted(t, gen.BarabasiAlbert(300, 4, 7), 11)
	rBB := BellmanFordBranchBased(machine(), g, 0)
	rBA := BellmanFordBranchAvoiding(machine(), g, 0)
	if rBB.PerPass.Total().Mispredicts <= rBA.PerPass.Total().Mispredicts {
		t.Fatal("branch-based Bellman-Ford did not mispredict more")
	}
	if rBB.Passes >= 3 {
		first := rBB.PerPass[0].Mispredicts
		last := rBB.PerPass[rBB.Passes-1].Mispredicts
		if first <= last {
			t.Fatalf("BB mispredicts did not decay: %d -> %d", first, last)
		}
	}
	if rBB.Total().Instructions == 0 {
		t.Fatal("Total() empty")
	}
}
