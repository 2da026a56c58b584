package simkern

import (
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/perfsim"
	"bagraph/internal/uarch"
)

func machine() *perfsim.Machine {
	m, ok := uarch.ByName("Haswell")
	if !ok {
		panic("no Haswell model")
	}
	return perfsim.NewDefault(m)
}

func testGraphs() []*graph.Graph {
	return []*graph.Graph{
		gen.Path(40),
		gen.Cycle(33),
		gen.Star(64),
		gen.Grid2D(8, 9, false),
		gen.Grid3D(4, 4, 4, 1),
		gen.GNM(120, 300, 5),
		gen.BarabasiAlbert(150, 3, 7),
		gen.Disconnected(gen.Cycle(7), 4),
		gen.Community(5, 12, 0.5, 20, 3),
	}
}

// TestSVMatchesNative cross-validates the instrumented SV kernels against
// the native implementations: identical labels and pass counts.
func TestSVMatchesNative(t *testing.T) {
	for _, g := range testGraphs() {
		nativeLabels, nativeStats := cc.SVBranchBased(g)

		rBB := SVBranchBased(machine(), g)
		rBA := SVBranchAvoiding(machine(), g)

		if rBB.Iterations != nativeStats.Passes || rBA.Iterations != nativeStats.Passes {
			t.Fatalf("%s: iterations BB=%d BA=%d native=%d", g, rBB.Iterations, rBA.Iterations, nativeStats.Passes)
		}
		for v := range nativeLabels {
			if rBB.Labels[v] != nativeLabels[v] || rBA.Labels[v] != nativeLabels[v] {
				t.Fatalf("%s: label mismatch at %d", g, v)
			}
		}
		if err := cc.Verify(g, rBB.Labels); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
	}
}

// TestBFSMatchesNative cross-validates instrumented BFS against native.
func TestBFSMatchesNative(t *testing.T) {
	for _, g := range testGraphs() {
		want, nativeStats := bfs.TopDownBranchBased(g, 0)

		rBB := BFSBranchBased(machine(), g, 0)
		rBA := BFSBranchAvoiding(machine(), g, 0)

		for v := range want {
			if rBB.Dist[v] != want[v] || rBA.Dist[v] != want[v] {
				t.Fatalf("%s: distance mismatch at %d", g, v)
			}
		}
		if rBB.Levels != nativeStats.Passes || rBA.Levels != nativeStats.Passes {
			t.Fatalf("%s: levels BB=%d BA=%d native=%d", g, rBB.Levels, rBA.Levels, nativeStats.Passes)
		}
		if rBB.Reached != nativeStats.Reached || rBA.Reached != nativeStats.Reached {
			t.Fatalf("%s: reached mismatch", g)
		}
		for i := range nativeStats.LevelSizes {
			if rBB.LevelSizes[i] != nativeStats.LevelSizes[i] {
				t.Fatalf("%s: level %d size mismatch", g, i)
			}
		}
	}
}

// TestSVExactBranchCounts pins the closed-form per-iteration branch counts
// that reproduce the paper's Fig. 4 ratios:
//
//	branch-based:    2A + 2V + 2 per pass (+1 on the last pass)
//	branch-avoiding:  A + 2V + 2 per pass (+1 on the last pass)
func TestSVExactBranchCounts(t *testing.T) {
	g := gen.Grid2D(10, 10, false)
	V := uint64(g.NumVertices())
	A := uint64(g.NumArcs())

	rBB := SVBranchBased(machine(), g)
	rBA := SVBranchAvoiding(machine(), g)

	for i, c := range rBB.PerIter {
		want := 2*A + 2*V + 2
		if i == len(rBB.PerIter)-1 {
			want++
		}
		if c.Branches != want {
			t.Fatalf("BB pass %d branches = %d, want %d", i, c.Branches, want)
		}
	}
	for i, c := range rBA.PerIter {
		want := A + 2*V + 2
		if i == len(rBA.PerIter)-1 {
			want++
		}
		if c.Branches != want {
			t.Fatalf("BA pass %d branches = %d, want %d", i, c.Branches, want)
		}
	}
}

// TestSVExactLoadAndStoreCounts pins loads (identical for both variants)
// and the store asymmetry (BA: exactly V per pass).
func TestSVExactLoadAndStoreCounts(t *testing.T) {
	g := gen.GNM(80, 200, 11)
	V := uint64(g.NumVertices())
	A := uint64(g.NumArcs())

	rBB := SVBranchBased(machine(), g)
	rBA := SVBranchAvoiding(machine(), g)

	for i := range rBA.PerIter {
		if got, want := rBA.PerIter[i].Loads, 3*V+2*A; got != want {
			t.Fatalf("BA pass %d loads = %d, want %d", i, got, want)
		}
		if got := rBA.PerIter[i].Stores; got != V {
			t.Fatalf("BA pass %d stores = %d, want %d", i, got, V)
		}
		if got, want := rBB.PerIter[i].Loads, 3*V+2*A; got != want {
			t.Fatalf("BB pass %d loads = %d, want %d", i, got, want)
		}
	}
	// BB's final pass observes no improvement: zero stores.
	if last := rBB.PerIter[len(rBB.PerIter)-1].Stores; last != 0 {
		t.Fatalf("BB final pass stores = %d, want 0", last)
	}
	// BA performs one conditional move per arc per pass; BB none.
	for i := range rBA.PerIter {
		if got := rBA.PerIter[i].CondMoves; got != A {
			t.Fatalf("BA pass %d condmoves = %d, want %d", i, got, A)
		}
		if rBB.PerIter[i].CondMoves != 0 {
			t.Fatal("BB recorded conditional moves")
		}
	}
}

// TestBFSExactCounts pins the whole-run formulas on a connected graph
// where BFS reaches all V vertices over A arcs:
//
//	branch-based:    branches 2A+2V+1, stores 2(V-1)
//	branch-avoiding: branches  A+2V+1, stores 2A, condmoves 2A
func TestBFSExactCounts(t *testing.T) {
	g := gen.Grid3D(5, 5, 5, 1)
	V := uint64(g.NumVertices())
	A := uint64(g.NumArcs())

	rBB := BFSBranchBased(machine(), g, 0)
	rBA := BFSBranchAvoiding(machine(), g, 0)

	bb := rBB.PerLevel.Total()
	ba := rBA.PerLevel.Total()

	if got, want := bb.Branches, 2*A+2*V+1; got != want {
		t.Fatalf("BB branches = %d, want %d", got, want)
	}
	if got, want := ba.Branches, A+2*V+1; got != want {
		t.Fatalf("BA branches = %d, want %d", got, want)
	}
	if got, want := bb.Stores, 2*(V-1); got != want {
		t.Fatalf("BB stores = %d, want %d", got, want)
	}
	if got, want := ba.Stores, 2*A; got != want {
		t.Fatalf("BA stores = %d, want %d", got, want)
	}
	if got, want := ba.CondMoves, 2*A; got != want {
		t.Fatalf("BA condmoves = %d, want %d", got, want)
	}
	if bb.CondMoves != 0 {
		t.Fatal("BB recorded conditional moves")
	}
	// Loads identical between variants.
	if bb.Loads != ba.Loads {
		t.Fatalf("loads differ: BB %d, BA %d", bb.Loads, ba.Loads)
	}
	// Setup: V init stores + 2 root stores for both.
	if rBB.Setup.Stores != V+2 || rBA.Setup.Stores != V+2 {
		t.Fatalf("setup stores BB=%d BA=%d, want %d", rBB.Setup.Stores, rBA.Setup.Stores, V+2)
	}
}

// TestStoreBlowupRatio pins the paper's §6.3 headline on a dense mesh:
// branch-avoiding BFS stores ≈ (A/V)× more than branch-based.
func TestStoreBlowupRatio(t *testing.T) {
	g := gen.Grid3D(7, 7, 7, 1)
	rBB := BFSBranchBased(machine(), g, 0)
	rBA := BFSBranchAvoiding(machine(), g, 0)
	ratio := float64(rBA.PerLevel.Total().Stores) / float64(rBB.PerLevel.Total().Stores)
	if ratio < 8 {
		t.Fatalf("store ratio %.1f, want ≈ A/V ≈ %.1f", ratio, float64(g.NumArcs())/float64(g.NumVertices()))
	}
}

// TestSVMispredictShape verifies the paper's central SV observation: the
// branch-based kernel mispredicts far more in early passes than in late
// passes, while the branch-avoiding kernel is nearly flat at the loop
// floor.
func TestSVMispredictShape(t *testing.T) {
	g := gen.Community(8, 25, 0.4, 60, 13)
	rBB := SVBranchBased(machine(), g)
	rBA := SVBranchAvoiding(machine(), g)

	if rBB.Iterations < 3 {
		t.Skipf("graph converged too fast (%d passes) for shape check", rBB.Iterations)
	}
	first := rBB.PerIter[0].Mispredicts
	last := rBB.PerIter[rBB.Iterations-1].Mispredicts
	if first <= last {
		t.Fatalf("BB mispredicts did not decay: first %d, last %d", first, last)
	}
	// BA mispredictions come only from loop-exit branches: at most
	// ~(V + 2) per pass plus slack for the outer tests.
	V := uint64(g.NumVertices())
	for i, c := range rBA.PerIter {
		if c.Mispredicts > V+8 {
			t.Fatalf("BA pass %d mispredicts = %d, above loop floor %d", i, c.Mispredicts, V+8)
		}
	}
	// Aggregate: BB must mispredict strictly more than BA.
	if rBB.PerIter.Total().Mispredicts <= rBA.PerIter.Total().Mispredicts {
		t.Fatal("branch-based SV did not mispredict more than branch-avoiding")
	}
}

// TestBFSMispredictShape: branch-avoiding BFS eliminates the if-branch
// misses; branch-based sits between |V| and ~3|V| total (§5.1).
func TestBFSMispredictShape(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 21)
	rBB := BFSBranchBased(machine(), g, 0)
	rBA := BFSBranchAvoiding(machine(), g, 0)
	if rBB.PerLevel.Total().Mispredicts <= rBA.PerLevel.Total().Mispredicts {
		t.Fatal("branch-based BFS did not mispredict more than branch-avoiding")
	}
}

// TestEmptyGraphs ensures the instrumented kernels handle degenerate
// inputs.
func TestEmptyGraphs(t *testing.T) {
	empty := graph.MustBuild(0, nil, graph.Options{})
	rBB := SVBranchBased(machine(), empty)
	if rBB.Iterations != 1 { // one pass over zero vertices, then exit
		t.Fatalf("empty SV iterations = %d", rBB.Iterations)
	}
	b := BFSBranchBased(machine(), empty, 0)
	if b.Levels != 0 || len(b.Dist) != 0 {
		t.Fatal("empty BFS mishandled")
	}
	ba := BFSBranchAvoiding(machine(), empty, 0)
	if ba.Levels != 0 {
		t.Fatal("empty BA BFS mishandled")
	}
}

// TestTotalsIncludeSetup checks Total() composition.
func TestTotalsIncludeSetup(t *testing.T) {
	g := gen.Path(20)
	r := SVBranchAvoiding(machine(), g)
	tot := r.Total()
	if tot.Stores != r.Setup.Stores+r.PerIter.Total().Stores {
		t.Fatal("SVResult.Total does not include setup")
	}
	b := BFSBranchAvoiding(machine(), g, 0)
	if b.Total().Stores != b.Setup.Stores+b.PerLevel.Total().Stores {
		t.Fatal("BFSResult.Total does not include setup")
	}
}

// TestDeterminism: identical machines produce identical event streams.
func TestDeterminism(t *testing.T) {
	g := gen.GNM(100, 250, 3)
	a := SVBranchBased(machine(), g)
	b := SVBranchBased(machine(), g)
	if len(a.PerIter) != len(b.PerIter) {
		t.Fatal("pass counts differ between identical runs")
	}
	for i := range a.PerIter {
		if a.PerIter[i] != b.PerIter[i] {
			t.Fatalf("pass %d counters differ between identical runs", i)
		}
	}
}
