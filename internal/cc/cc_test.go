package cc

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/perfcount"
	"bagraph/internal/testutil"
)

// run is SV to completion.
func run(g *graph.Graph, variant core.Variant) ([]uint32, perfcount.Stats) {
	labels, st, _ := SV(context.Background(), g, variant, nil)
	return labels, st
}

// hybridAt is the Hybrid kernel with its switch threshold overridden:
// math.Inf(1) forces the crossover at the first pass barrier.
func hybridAt(g *graph.Graph, threshold float64) ([]uint32, perfcount.Stats) {
	labels, st, _ := sv(context.Background(), g, core.Hybrid, threshold, nil)
	return labels, st
}

// allVariants runs every CC implementation on g and checks they agree on
// the canonical min-id labeling.
func allVariants(t *testing.T, g *graph.Graph) []uint32 {
	t.Helper()
	bb, stBB := SVBranchBased(g)
	ba, stBA := run(g, core.BranchAvoiding)
	hyAuto, _ := run(g, core.Hybrid)
	hyForced, _ := hybridAt(g, math.Inf(1))
	uf := UnionFind(g)
	ref := ViaBFS(g)

	for name, labels := range map[string][]uint32{
		"sv-branch-based": bb, "sv-branch-avoiding": ba,
		"sv-hybrid-auto": hyAuto, "sv-hybrid-forced": hyForced,
		"union-find": uf,
	} {
		if err := Verify(g, labels); err != nil {
			t.Fatalf("%s on %s: %v", name, g, err)
		}
		for v := range ref {
			if labels[v] != ref[v] {
				t.Fatalf("%s on %s: vertex %d labeled %d, want %d", name, g, v, labels[v], ref[v])
			}
		}
	}
	if stBB.Passes < 1 || stBA.Passes < 1 {
		t.Fatal("SV reported zero iterations")
	}
	// Both SV variants make identical label-propagation passes, so the
	// pass counts must agree.
	if stBB.Passes != stBA.Passes {
		t.Fatalf("iteration counts differ: BB=%d BA=%d", stBB.Passes, stBA.Passes)
	}
	return ref
}

func TestAgreementOnStructuredGraphs(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(50),
		gen.Cycle(64),
		gen.Star(100),
		gen.Complete(20),
		gen.Grid2D(12, 17, false),
		gen.Grid3D(5, 6, 7, 1),
		gen.Disconnected(gen.Cycle(9), 5),
		graph.MustBuild(7, nil, graph.Options{Name: "isolated7"}),
	}
	for _, g := range graphs {
		allVariants(t, g)
	}
}

func TestAgreementOnRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		n := 20 + int(seed%200)
		g := gen.GNM(n, int64(n), seed) // sparse: many components
		labels := allVariants(t, g)
		return len(labels) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComponentCountsKnown(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want int
	}{
		{gen.Path(10), 1},
		{gen.Disconnected(gen.Path(4), 6), 6},
		{graph.MustBuild(5, nil, graph.Options{}), 5},
		{gen.Complete(8), 1},
	}
	for _, c := range cases {
		labels, _ := run(c.g, core.BranchAvoiding)
		if got := CountComponents(labels); got != c.want {
			t.Errorf("%s: components = %d, want %d", c.g, got, c.want)
		}
	}
}

func TestComponentSizes(t *testing.T) {
	g := gen.Disconnected(gen.Cycle(5), 3)
	labels, _ := SVBranchBased(g)
	sizes := ComponentSizes(labels)
	if len(sizes) != 3 {
		t.Fatalf("got %d components", len(sizes))
	}
	for l, s := range sizes {
		if s != 5 {
			t.Errorf("component %d size %d, want 5", l, s)
		}
	}
}

func TestLabelsAreMinIDs(t *testing.T) {
	// Component {0,1,2} and {3,4}: labels must be 0 and 3.
	g := graph.MustBuild(5, []graph.Edge{{U: 2, V: 1}, {U: 1, V: 0}, {U: 4, V: 3}}, graph.Options{})
	labels, _ := run(g, core.BranchAvoiding)
	want := []uint32{0, 0, 0, 3, 3}
	for v, w := range want {
		if labels[v] != w {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestIterationsBoundedByDiameter(t *testing.T) {
	// Label propagation converges in at most diameter+1 passes plus the
	// final no-change pass.
	g := gen.Path(100)
	_, st := SVBranchBased(g)
	d := g.PseudoDiameter()
	if st.Passes > d+2 {
		t.Fatalf("iterations = %d for diameter %d", st.Passes, d)
	}
	// The in-place sweep propagates labels in ascending order, so the
	// descending-id path still needs many passes — ensure it is not
	// trivially 1 (guards against accidentally computing min globally).
	rev := gen.Cycle(101)
	_, st2 := SVBranchBased(rev)
	if st2.Passes < 2 {
		t.Fatalf("cycle converged suspiciously fast: %d passes", st2.Passes)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := gen.Grid2D(10, 10, false)
	_, bb := SVBranchBased(g)
	_, ba := run(g, core.BranchAvoiding)
	n := uint64(g.NumVertices())

	// BA stores once per vertex per pass, exactly.
	if want := n * uint64(ba.Passes); ba.LabelStores != want {
		t.Fatalf("BA stores = %d, want %d", ba.LabelStores, want)
	}
	// BB stores only on improvements; final pass stores nothing.
	if bb.LabelStores == 0 || bb.LabelStores >= n*uint64(bb.Passes)*4 {
		t.Fatalf("BB stores = %d out of plausible range", bb.LabelStores)
	}
	if len(bb.PassDurations) != bb.Passes || len(bb.PassChanges) != bb.Passes {
		t.Fatal("stats slices inconsistent with iteration count")
	}
	// Last pass observes convergence: zero changes.
	if bb.PassChanges[bb.Passes-1] != 0 {
		t.Fatalf("final pass changed %d labels", bb.PassChanges[bb.Passes-1])
	}
	if bb.Total() <= 0 {
		t.Fatal("total duration not positive")
	}
}

func TestIterChangesAgreeBetweenVariants(t *testing.T) {
	g := gen.Community(6, 20, 0.4, 30, 11)
	_, bb := SVBranchBased(g)
	_, ba := run(g, core.BranchAvoiding)
	if len(bb.PassChanges) != len(ba.PassChanges) {
		t.Fatalf("pass counts differ: %d vs %d", len(bb.PassChanges), len(ba.PassChanges))
	}
	for i := range bb.PassChanges {
		if bb.PassChanges[i] != ba.PassChanges[i] {
			t.Fatalf("pass %d: BB changed %d, BA changed %d", i, bb.PassChanges[i], ba.PassChanges[i])
		}
	}
}

func TestHybridSwitchesAndMatches(t *testing.T) {
	g := gen.Grid2D(20, 20, false)
	labels, st := hybridAt(g, 0.5)
	if err := Verify(g, labels); err != nil {
		t.Fatal(err)
	}
	ref, refSt := SVBranchBased(g)
	for v := range ref {
		if labels[v] != ref[v] {
			t.Fatal("hybrid labels differ from reference")
		}
	}
	if st.Passes != refSt.Passes {
		t.Fatalf("hybrid iterations %d != %d", st.Passes, refSt.Passes)
	}
}

func TestHybridForcedAtZeroIsBranchBased(t *testing.T) {
	// A hybrid forced to switch at the first barrier runs exactly one
	// branch-avoiding pass (|V| stores) and is the branch-based kernel
	// from pass 1 on. Both loops produce the same labels each pass, so
	// the store count is |V| plus branch-based's stores after its own
	// first pass — which a run cancelled at the second barrier isolates.
	g := gen.Community(4, 15, 0.5, 10, 3)
	labels, st := hybridAt(g, math.Inf(1))
	if err := Verify(g, labels); err != nil {
		t.Fatal(err)
	}
	_, bb := SVBranchBased(g)
	_, bbFirst, err := SV(testutil.CancelAfter(1), g, core.BranchBased, nil)
	if err == nil || bbFirst.Passes != 1 {
		t.Fatalf("first-pass probe: passes=%d err=%v", bbFirst.Passes, err)
	}
	want := uint64(g.NumVertices()) + bb.LabelStores - bbFirst.LabelStores
	if st.LabelStores != want {
		t.Fatalf("forced hybrid stores %d, want %d (|V| + branch-based after pass 0)", st.LabelStores, want)
	}
	if st.Passes != bb.Passes {
		t.Fatalf("forced hybrid passes %d != branch-based %d", st.Passes, bb.Passes)
	}
}

func TestVerifyCatchesBadLabelings(t *testing.T) {
	g := gen.Path(6)
	good, _ := SVBranchBased(g)
	if err := Verify(g, good); err != nil {
		t.Fatalf("good labels rejected: %v", err)
	}
	bad := make([]uint32, len(good))
	copy(bad, good)
	bad[3] = 99
	if err := Verify(g, bad); err == nil {
		t.Fatal("edge-spanning mismatch not caught")
	}
	// Consistent but non-canonical labeling (all vertices share label 1).
	uniform := []uint32{1, 1, 1, 1, 1, 1}
	if err := Verify(g, uniform); err == nil {
		t.Fatal("non-canonical labeling not caught")
	}
	if err := Verify(g, good[:3]); err == nil {
		t.Fatal("wrong length not caught")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.MustBuild(0, nil, graph.Options{})
	labels, st := SVBranchBased(g)
	if len(labels) != 0 || st.Passes != 1 {
		t.Fatalf("empty graph: labels=%v iterations=%d", labels, st.Passes)
	}
	labels2, _ := run(g, core.BranchAvoiding)
	if len(labels2) != 0 {
		t.Fatal("empty graph BA labels non-empty")
	}
}

func TestSingleVertex(t *testing.T) {
	g := graph.MustBuild(1, nil, graph.Options{})
	for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
		labels, _ := run(g, variant)
		if len(labels) != 1 || labels[0] != 0 {
			t.Fatalf("single vertex labels = %v", labels)
		}
	}
}
