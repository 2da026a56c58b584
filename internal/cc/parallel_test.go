package cc

import (
	"fmt"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/testutil"
)

func TestSVParallelMatchesSequential(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *graph.Graph) {
		ref, _ := SVBranchBased(g)
		for _, workers := range testutil.WorkerCounts {
			x := testutil.Exec(t, workers, par.Static)
			for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
				name := fmt.Sprintf("%s/w%d", variant, workers)
				labels, st, _ := SVParallel(x, g, variant, nil, nil, new(bfs.Scratch))
				testutil.MustEqualLabels(t, name, labels, ref)
				if g.NumVertices() > 0 {
					if err := Verify(g, labels); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if st.Passes == 0 {
						t.Fatalf("%s: no passes recorded", name)
					}
					if propagationPasses(st) > 0 && st.PassChanges[len(st.PassChanges)-1] != 0 {
						t.Fatalf("%s: final pass still changed labels", name)
					}
				}
			}
		}
	})
}

// propagationPasses is the number of label-propagation passes a
// non-empty SVParallel run dispatched: every pass that is neither a seed
// BFS level nor the fill.
func propagationPasses(st perfcount.Stats) int {
	return st.Passes - st.TopDownLevels - st.BottomUpLevels - 1
}

// TestSVParallelSeedEdgeCases pins the seed on the shapes where picking
// it or stopping after it could go wrong: no vertex to seed, no edge to
// break a degree tie, self-loops, tied hubs in different components, and
// a hub that is neither vertex 0 nor its component's minimum id.
func TestSVParallelSeedEdgeCases(t *testing.T) {
	keep := graph.Options{KeepSelfLoops: true, KeepParallelEdges: true}
	// Two components tied on maximum degree (3): the star around 2 has
	// four vertices, the one around 6 five, so Reached tells which seeded.
	tied := graph.MustBuild(9, []graph.Edge{
		{U: 2, V: 0}, {U: 2, V: 1}, {U: 2, V: 3},
		{U: 6, V: 4}, {U: 6, V: 5}, {U: 6, V: 7}, {U: 7, V: 8},
	}, keep)
	// Four 40-vertex paths; the last gains a hub at 140 joined to the
	// first ten vertices of its copy (min id 120).
	copies := gen.Disconnected(gen.Path(40), 4)
	edges := copies.EdgeList()
	for j := uint32(120); j < 130; j++ {
		edges = append(edges, graph.Edge{U: 140, V: j})
	}
	lastHub := graph.MustBuild(copies.NumVertices(), edges, graph.Options{})

	cases := []struct {
		name string
		g    *graph.Graph
		seed uint32 // the vertex that must seed (ignored when empty)
	}{
		{"empty", graph.MustBuild(0, nil, keep), 0},
		{"one vertex", graph.MustBuild(1, nil, keep), 0},
		{"all isolated", graph.MustBuild(6, nil, keep), 0},
		{"self-loop only", graph.MustBuild(4, []graph.Edge{{U: 1, V: 1}, {U: 2, V: 3}}, keep), 1},
		{"tied hubs", tied, 2},
		{"hub in last copy", lastHub, 140},
	}
	for _, c := range cases {
		n := c.g.NumVertices()
		want := UnionFind(c.g)
		reached, components := 0, CountComponents(want)
		for v := range want {
			if n > 0 && want[v] == want[c.seed] {
				reached++
			}
		}
		for _, workers := range testutil.WorkerCounts {
			for _, sched := range []par.Schedule{par.Static, par.Stealing} {
				x := testutil.Exec(t, workers, sched)
				for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
					name := fmt.Sprintf("%s/%s/w%d/%s", c.name, variant, workers, sched)
					labels, st, err := SVParallel(x, c.g, variant, nil, nil, new(bfs.Scratch))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					testutil.MustEqualLabels(t, name, labels, want)
					if st.Reached != reached {
						t.Fatalf("%s: Reached = %d, want the seed component's %d", name, st.Reached, reached)
					}
					if n == 0 {
						if st.Passes != 0 || st.LabelStores != 0 {
							t.Fatalf("%s: empty graph ran %d passes, %d label stores", name, st.Passes, st.LabelStores)
						}
						continue
					}
					prop := propagationPasses(st)
					if got, want := st.LabelStores, uint64(n*(1+prop)); got != want {
						t.Fatalf("%s: LabelStores = %d, want |V| x (1 + %d propagation passes) = %d", name, got, prop, want)
					}
					if components == 1 && prop != 0 {
						t.Fatalf("%s: connected graph ran %d propagation passes", name, prop)
					}
					if components > 1 && prop == 0 {
						t.Fatalf("%s: %d components but no propagation pass", name, components)
					}
					if len(st.PassChanges) != st.Passes || len(st.PassDurations) != st.Passes {
						t.Fatalf("%s: %d changes, %d durations for %d passes",
							name, len(st.PassChanges), len(st.PassDurations), st.Passes)
					}
				}
			}
		}
	}
}

func TestSVParallelSharedPool(t *testing.T) {
	x := testutil.Exec(t, 4, par.Static)
	g := gen.RMAT(10, 8, gen.DefaultRMAT, 7)
	ref, _ := SVBranchBased(g)
	// Reuse one pool across runs; the kernel must not close it.
	for run := 0; run < 3; run++ {
		labels, _, _ := SVParallel(x, g, core.Hybrid, nil, nil, new(bfs.Scratch))
		for v := range labels {
			if labels[v] != ref[v] {
				t.Fatalf("run %d: vertex %d labeled %d, want %d", run, v, labels[v], ref[v])
			}
		}
	}
}

// TestVariantString pins the single core.Variant the SV kernels take.
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

func TestTalliesMatchParallelLabels(t *testing.T) {
	g := gen.Disconnected(gen.GNM(400, 700, 9), 3)
	labels, _, _ := SVParallel(testutil.Exec(t, 4, par.Static), g, core.BranchAvoiding, nil, nil, new(bfs.Scratch))
	want := make(map[uint32]int)
	for _, l := range labels {
		want[l]++
	}
	if got := CountComponents(labels); got != len(want) {
		t.Fatalf("CountComponents = %d, want %d", got, len(want))
	}
	sizes := ComponentSizes(labels)
	if len(sizes) != len(want) {
		t.Fatalf("ComponentSizes has %d entries, want %d", len(sizes), len(want))
	}
	for l, s := range want {
		if sizes[l] != s {
			t.Errorf("component %d: size %d, want %d", l, sizes[l], s)
		}
	}
}
