package cc

import (
	"fmt"
	"testing"

	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/testutil"
)

func TestSVParallelMatchesSequential(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *graph.Graph) {
		ref, _ := SVBranchBased(g)
		for _, workers := range testutil.WorkerCounts {
			x := testutil.Exec(t, workers, par.Static)
			for _, variant := range []core.Variant{core.BranchBased, core.BranchAvoiding, core.Hybrid} {
				name := fmt.Sprintf("%s/w%d", variant, workers)
				labels, st, _ := SVParallel(x, g, ParallelOptions{Variant: variant})
				testutil.MustEqualLabels(t, name, labels, ref)
				if g.NumVertices() > 0 {
					if err := Verify(g, labels); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if st.Passes == 0 {
						t.Fatalf("%s: no passes recorded", name)
					}
					if st.PassChanges[len(st.PassChanges)-1] != 0 {
						t.Fatalf("%s: final pass still changed labels", name)
					}
				}
			}
		}
	})
}

func TestSVParallelSharedPool(t *testing.T) {
	x := testutil.Exec(t, 4, par.Static)
	g := gen.RMAT(10, 8, gen.DefaultRMAT, 7)
	ref, _ := SVBranchBased(g)
	// Reuse one pool across runs; the kernel must not close it.
	for run := 0; run < 3; run++ {
		labels, _, _ := SVParallel(x, g, ParallelOptions{Variant: core.Hybrid})
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
	labels, _, _ := SVParallel(testutil.Exec(t, 4, par.Static), g, ParallelOptions{Variant: core.BranchAvoiding})
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
