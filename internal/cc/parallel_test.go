package cc

import (
	"fmt"
	"testing"

	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/testutil"
)

func TestSVParallelMatchesSequential(t *testing.T) {
	testutil.ForEachGraph(t, nil, func(t *testing.T, g *graph.Graph) {
		ref, _ := SVBranchBased(g)
		for _, variant := range []Variant{BranchBased, BranchAvoiding, Hybrid} {
			for _, workers := range testutil.WorkerCounts {
				name := fmt.Sprintf("%s/w%d", variant, workers)
				labels, st, _ := SVParallel(g, ParallelOptions{Workers: workers, Variant: variant})
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
	pool := par.NewPool(4)
	defer pool.Close()
	g := gen.RMAT(10, 8, gen.DefaultRMAT, 7)
	ref, _ := SVBranchBased(g)
	// Reuse one pool across runs; the kernel must not close it.
	for run := 0; run < 3; run++ {
		labels, _, _ := SVParallel(g, ParallelOptions{Pool: pool, Variant: Hybrid})
		for v := range labels {
			if labels[v] != ref[v] {
				t.Fatalf("run %d: vertex %d labeled %d, want %d", run, v, labels[v], ref[v])
			}
		}
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		BranchBased: "branch-based", BranchAvoiding: "branch-avoiding",
		Hybrid: "hybrid", Variant(42): "unknown",
	} {
		if got := v.String(); got != want {
			t.Errorf("Variant(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestTalliesMatchParallelLabels(t *testing.T) {
	g := gen.Disconnected(gen.GNM(400, 700, 9), 3)
	labels, _, _ := SVParallel(g, ParallelOptions{Workers: 4, Variant: BranchAvoiding})
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
