package bfs

import (
	"context"
	"testing"
	"testing/quick"

	"bagraph/internal/core"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/perfcount"
)

type kernel struct {
	name string
	run  func(*graph.Graph, uint32) ([]uint32, perfcount.Stats)
}

// topDownBA is the branch-avoiding TopDown to completion.
func topDownBA(g *graph.Graph, root uint32) ([]uint32, perfcount.Stats) {
	dist, st, _ := TopDown(context.Background(), g, root, core.BranchAvoiding, nil, new(Scratch))
	return dist, st
}

func kernels() []kernel {
	return []kernel{
		{"branch-based", TopDownBranchBased},
		{"branch-avoiding", topDownBA},
		{"direction-optimizing", func(g *graph.Graph, r uint32) ([]uint32, perfcount.Stats) {
			dist, st, _ := DirectionOptimizing(context.Background(), g, r, 0, 0, nil, new(Scratch))
			return dist, st
		}},
	}
}

func referenceDistances(g *graph.Graph, root uint32) []uint32 {
	n := g.NumVertices()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[root] = 0
	q := []uint32{root}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] == Inf {
				dist[w] = dist[v] + 1
				q = append(q, w)
			}
		}
	}
	return dist
}

func TestKernelsAgreeOnStructuredGraphs(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(60),
		gen.Cycle(31),
		gen.Star(100),
		gen.Complete(15),
		gen.Grid2D(9, 14, true),
		gen.Grid3D(4, 5, 6, 1),
		gen.Disconnected(gen.Path(8), 3),
	}
	for _, g := range graphs {
		want := referenceDistances(g, 0)
		for _, k := range kernels() {
			got, st := k.run(g, 0)
			if err := Verify(g, 0, got); err != nil {
				t.Fatalf("%s on %s: %v", k.name, g, err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s on %s: dist[%d] = %d, want %d", k.name, g, v, got[v], want[v])
				}
			}
			reached := 0
			for _, d := range want {
				if d != Inf {
					reached++
				}
			}
			if st.Reached != reached {
				t.Fatalf("%s on %s: Reached = %d, want %d", k.name, g, st.Reached, reached)
			}
		}
	}
}

func TestKernelsAgreeOnRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		n := 30 + int(seed%150)
		g := gen.GNM(n, 2*int64(n), seed)
		root := uint32(seed % uint64(n))
		want := referenceDistances(g, root)
		for _, k := range kernels() {
			got, _ := k.run(g, root)
			for v := range want {
				if got[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLevelAccounting(t *testing.T) {
	g := gen.Path(10)
	for _, k := range kernels() {
		_, st := k.run(g, 0)
		if st.Passes != 10 {
			t.Fatalf("%s: levels = %d, want 10 on path10", k.name, st.Passes)
		}
		for i, s := range st.LevelSizes {
			if s != 1 {
				t.Fatalf("%s: level %d size %d, want 1", k.name, i, s)
			}
		}
		if len(st.PassDurations) != st.Passes {
			t.Fatalf("%s: duration samples %d != levels %d", k.name, len(st.PassDurations), st.Passes)
		}
		if st.Total() < 0 {
			t.Fatalf("%s: negative total duration", k.name)
		}
	}
}

func TestLevelSizesOnStar(t *testing.T) {
	g := gen.Star(50)
	_, st := TopDownBranchBased(g, 0)
	if st.Passes != 2 || st.LevelSizes[0] != 1 || st.LevelSizes[1] != 49 {
		t.Fatalf("star levels: %+v", st.LevelSizes)
	}
	// From a leaf: 3 levels (leaf, center, other leaves).
	_, st2 := topDownBA(g, 7)
	if st2.Passes != 3 || st2.LevelSizes[2] != 48 {
		t.Fatalf("star-from-leaf levels: %+v", st2.LevelSizes)
	}
}

// TestStoreBlowup pins the paper's core BFS observation: the
// branch-avoiding kernel performs O(|E|) stores where the branch-based
// kernel performs O(|V|).
func TestStoreBlowup(t *testing.T) {
	g := gen.Grid3D(8, 8, 8, 1) // dense stencil: arcs/V ≈ 20
	_, bb := TopDownBranchBased(g, 0)
	_, ba := topDownBA(g, 0)

	v := uint64(g.NumVertices())
	arcs := uint64(g.NumArcs())

	// Branch-based: exactly one dist store and one queue store per
	// reached vertex.
	if bb.DistStores != v || bb.QueueStores != v {
		t.Fatalf("BB stores = %d/%d, want %d/%d", bb.DistStores, bb.QueueStores, v, v)
	}
	// Branch-avoiding: one of each per traversed edge (arc), plus the root.
	if ba.DistStores != arcs+1 || ba.QueueStores != arcs+1 {
		t.Fatalf("BA stores = %d/%d, want %d/%d", ba.DistStores, ba.QueueStores, arcs+1, arcs+1)
	}
	ratio := float64(ba.DistStores) / float64(bb.DistStores)
	if ratio < 10 {
		t.Fatalf("store blow-up ratio %.1f too small for a dense mesh", ratio)
	}
}

func TestDisconnectedReachesOnlyComponent(t *testing.T) {
	g := gen.Disconnected(gen.Cycle(10), 2)
	for _, k := range kernels() {
		dist, st := k.run(g, 3)
		if st.Reached != 10 {
			t.Fatalf("%s: reached %d, want 10", k.name, st.Reached)
		}
		for v := 10; v < 20; v++ {
			if dist[v] != Inf {
				t.Fatalf("%s: other component reached", k.name)
			}
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := graph.MustBuild(0, nil, graph.Options{})
	for _, k := range kernels() {
		dist, st := k.run(empty, 0)
		if len(dist) != 0 || st.Passes != 0 {
			t.Fatalf("%s: empty graph handled wrong", k.name)
		}
	}
	single := graph.MustBuild(1, nil, graph.Options{})
	for _, k := range kernels() {
		dist, st := k.run(single, 0)
		if dist[0] != 0 || st.Reached != 1 || st.Passes != 1 {
			t.Fatalf("%s: singleton handled wrong: %v %+v", k.name, dist, st)
		}
	}
}

func TestDirectionOptimizingUsesBottomUp(t *testing.T) {
	// On a complete graph the second frontier is the whole graph: with
	// aggressive thresholds the kernel must switch to bottom-up and still
	// be correct. (alpha=1, beta=n forces the check to pass on volume.)
	g := gen.Complete(60)
	dist, _, _ := DirectionOptimizing(context.Background(), g, 0, 1, 1<<30, nil, new(Scratch))
	want := referenceDistances(g, 0)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("bottom-up distances wrong at %d", v)
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	g := gen.Grid2D(5, 5, false)
	dist, _ := TopDownBranchBased(g, 0)
	if err := Verify(g, 0, dist); err != nil {
		t.Fatalf("valid distances rejected: %v", err)
	}

	cases := []func([]uint32){
		func(d []uint32) { d[0] = 5 },          // root not zero
		func(d []uint32) { d[24] = Inf },       // reached marked unreached
		func(d []uint32) { d[24] = 100 },       // level jump
		func(d []uint32) { d[12] = d[12] + 1 }, // orphan level (no parent)
	}
	for i, corrupt := range cases {
		bad := make([]uint32, len(dist))
		copy(bad, dist)
		corrupt(bad)
		if err := Verify(g, 0, bad); err == nil {
			t.Errorf("corruption %d not caught", i)
		}
	}
	if err := Verify(g, 0, dist[:3]); err == nil {
		t.Error("wrong length not caught")
	}

	// Edge 0-1 plus isolated vertex 2: a second vertex at level 0 and
	// an out-of-range root are errors, not a pass or a panic.
	small := graph.MustBuild(3, []graph.Edge{{U: 0, V: 1}}, graph.Options{})
	if err := Verify(small, 0, []uint32{0, 1, Inf}); err != nil {
		t.Fatalf("valid distances rejected: %v", err)
	}
	for _, bad := range [][]uint32{{0, 0, Inf}, {0, 1, 0}} {
		if err := Verify(small, 0, bad); err == nil {
			t.Errorf("%v: non-root vertex at level 0 not caught", bad)
		}
	}
	if err := Verify(small, 7, []uint32{0, 1, Inf}); err == nil {
		t.Error("out-of-range root not caught")
	}
}

// TestBranchAvoidingQueueSlack ensures the unconditional tail write never
// overruns the queue, even when every vertex is enqueued (worst case).
func TestBranchAvoidingQueueSlack(t *testing.T) {
	f := func(seed uint64) bool {
		n := 10 + int(seed%100)
		g := gen.BarabasiAlbert(n, 2, seed)
		dist, _ := topDownBA(g, uint32(seed%uint64(n)))
		return Verify(g, uint32(seed%uint64(n)), dist) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
