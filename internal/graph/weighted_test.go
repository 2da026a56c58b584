package graph

import (
	"testing"

	"bagraph/internal/xrand"
)

func TestBuildWeightedBasics(t *testing.T) {
	g := MustBuildWeighted(3, []WeightedEdge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 7}}, "w3")
	if g.NumVertices() != 3 || g.NumArcs() != 4 {
		t.Fatalf("V=%d arcs=%d", g.NumVertices(), g.NumArcs())
	}
	adj, w := g.NeighborWeights(1)
	if len(adj) != 2 || len(w) != 2 {
		t.Fatalf("neighbor weights: %v %v", adj, w)
	}
	// Sorted adjacency: 0 then 2.
	if adj[0] != 0 || w[0] != 5 || adj[1] != 2 || w[1] != 7 {
		t.Fatalf("weights misaligned: %v %v", adj, w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildWeightedSymmetricWeights(t *testing.T) {
	g := MustBuildWeighted(4, []WeightedEdge{{U: 2, V: 0, W: 9}}, "")
	a1, w1 := g.NeighborWeights(0)
	a2, w2 := g.NeighborWeights(2)
	if a1[0] != 2 || a2[0] != 0 || w1[0] != 9 || w2[0] != 9 {
		t.Fatal("reverse arc weight differs")
	}
}

func TestBuildWeightedParallelKeepsMin(t *testing.T) {
	g := MustBuildWeighted(2, []WeightedEdge{{U: 0, V: 1, W: 9}, {U: 0, V: 1, W: 3}, {U: 1, V: 0, W: 5}}, "")
	_, w := g.NeighborWeights(0)
	if len(w) != 1 || w[0] != 3 {
		t.Fatalf("parallel edges: weights %v, want [3]", w)
	}
}

func TestBuildWeightedErrors(t *testing.T) {
	if _, err := BuildWeighted(2, []WeightedEdge{{U: 0, V: 5, W: 1}}, ""); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := BuildWeighted(-1, nil, ""); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestBuildWeightedDropsSelfLoops(t *testing.T) {
	g := MustBuildWeighted(2, []WeightedEdge{{U: 0, V: 0, W: 1}, {U: 0, V: 1, W: 2}}, "")
	if g.NumArcs() != 2 {
		t.Fatalf("arcs = %d", g.NumArcs())
	}
}

func TestAttachWeights(t *testing.T) {
	g := MustBuild(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, Options{})
	// Symmetric function: weight = u + v.
	w, err := AttachWeights(g, func(u, v uint32) uint32 { return u + v })
	if err != nil {
		t.Fatal(err)
	}
	_, ws := w.NeighborWeights(1)
	if ws[0] != 1 || ws[1] != 3 {
		t.Fatalf("attached weights wrong: %v", ws)
	}
	// An asymmetric function must be rejected.
	if _, err := AttachWeights(g, func(u, v uint32) uint32 { return u }); err == nil {
		t.Fatal("asymmetric weights accepted")
	}
}

func TestAttachWeightsRandomSymmetric(t *testing.T) {
	g := MustBuild(30, randomEdges(30, 60, 3), Options{})
	// Hash of the unordered pair: symmetric by construction.
	w, err := AttachWeights(g, func(u, v uint32) uint32 {
		if u > v {
			u, v = v, u
		}
		return uint32(xrand.Hash64(uint64(u)<<32|uint64(v)))%100 + 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(w.ArcWeights())) != g.NumArcs() {
		t.Fatal("weight array misaligned")
	}
}

func randomEdges(n, m int, seed uint64) []Edge {
	r := xrand.New(seed)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))})
	}
	return edges
}
