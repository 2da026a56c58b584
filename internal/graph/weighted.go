package graph

// Weighted graphs for the shortest-path extensions. Weights are carried
// in a flat array aligned with the CSR adjacency array, so weighted
// kernels keep the same memory behaviour as the unweighted ones plus one
// extra load per edge.

import (
	"cmp"
	"fmt"
	"slices"
)

// WeightedEdge is an edge with a non-negative 32-bit weight.
type WeightedEdge struct {
	U, V uint32
	W    uint32
}

// Weighted is an immutable CSR graph with per-arc weights. It embeds
// *Graph, so all structural queries apply.
type Weighted struct {
	*Graph
	weights []uint32 // aligned with Adjacency()
}

// ArcWeights exposes the per-arc weight array, aligned with Adjacency().
// Shared storage; do not modify.
func (g *Weighted) ArcWeights() []uint32 { return g.weights }

// NeighborWeights returns v's adjacency list and the matching weights.
func (g *Weighted) NeighborWeights(v uint32) ([]uint32, []uint32) {
	offs := g.Offsets()
	return g.Adjacency()[offs[v]:offs[v+1]], g.weights[offs[v]:offs[v+1]]
}

// BuildWeighted constructs a weighted CSR graph. Each edge contributes
// both arcs with the same weight. Parallel edges collapse to the minimum
// weight (the only sensible choice for shortest-path kernels); self-loops
// are dropped. n must be in [0, MaxVertices].
func BuildWeighted(n int, edges []WeightedEdge, name string) (*Weighted, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	// Place the arcs by source (a counting sort), then order each list
	// by (target, weight): the order one sort of all arcs by (source,
	// target, weight) gives, for the price of sorting the short lists.
	offs := make([]int64, n+1)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for n=%d", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	type warc struct {
		v, w uint32
	}
	arcs := make([]warc, offs[n])
	next := slices.Clone(offs[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		arcs[next[e.U]] = warc{e.V, e.W}
		next[e.U]++
		arcs[next[e.V]] = warc{e.U, e.W}
		next[e.V]++
	}
	byTarget := func(a, b warc) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	}
	// Dedup each list in place keeping the minimum weight (first after
	// the sort); offs[v] moves to the list's compacted start once its
	// old value has been read.
	kept := int64(0)
	for v := 0; v < n; v++ {
		list := arcs[offs[v]:offs[v+1]]
		slices.SortFunc(list, byTarget)
		offs[v] = kept
		for _, a := range list {
			if kept > offs[v] && arcs[kept-1].v == a.v {
				continue
			}
			arcs[kept] = a
			kept++
		}
	}
	offs[n] = kept

	g := &Graph{
		offs: offs,
		adj:  make([]uint32, kept),
		name: name,
	}
	weights := make([]uint32, kept)
	for i, a := range arcs[:kept] {
		g.adj[i] = a.v
		weights[i] = a.w
	}
	return &Weighted{Graph: g, weights: weights}, nil
}

// MustBuildWeighted is BuildWeighted that panics on error.
func MustBuildWeighted(n int, edges []WeightedEdge, name string) *Weighted {
	g, err := BuildWeighted(n, edges, name)
	if err != nil {
		panic(err)
	}
	return g
}

// AttachWeights wraps an existing graph with per-arc weights produced by
// fn(u, v). fn must be symmetric (fn(u,v) == fn(v,u)) so both arcs of
// an edge carry the same weight; an asymmetric fn is an error.
func AttachWeights(g *Graph, fn func(u, v uint32) uint32) (*Weighted, error) {
	weights := make([]uint32, g.NumArcs())
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		offs := g.Offsets()
		for j := offs[u]; j < offs[u+1]; j++ {
			weights[j] = fn(uint32(u), g.Adjacency()[j])
		}
	}
	w := &Weighted{Graph: g, weights: weights}
	for u := 0; u < n; u++ {
		adj, ws := w.NeighborWeights(uint32(u))
		for i, v := range adj {
			if fn(v, uint32(u)) != ws[i] {
				return nil, fmt.Errorf("graph: asymmetric weight for edge (%d,%d)", u, v)
			}
		}
	}
	return w, nil
}
