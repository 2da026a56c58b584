// Package relabel computes vertex-relabeling permutations that improve
// the memory layout of CSR graphs without changing their structure.
//
// The flagship ordering is DegreeOrder: hub clustering. Sorting vertices
// by descending degree packs the high-degree hubs — the vertices most
// likely to sit on any frontier — into the lowest vertex ids, which (a)
// concentrates frontier/visited bits into the low words of the kernels'
// vertex sets, so their word sweeps find more words empty or saturated
// and skip them, and (b) clusters the hottest adjacency rows at the
// front of the CSR arrays where they share pages and cache lines.
//
// Permutations use the perm[old] = new convention throughout, matching
// (*graph.Graph).Permute. Inverse flips one into inv[new] = old so
// results computed in the permuted id space can be written back out
// under original ids.
package relabel

import (
	"sort"

	"bagraph/internal/graph"
	"bagraph/internal/xrand"
)

// DegreeOrder returns the hub-clustering permutation for g: vertices
// sorted by descending degree, ties broken by ascending original id so
// the ordering is deterministic. perm[old] = new.
func DegreeOrder(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	order := make([]uint32, n)
	for v := range order {
		order[v] = uint32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	perm := make([]uint32, n)
	for nid, oid := range order {
		perm[oid] = uint32(nid)
	}
	return perm
}

// Identity returns the identity permutation of [0, n).
func Identity(n int) []uint32 {
	perm := make([]uint32, n)
	for v := range perm {
		perm[v] = uint32(v)
	}
	return perm
}

// Inverse returns the inverse of perm: inv[perm[old]] = old. perm must
// be a permutation of [0, len(perm)); a malformed one panics via the
// index check rather than corrupting silently.
func Inverse(perm []uint32) []uint32 {
	inv := make([]uint32, len(perm))
	for oid, nid := range perm {
		inv[nid] = uint32(oid)
	}
	return inv
}

// Shuffle returns a uniformly random permutation of [0, n) drawn
// deterministically from seed — the adversarial layout bagen -shuffle
// uses so benchmarks do not inherit generator-order locality for free.
func Shuffle(n int, seed uint64) []uint32 {
	p := xrand.New(seed).Perm(n)
	perm := make([]uint32, n)
	for i, v := range p {
		perm[i] = uint32(v)
	}
	return perm
}

// Apply permutes g by perm, preserving arc multiplicity.
func Apply(g *graph.Graph, perm []uint32) (*graph.Graph, error) {
	return g.Permute(perm)
}

// ApplyWeighted permutes w by perm, carrying arc weights along.
func ApplyWeighted(w *graph.Weighted, perm []uint32) (*graph.Weighted, error) {
	return w.Permute(perm)
}
