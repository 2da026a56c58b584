package graph

// Layout permutation. Permute is a pure CSR rewrite: the permuted graph
// has exactly the arcs of the original — self-loops and parallel arcs
// included — just stored under new vertex ids. The layout pass relies on
// this so relabeled kernel results can be byte-identical to unrelabeled
// ones on every corpus graph, including the multigraph adversaries.

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// checkPerm verifies perm is a permutation of [0, n).
func checkPerm(perm []uint32, n int) error {
	if len(perm) != n {
		return fmt.Errorf("graph: perm has %d entries, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return errors.New("graph: perm is not a permutation")
		}
		seen[p] = true
	}
	return nil
}

// Permute returns a new graph in which vertex v of the receiver becomes
// perm[v], preserving arc multiplicity exactly. Neighbor lists of the
// result are sorted ascending, maintaining the CSR invariant HasEdge
// depends on.
func (g *Graph) Permute(perm []uint32) (*Graph, error) {
	n := g.NumVertices()
	if err := checkPerm(perm, n); err != nil {
		return nil, err
	}
	offs := make([]int64, n+1)
	for old := 0; old < n; old++ {
		offs[perm[old]+1] = int64(g.Degree(uint32(old)))
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	adj := make([]uint32, g.NumArcs())
	for old := 0; old < n; old++ {
		nb := g.Neighbors(uint32(old))
		lo := offs[perm[old]]
		dst := adj[lo : lo+int64(len(nb))]
		for i, w := range nb {
			dst[i] = perm[w]
		}
		slices.Sort(dst)
	}
	return &Graph{offs: offs, adj: adj, name: g.name}, nil
}

// Permute returns a new weighted graph in which vertex v becomes
// perm[v]; arcs keep their weights. Shadows (*Graph).Permute so weighted
// callers cannot accidentally drop the weight array.
func (g *Weighted) Permute(perm []uint32) (*Weighted, error) {
	n := g.NumVertices()
	if err := checkPerm(perm, n); err != nil {
		return nil, err
	}
	offs := make([]int64, n+1)
	for old := 0; old < n; old++ {
		offs[perm[old]+1] = int64(g.Degree(uint32(old)))
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	adj := make([]uint32, g.NumArcs())
	weights := make([]uint32, g.NumArcs())
	for old := 0; old < n; old++ {
		nb, ws := g.NeighborWeights(uint32(old))
		lo := offs[perm[old]]
		dstA := adj[lo : lo+int64(len(nb))]
		dstW := weights[lo : lo+int64(len(nb))]
		for i, w := range nb {
			dstA[i] = perm[w]
			dstW[i] = ws[i]
		}
		// Sort the (neighbor, weight) pairs together; ties on neighbor
		// keep the lighter arc first for determinism.
		sort.Sort(&arcWeightSort{dstA, dstW})
	}
	pg := &Graph{offs: offs, adj: adj, name: g.Name()}
	return &Weighted{Graph: pg, weights: weights}, nil
}

type arcWeightSort struct {
	adj, w []uint32
}

func (s *arcWeightSort) Len() int { return len(s.adj) }
func (s *arcWeightSort) Less(i, j int) bool {
	if s.adj[i] != s.adj[j] {
		return s.adj[i] < s.adj[j]
	}
	return s.w[i] < s.w[j]
}
func (s *arcWeightSort) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}
