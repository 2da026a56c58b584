package bagraph

// Weighted graphs and the shortest-path algorithm selector: the first
// of the algorithm families the paper's §1 predicts its findings extend
// to. (Betweenness centrality and APSP, the other two, are reproduced as
// exhibits — see RunExperiment("extensions").)

import (
	"fmt"

	"bagraph/internal/graph"
	"bagraph/internal/sssp"
)

// WeightedGraph is an immutable CSR graph with non-negative per-edge
// weights. Construct with NewWeightedGraph.
type WeightedGraph = graph.Weighted

// WeightedEdge is an edge with a non-negative 32-bit weight.
type WeightedEdge = graph.WeightedEdge

// InfDistance marks unreachable vertices in weighted shortest-path
// results.
const InfDistance = sssp.Inf

// NewWeightedGraph builds an undirected weighted graph; parallel edges
// collapse to the minimum weight and self-loops are dropped.
func NewWeightedGraph(n int, edges []WeightedEdge) (*WeightedGraph, error) {
	return graph.BuildWeighted(n, edges, "")
}

// AttachWeights derives a weighted view of g, assigning every arc the
// weight weight(u, v). The view shares g's CSR arrays; weight must be
// symmetric (an asymmetric one is an error) and positive for the SSSP
// kernels. Use
// it to run weighted kernels over graphs loaded from unweighted formats
// (METIS, the corpus) — e.g. unit weights: AttachWeights(g, func(u, v
// uint32) uint32 { return 1 }).
func AttachWeights(g *Graph, weight func(u, v uint32) uint32) (*WeightedGraph, error) {
	return graph.AttachWeights(g, weight)
}

// SSSPAlgorithm selects a single-source shortest-path kernel.
type SSSPAlgorithm int

// Shortest-path kernels.
const (
	// SSSPBellmanFord is the pull-style branch-based Bellman-Ford — the
	// weighted analogue of the paper's Algorithm 2. In the parallel
	// kernel it selects the branch-based relaxation loop.
	SSSPBellmanFord SSSPAlgorithm = iota
	// SSSPBellmanFordBranchAvoiding relaxes with conditional moves — the
	// weighted analogue of Algorithm 3. In the parallel kernel it
	// selects the branch-avoiding relaxation loop.
	SSSPBellmanFordBranchAvoiding
	// SSSPDijkstra is the classical heap-based baseline. It has no
	// parallel form.
	SSSPDijkstra
	// SSSPHybrid relaxes branch-avoidingly while the relaxation branch
	// is unpredictable and switches to the branch-based loop once
	// improvements become rare (the paper's §6.2 crossover). It exists
	// only in the parallel kernel.
	SSSPHybrid
)

// String implements fmt.Stringer.
func (a SSSPAlgorithm) String() string {
	switch a {
	case SSSPBellmanFord:
		return "bellman-ford"
	case SSSPBellmanFordBranchAvoiding:
		return "bellman-ford-branch-avoiding"
	case SSSPDijkstra:
		return "dijkstra"
	case SSSPHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("SSSPAlgorithm(%d)", int(a))
	}
}

// checkSource validates an SSSP source vertex against the graph. On a
// 0-vertex graph every source is out of range — no vertex exists for
// the traversal to start from.
func checkSource(g *WeightedGraph, src uint32) error {
	if int(src) >= g.NumVertices() {
		return fmt.Errorf("bagraph: source %d out of range for %d vertices", src, g.NumVertices())
	}
	return nil
}
