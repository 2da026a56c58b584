// Package apsp implements all-pairs shortest paths for unweighted graphs
// via repeated BFS with a selectable kernel — the APSP extension the
// paper's §1 mentions ("All-Pairs Shortest-Paths (APSP) [24, 48]"; the
// references are Floyd and Warshall, and FloydWarshall here serves as the
// cross-validation oracle).
//
// For sparse graphs, |V| breadth-first searches beat the O(|V|³) dynamic
// program asymptotically, and each search is exactly one of the paper's
// kernels — so the branch-based/branch-avoiding trade-off transfers
// unchanged, amplified |V| times.
package apsp

import (
	"context"
	"fmt"

	"bagraph/internal/bfs"
	"bagraph/internal/core"
	"bagraph/internal/graph"
)

// Inf marks unreachable pairs.
const Inf = bfs.Inf

func run(g *graph.Graph, root uint32, v core.Variant) []uint32 {
	dist, _, _ := bfs.TopDown(context.Background(), g, root, v, nil, new(bfs.Scratch))
	return dist
}

// Result summarizes the distance structure of a graph.
type Result struct {
	// Ecc[v] is v's eccentricity within its component (0 for isolated
	// vertices).
	Ecc []uint32
	// Diameter is the maximum finite distance; Radius the minimum
	// eccentricity over non-isolated vertices (0 if none).
	Diameter uint32
	Radius   uint32
	// ReachablePairs counts ordered pairs (u, v), u ≠ v, with finite
	// distance; MeanDistance averages over them (0 if none).
	ReachablePairs int64
	MeanDistance   float64
}

// Summary runs a BFS from every vertex and aggregates eccentricities,
// diameter, radius and mean distance. O(|V|·(|V|+|E|)).
func Summary(g *graph.Graph, v core.Variant) Result {
	n := g.NumVertices()
	res := Result{Ecc: make([]uint32, n)}
	var sum uint64
	radiusSet := false
	for s := 0; s < n; s++ {
		dist := run(g, uint32(s), v)
		var ecc uint32
		for t, d := range dist {
			if d == Inf || t == s {
				continue
			}
			if d > ecc {
				ecc = d
			}
			sum += uint64(d)
			res.ReachablePairs++
		}
		res.Ecc[s] = ecc
		if ecc > res.Diameter {
			res.Diameter = ecc
		}
		if ecc > 0 && (!radiusSet || ecc < res.Radius) {
			res.Radius = ecc
			radiusSet = true
		}
	}
	if res.ReachablePairs > 0 {
		res.MeanDistance = float64(sum) / float64(res.ReachablePairs)
	}
	return res
}

// AllDistances materializes the full |V|×|V| distance matrix. Intended
// for small graphs (tests, exact diameter checks); memory is O(|V|²).
func AllDistances(g *graph.Graph, v core.Variant) [][]uint32 {
	n := g.NumVertices()
	out := make([][]uint32, n)
	for s := 0; s < n; s++ {
		out[s] = run(g, uint32(s), v)
	}
	return out
}

// FloydWarshall computes the distance matrix with the classical O(|V|³)
// dynamic program — the paper's APSP references [24, 48] — used as an
// independent oracle.
func FloydWarshall(g *graph.Graph) [][]uint32 {
	n := g.NumVertices()
	d := make([][]uint32, n)
	for i := range d {
		d[i] = make([]uint32, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = Inf
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, w := range g.Neighbors(uint32(u)) {
			d[u][w] = 1
		}
	}
	for k := 0; k < n; k++ {
		dk := d[k]
		for i := 0; i < n; i++ {
			dik := d[i][k]
			if dik == Inf {
				continue
			}
			di := d[i]
			for j := 0; j < n; j++ {
				if dk[j] == Inf {
					continue
				}
				if cand := dik + dk[j]; cand < di[j] {
					di[j] = cand
				}
			}
		}
	}
	return d
}

// VerifyMatrix checks a distance matrix against the Floyd-Warshall
// oracle.
func VerifyMatrix(g *graph.Graph, got [][]uint32) error {
	want := FloydWarshall(g)
	if len(got) != len(want) {
		return fmt.Errorf("apsp: %d rows for %d vertices", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("apsp: row %d has %d entries", i, len(got[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("apsp: d[%d][%d] = %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}
