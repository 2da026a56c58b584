// Package sssp implements single-source shortest paths with
// branch-avoiding variants — the extension the paper's §1 anticipates
// ("the findings of our paper can in principle be extended to ...
// All-Pairs Shortest-Paths" and the shortest-path algorithm family).
//
// Bellman-Ford in its pull formulation is the weighted analogue of
// Shiloach-Vishkin: every pass, each vertex takes the minimum of
// d[u] + w(u, v) over its neighbors, and the algorithm stops when a pass
// changes nothing. The comparison in the inner loop is exactly SV's
// data-dependent branch, so the same conditional-move transformation
// applies — and, as in SV, it leaves the loop branches as the only
// branches and makes the store count exactly |V| per pass.
//
// Dijkstra (indexed binary heap, heap.go) is included as the classical
// baseline and as an independent oracle for cross-validation.
package sssp

import (
	"context"
	"fmt"
	"time"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/perfcount"
)

// Inf marks unreachable vertices. It is 2^62, within the safe range of
// the 64-bit branchless comparisons.
const Inf = uint64(1) << 62

// initDist initializes the distance array for a run from src in buf,
// reused by capacity (core.Fit).
func initDist(buf []uint64, n int, src uint32) []uint64 {
	dist := core.Fit(buf, n)
	for i := range dist {
		dist[i] = Inf
	}
	if int(src) < n {
		dist[src] = 0
	}
	return dist
}

// BellmanFord computes shortest-path distances from src with the
// pull-style Bellman-Ford sweep and the relaxation loop variant selects
// (BranchBased or BranchAvoiding; Hybrid exists only in Parallel and
// runs branch-based here). The branch-based relaxation test is a
// conditional branch, taken whenever a neighbor offers a shorter path;
// the branch-avoiding form feeds the relaxation into a 64-bit mask
// select, writes the register-accumulated distance back exactly once per
// vertex per pass, and maintains the change flag with XOR/OR arithmetic
// — the weighted twins of the paper's Algorithms 2 and 3.
//
// The result is written into dist, reused by capacity (core.Fit); the
// returned slice aliases its memory when it was large enough. The context is observed
// between sweeps (never in the relaxation loop, which stays exactly the
// paper's operation mix), and a cancelled run returns the tentative
// distances computed so far alongside ctx's error.
func BellmanFord(ctx context.Context, g *graph.Weighted, src uint32, variant core.Variant, dist []uint64) ([]uint64, perfcount.Stats, error) {
	n := g.NumVertices()
	dist = initDist(dist, n, src)
	var st perfcount.Stats
	adj := g.Adjacency()
	ws := g.ArcWeights()
	offs := g.Offsets()

	for change := true; change; {
		if err := ctx.Err(); err != nil {
			return dist, st, err
		}
		change = false
		changed := 0
		start := time.Now()
		if variant == core.BranchAvoiding {
			var diffAccum uint64
			//ba:branch-free
			for v := 0; v < n; v++ {
				dinit := dist[v]
				dv := dinit
				for j := offs[v]; j < offs[v+1]; j++ {
					u := adj[j]
					cand := dist[u] + uint64(ws[j])
					m := core.MaskLess64(cand, dv)
					dv = core.Select64(m, cand, dv)
				}
				dist[v] = dv
				st.DistStores++
				diff := dv ^ dinit
				diffAccum |= diff
				changed += int(core.Bit64(^core.MaskEqual64(diff, 0)))
			}
			change = diffAccum != 0
		} else {
			for v := 0; v < n; v++ {
				dv := dist[v]
				dv0 := dv
				for j := offs[v]; j < offs[v+1]; j++ {
					u := adj[j]
					cand := dist[u] + uint64(ws[j])
					if cand < dv {
						dv = cand
						dist[v] = cand
						st.DistStores++
						change = true
					}
				}
				if dv != dv0 {
					changed++
				}
			}
		}
		st.PassDurations = append(st.PassDurations, time.Since(start))
		st.PassChanges = append(st.PassChanges, changed)
		st.Passes++
	}
	return dist, st, nil
}

// Dijkstra computes shortest-path distances with a binary-heap priority
// queue in fresh memory — the oracle the Bellman-Ford kernels are
// validated against.
func Dijkstra(g *graph.Weighted, src uint32) []uint64 {
	dist, _ := DijkstraCtx(context.Background(), g, src, nil, new(Scratch))
	return dist
}

// dijkstraCancelStride is how many settled vertices pass between
// context checks in DijkstraCtx. Dijkstra has no pass structure to
// hang a barrier on, so the check runs on a vertex-count stride —
// rare enough to stay invisible in the settle loop's profile.
const dijkstraCancelStride = 4096

// DijkstraCtx is Dijkstra writing into dist, reused by capacity
// (core.Fit), with its heap in s, and with cooperative cancellation
// observed every dijkstraCancelStride settled vertices. An out-of-range
// source reaches nothing: every distance is Inf, as in BellmanFord and
// Parallel.
//
// A vertex enters the heap at most once (decrease-key), so every pop
// settles a new vertex, and a settled vertex needs no flag: its
// distance is at most the popped one, which no non-negative arc can
// improve on, so the relaxation test skips it.
func DijkstraCtx(ctx context.Context, g *graph.Weighted, src uint32, dist []uint64, s *Scratch) ([]uint64, error) {
	n := g.NumVertices()
	dist = initDist(dist, n, src)
	if int(src) >= n {
		return dist, ctx.Err()
	}
	h := &s.heap
	h.reset(n)
	h.pushOrDecrease(src, 0)
	for settles := 0; len(h.ids) > 0; settles++ {
		if settles%dijkstraCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return dist, err
			}
		}
		v, dv := h.pop()
		adj, ws := g.NeighborWeights(v)
		for i, u := range adj {
			cand := dv + uint64(ws[i])
			if cand < dist[u] {
				dist[u] = cand
				h.pushOrDecrease(u, cand)
			}
		}
	}
	return dist, nil
}

// Verify checks that dist is the shortest-path distance labeling from
// src: the source is 0, every edge is "relaxed" (no edge offers a
// shortcut), and every vertex with a finite distance is reached from
// src over tight arcs (arcs u→v with dist[u]+w == dist[v]), so each
// finite distance is the length of a real path. Checking only for a
// tight incoming arc per vertex is not enough: a zero-weight island
// whose vertices certify each other would pass it.
func Verify(g *graph.Weighted, src uint32, dist []uint64) error {
	n := g.NumVertices()
	if len(dist) != n {
		return fmt.Errorf("sssp: %d distances for %d vertices", len(dist), n)
	}
	if n == 0 {
		return nil
	}
	if dist[src] != 0 {
		return fmt.Errorf("sssp: dist[src=%d] = %d", src, dist[src])
	}
	for v := 0; v < n; v++ {
		adj, ws := g.NeighborWeights(uint32(v))
		for i, u := range adj {
			if dist[u] == Inf {
				continue
			}
			if dist[u]+uint64(ws[i]) < dist[v] {
				return fmt.Errorf("sssp: edge (%d,%d,w=%d) not relaxed: %d + %d < %d",
					u, v, ws[i], dist[u], ws[i], dist[v])
			}
		}
	}
	reached := make([]bool, n)
	reached[src] = true
	queue := []uint32{src}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		adj, ws := g.NeighborWeights(u)
		for i, v := range adj {
			if !reached[v] && dist[u]+uint64(ws[i]) == dist[v] {
				reached[v] = true
				queue = append(queue, v)
			}
		}
	}
	for v := 0; v < n; v++ {
		if dist[v] != Inf && !reached[v] {
			return fmt.Errorf("sssp: vertex %d at distance %d has no tight predecessor on a path from src", v, dist[v])
		}
	}
	return nil
}
