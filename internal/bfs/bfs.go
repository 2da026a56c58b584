// Package bfs implements breadth-first-search kernels: the classical
// top-down algorithm in branch-based (the paper's Algorithm 4) and
// branch-avoiding (Algorithm 5) forms, plus a direction-optimizing
// variant (Beamer et al., the paper's reference [8]) as an extension
// baseline.
//
// One correction to the paper's Algorithm 5 pseudocode, documented because
// it affects semantics but not the operation mix: the printed CMP compares
// the neighbor's distance with d[v]. Taken literally that re-enqueues
// neighbors already discovered in the *next* frontier (their distance
// d[v]+1 is also greater than d[v]), duplicating queue entries. The
// accompanying text is unambiguous — "the first [conditional move] will
// conditionally move the distance to the vertex if it is found for the
// first time", and the queue grows only "if an element is new" — so the
// comparison must be against next_level = d[v]+1: a vertex is new exactly
// when its current distance exceeds next_level (i.e. it is ∞). The kernel
// below compares against next_level and keeps the paper's per-edge
// operation mix: one load, one compare, two conditional operations, two
// stores.
package bfs

import (
	"context"
	"fmt"
	"time"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/perfcount"
)

// Inf is the distance assigned to unreached vertices.
const Inf = ^uint32(0)

// TopDownBranchBased runs the classical top-down BFS (Algorithm 4) from
// root to completion in fresh memory — the reference oracle the other
// kernels are validated against.
func TopDownBranchBased(g *graph.Graph, root uint32) ([]uint32, perfcount.Stats) {
	dist, st, _ := TopDown(context.Background(), g, root, core.BranchBased, nil, new(Scratch))
	return dist, st
}

// TopDown runs top-down BFS from root with the per-edge loop variant
// selects and returns the distance array. The branch-based loop stores
// one distance and one queue slot per reached vertex; the
// branch-avoiding loop unconditionally writes the neighbor to the queue
// slot at the tail and writes the neighbor's distance back for every
// traversed edge, with conditional moves selecting the new distance and
// advancing the tail only when the neighbor was undiscovered — stores
// grow from O(|V|) to O(|E|). Top-down BFS has no hybrid loop:
// core.Hybrid runs branch-based.
//
// The distances are written into dist and the queue into s's level
// queue, both reused by capacity (core.Fit); the returned slice aliases
// dist's memory when it was large enough.
//
// The context is observed between levels (never in the per-edge loop,
// preserving the paper's operation mix), and a cancelled run returns the
// distances computed so far alongside ctx's error.
func TopDown(ctx context.Context, g *graph.Graph, root uint32, variant core.Variant, dist []uint32, s *Scratch) ([]uint32, perfcount.Stats, error) {
	n := g.NumVertices()
	dist = core.Fit(dist, n)
	for i := range dist {
		dist[i] = Inf
	}
	var st perfcount.Stats
	if n == 0 {
		return dist, st, ctx.Err()
	}
	// The queue is |V| slots, since every vertex enters it at most once,
	// plus one: the branch-avoiding loop stores each neighbor at
	// buf[tail] before deciding whether to keep it (§5.2), and that
	// store must land even once all |V| vertices are queued.
	buf := core.Fit(s.queue, n+1)
	s.queue = buf
	dist[root] = 0
	st.DistStores++
	buf[0] = root
	st.QueueStores++

	adj := g.Adjacency()
	offs := g.Offsets()
	head, tail := 0, 1
	// Per-level accounting: the queue is level-ordered, so levels are
	// contiguous [head, levelEnd) windows.
	for head < tail {
		if err := ctx.Err(); err != nil {
			st.Reached = tail
			return dist, st, err
		}
		levelEnd := tail
		start := time.Now()
		if variant == core.BranchAvoiding {
			tail = levelBranchAvoiding(adj, offs, buf, dist, head, levelEnd, &st)
		} else {
			tail = levelBranchBased(adj, offs, buf, dist, head, levelEnd, &st)
		}
		st.PassDurations = append(st.PassDurations, time.Since(start))
		st.LevelSizes = append(st.LevelSizes, levelEnd-head)
		st.Passes++
		st.TopDownLevels++
		head = levelEnd
	}
	st.Reached = tail
	return dist, st, nil
}

// levelBranchBased expands the queue window buf[head:levelEnd] with the
// branch-based per-edge loop, appending discoveries from buf[levelEnd]
// on, and returns the new tail. The two level bodies are separate,
// never-inlined functions, not arms of one loop in TopDown, because in a
// shared frame the register allocator spills the queue tail once per
// edge (measured: 6-7 % on the branch-avoiding loop, 5-10 % on this one).
// SV and Bellman-Ford carry no such index through their inner loops and
// keep both pass bodies as arms of one loop.
//
//go:noinline
func levelBranchBased(adj []uint32, offs []int64, buf, dist []uint32, head, levelEnd int, st *perfcount.Stats) int {
	tail := levelEnd
	for head < levelEnd {
		v := buf[head]
		head++
		next := dist[v] + 1
		for _, w := range adj[offs[v]:offs[v+1]] {
			if dist[w] == Inf {
				dist[w] = next
				st.DistStores++
				buf[tail] = w
				st.QueueStores++
				tail++
			}
		}
	}
	return tail
}

// levelBranchAvoiding is levelBranchBased with the branch-avoiding
// per-edge loop: buf must have one slot of slack past the last vertex
// for the unconditional tail store.
//
//go:noinline
func levelBranchAvoiding(adj []uint32, offs []int64, buf, dist []uint32, head, levelEnd int, st *perfcount.Stats) int {
	tail := levelEnd
	for head < levelEnd {
		v := buf[head]
		head++
		next := dist[v] + 1
		//ba:branch-free
		for _, w := range adj[offs[v]:offs[v+1]] {
			temp := dist[w]
			// Unconditional store "outside" the queue; overwritten if
			// w is not new (§5.2).
			buf[tail] = w
			st.QueueStores++
			// isNew = all-ones iff temp > next, i.e. w undiscovered.
			isNew := core.MaskGreater32(temp, next)
			temp = core.Select32(isNew, next, temp)
			tail += core.Bit(isNew)
			dist[w] = temp
			st.DistStores++
		}
	}
	return tail
}

// DirectionOptimizing runs Beamer-style direction-optimizing BFS: top-down
// while the frontier is small, switching to bottom-up sweeps when the
// frontier's edge volume crosses |E|/alpha, and back when the frontier
// shrinks below |V|/beta (alpha, beta <= 0 mean the defaults 15 and 18).
// This is the modern baseline the paper cites as [8]; it is included as
// an extension to position the branch-avoiding variants against, and for
// validating the top-down kernels at scale. dist and s are used as in
// TopDown: s's level queue holds both frontiers. The context is
// observed between levels (see TopDown).
func DirectionOptimizing(ctx context.Context, g *graph.Graph, root uint32, alpha, beta int, dist []uint32, s *Scratch) ([]uint32, perfcount.Stats, error) {
	if alpha <= 0 {
		alpha = defaultAlpha
	}
	if beta <= 0 {
		beta = defaultBeta
	}
	n := g.NumVertices()
	dist = core.Fit(dist, n)
	for i := range dist {
		dist[i] = Inf
	}
	var st perfcount.Stats
	if n == 0 {
		return dist, st, ctx.Err()
	}
	// Each frontier holds at most |V| vertices: two capped halves of one
	// buffer, so the appends below never leave it.
	s.queue = core.Fit(s.queue, 2*n)
	frontier := s.queue[:0:n]
	nextFrontier := s.queue[n : n : 2*n]
	dist[root] = 0
	st.DistStores++
	frontier = append(frontier, root)
	st.QueueStores++
	level := uint32(0)
	arcs := g.NumArcs()
	adj := g.Adjacency()
	offs := g.Offsets()

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return dist, st, err
		}
		start := time.Now()
		st.LevelSizes = append(st.LevelSizes, len(frontier))
		st.Reached += len(frontier)

		// Frontier edge volume decides the direction.
		var volume int64
		for _, v := range frontier {
			volume += int64(offs[v+1] - offs[v])
		}
		nextFrontier = nextFrontier[:0]
		if volume > arcs/int64(alpha) && len(frontier) > n/beta {
			st.BottomUpLevels++
			// Bottom-up: every undiscovered vertex scans its neighbors
			// for a parent in the frontier.
			for v := 0; v < n; v++ {
				if dist[v] != Inf {
					continue
				}
				for _, w := range adj[offs[v]:offs[v+1]] {
					if dist[w] == level {
						dist[v] = level + 1
						st.DistStores++
						nextFrontier = append(nextFrontier, uint32(v))
						st.QueueStores++
						break
					}
				}
			}
		} else {
			st.TopDownLevels++
			for _, v := range frontier {
				for _, w := range adj[offs[v]:offs[v+1]] {
					if dist[w] == Inf {
						dist[w] = level + 1
						st.DistStores++
						nextFrontier = append(nextFrontier, w)
						st.QueueStores++
					}
				}
			}
		}
		frontier, nextFrontier = nextFrontier, frontier
		level++
		st.Passes++
		st.PassDurations = append(st.PassDurations, time.Since(start))
	}
	return dist, st, nil
}

// Verify checks that dist is a valid BFS distance labeling of g from
// root: root is a vertex of g, d[root]=0 and no other vertex is at 0,
// unreached vertices are Inf, every edge spans at most one level, and
// every reached non-root vertex has a neighbor exactly one level closer.
func Verify(g *graph.Graph, root uint32, dist []uint32) error {
	n := g.NumVertices()
	if len(dist) != n {
		return fmt.Errorf("bfs: %d distances for %d vertices", len(dist), n)
	}
	if int64(root) >= int64(n) {
		return fmt.Errorf("bfs: root %d out of range for %d vertices", root, n)
	}
	if dist[root] != 0 {
		return fmt.Errorf("bfs: dist[root=%d] = %d", root, dist[root])
	}
	for u := 0; u < n; u++ {
		du := dist[u]
		for _, v := range g.Neighbors(uint32(u)) {
			dv := dist[v]
			if du == Inf && dv == Inf {
				continue
			}
			if du == Inf || dv == Inf {
				return fmt.Errorf("bfs: edge (%d,%d) spans reached/unreached", u, v)
			}
			diff := int64(du) - int64(dv)
			if diff < -1 || diff > 1 {
				return fmt.Errorf("bfs: edge (%d,%d) spans levels %d and %d", u, v, du, dv)
			}
		}
	}
	for v := 0; v < n; v++ {
		if dist[v] == Inf || uint32(v) == root {
			continue
		}
		if dist[v] == 0 {
			return fmt.Errorf("bfs: vertex %d at level 0 is not the root %d", v, root)
		}
		hasParent := false
		for _, w := range g.Neighbors(uint32(v)) {
			if dist[w] == dist[v]-1 {
				hasParent = true
				break
			}
		}
		if !hasParent {
			return fmt.Errorf("bfs: vertex %d at level %d has no parent", v, dist[v])
		}
	}
	return nil
}
