package bfs

// Batch-aware multi-source BFS on the internal/par engine.
//
// The serving layer batches concurrent BFS queries against one graph;
// running each source as an independent traversal re-reads the whole
// adjacency structure k times. MultiSource instead runs up to 64
// sources through ONE shared bottom-up sweep per level (the MS-BFS idea
// of Then et al., VLDB 2014): each vertex carries a 64-bit mask of
// which searches have reached it, and one pass over the graph advances
// every search simultaneously —
//
//	next[v] = (OR of frontier[u] over v's neighbors) &^ seen[v]
//
// The per-edge operation is a single OR: the frontier-membership test
// that is an unpredictable branch in scalar BFS (the paper's §5
// measurement) does not merely become a conditional move here — it
// vanishes into the mask arithmetic entirely, which makes the shared
// sweep the logical endpoint of the branch-avoiding transformation.
//
// Parallelization follows the bottom-up half of ParallelDO: workers own
// degree-balanced vertex ranges and write only seen[v] / next[v] /
// dist[·][v] for their own vertices, reading the previous level's
// frontier masks immutably — no atomics, the level barrier is the only
// synchronization. Sweeps walk the set bits of plain "active" words
// (vertices not yet seen by every search in the wave) instead of
// visiting all |V| masks: once a vertex saturates, the owning worker
// clears its bit (ranges are 64-aligned, so each word has one writer)
// and later levels skip whole words of saturated vertices. Batches
// larger than 64 sources run in ceil(k/64) waves over reused mask
// arrays.

import (
	"math/bits"
	"time"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
)

// msWave is the number of sources one shared sweep carries: the width
// of the per-vertex search mask.
const msWave = 64

// msWorker accumulates one worker's contribution to a level sweep.
type msWorker struct {
	advanced     uint64 // OR of all newly-set masks: zero means the wave ended
	reached      int
	distStores   uint64
	wordsScanned uint64 // non-empty active words swept
}

// MultiSource runs BFS from every root through shared bottom-up mask
// sweeps and returns one distance array per root, each identical to
// what the sequential kernels produce for that root. Roots must be in
// range (the facade and the daemon validate); duplicate roots are
// allowed and produce identical arrays. The distances are written into
// dists — its slices and the slice of slices reused by capacity
// (core.Fit), the returned ones aliasing them — and the masks and
// active words into s's word sets. Both schedules produce
// byte-identical distances. A cancelled x.Ctx is observed before the
// next shared level sweep and returned as the error, alongside the
// distances computed so far.
func MultiSource(x par.Exec, g *graph.Graph, roots []uint32, dists [][]uint32, s *Scratch) ([][]uint32, perfcount.Stats, error) {
	n := g.NumVertices()
	k := len(roots)
	dists = core.Fit(dists, k)
	for i := range dists {
		dists[i] = core.Fit(dists[i], n)
		for v := range dists[i] {
			dists[i][v] = Inf
		}
	}
	var st perfcount.Stats
	if n == 0 || k == 0 {
		return dists, st, nil
	}
	nw := x.Pool.Workers()
	adj := g.Adjacency()
	offs := g.Offsets()
	// 64-aligned chunks: each worker owns whole active words, making
	// the saturation clears below race-free.
	vchunks := par.Partition(offs, par.ChunkCount(nw, x.Schedule), 64)
	acc := make([]msWorker, nw)

	// active holds, bit v of word v/64, the vertices some search in the
	// wave has not yet reached (seen[v] != waveFull). It only shrinks
	// within a wave and is refilled for the next one.
	nwords := (n + 63) / 64
	s.words = core.Fit(s.words, 3*n+nwords)
	seen, frontier, next, active := s.words[:n], s.words[n:2*n], s.words[2*n:3*n], s.words[3*n:]

	for lo := 0; lo < k; lo += msWave {
		hi := lo + msWave
		if hi > k {
			hi = k
		}
		wave := roots[lo:hi]
		waveFull := ^uint64(0)
		if width := hi - lo; width < msWave {
			waveFull = 1<<uint(width) - 1
		}
		st.Waves++
		clear(seen)
		clear(frontier)
		for i := range active {
			active[i] = ^uint64(0)
		}
		if n%64 != 0 {
			// No bits past vertex n-1: the sweep would index seen[n].
			active[nwords-1] = 1<<uint(n%64) - 1
		}
		for i, r := range wave {
			bit := uint64(1) << uint(i)
			seen[r] |= bit
			frontier[r] |= bit
			dists[lo+i][r] = 0
			st.DistStores++
			st.Reached++
		}

		for level := uint32(1); ; level++ {
			start := time.Now()
			// Skipped (saturated) vertices no longer write next[v], so the
			// swapped-in array must read zero for them.
			clear(next)
			// Workers own whole active words (64-aligned chunks), so the
			// sweep is atomic-free.
			//ba:atomic-free
			err := x.Pass(&st, vchunks, func(t int, r par.Range) {
				a := &acc[t]
				for i := r.Lo / 64; i < (r.Hi+63)/64; i++ {
					word := active[i]
					if word == 0 {
						continue
					}
					a.wordsScanned++
					base := i * 64
					left := word
					for w := word; w != 0; w &= w - 1 {
						b := bits.TrailingZeros64(w)
						v := base + b
						sv := seen[v]
						acquired := uint64(0)
						//ba:branch-free
						for _, u := range adj[offs[v]:offs[v+1]] {
							acquired |= frontier[u]
						}
						fresh := acquired &^ sv
						next[v] = fresh
						sv |= fresh
						seen[v] = sv
						if sv == waveFull {
							left &^= 1 << uint(b)
						}
						if fresh != 0 {
							a.advanced |= fresh
							dv := level
							//ba:branch-free
							for m := fresh; m != 0; m &= m - 1 {
								src := bits.TrailingZeros64(m)
								dists[lo+src][v] = dv
								a.distStores++
								a.reached++
							}
						}
					}
					active[i] = left
				}
			})
			if err != nil {
				return dists, st, err
			}
			advanced := uint64(0)
			for t := range acc {
				advanced |= acc[t].advanced
				st.Reached += acc[t].reached
				st.DistStores += acc[t].distStores
				st.WordsScanned += acc[t].wordsScanned
				acc[t] = msWorker{}
			}
			frontier, next = next, frontier
			st.Passes++
			st.PassDurations = append(st.PassDurations, time.Since(start))
			if advanced == 0 {
				break
			}
		}
	}
	return dists, st, nil
}
