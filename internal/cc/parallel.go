package cc

// Parallel Shiloach-Vishkin label propagation on the internal/par engine.
//
// The sequential kernels in cc.go propagate labels Gauss-Seidel style: a
// label improved early in a pass is visible to later vertices of the same
// pass. That in-pass dependency is what a parallel sweep must give up, so
// SVParallel iterates Jacobi style over two label arrays: every worker
// reads the previous pass's labels (immutable during the pass) and writes
// only the labels of its own vertex range in the next array; the arrays
// swap at the pass barrier. Reads and writes therefore never touch the
// same array and no per-element atomic is needed — the pass barrier is
// the only synchronization. Jacobi iteration may need more passes than
// Gauss-Seidel (label information moves one hop per pass instead of
// rippling within a pass), but it converges to the identical fixed point:
// labels only decrease, and a labeling is stable exactly when both
// endpoints of every edge agree, which forces the canonical component
// minimum.
//
// One consequence is shared by all three inner-loop variants: because the
// write array is two passes stale, every vertex's label is stored
// unconditionally each pass, so LabelStores is Passes × |V| even for
// the branch-based loop (whose *comparisons* still branch — the property
// the paper measures).

import (
	"time"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
)

// ParallelOptions configures SVParallel.
type ParallelOptions struct {
	// Variant selects the inner loop (default core.BranchBased).
	Variant core.Variant
	// Labels and Scratch, when of length |V| and distinct, provide the
	// label double-buffer and suppress the per-call allocations. The
	// returned labeling aliases one of them; their prior contents are
	// overwritten. Long-lived callers (the serving layer) reuse these
	// across queries.
	Labels, Scratch []uint32
}

// SVParallel runs data-parallel Shiloach-Vishkin label propagation and
// returns the canonical min-id component labeling, identical to the
// sequential kernels'. Vertex ranges are degree-balanced across workers;
// each pass ends at a barrier where per-worker change counts merge and
// the label buffers swap. Both schedules produce byte-identical
// labelings. A cancelled x.Ctx is observed before the next pass and
// returned as the error, alongside the labels of the last completed
// pass.
func SVParallel(x par.Exec, g *graph.Graph, opt ParallelOptions) ([]uint32, perfcount.Stats, error) {
	n := g.NumVertices()
	var st perfcount.Stats
	if n == 0 {
		return []uint32{}, st, nil
	}
	nw := x.Pool.Workers()
	adj := g.Adjacency()
	offs := g.Offsets()
	// The chunk list is fixed across passes (the graph does not change);
	// what varies under par.Stealing is which worker runs each chunk.
	chunks := par.Partition(offs, par.ChunkCount(nw, x.Schedule), 1)

	prev := opt.Labels
	if len(prev) != n {
		prev = make([]uint32, n)
	}
	for i := range prev {
		prev[i] = uint32(i)
	}
	cur := opt.Scratch
	if len(cur) != n || &cur[0] == &prev[0] {
		cur = make([]uint32, n)
	}
	// Change counts, accumulated across a worker's chunks and merged at
	// the barrier. A worker runs its chunks serially, so no atomics.
	perWorker := make([]int, nw)
	// sink publishes each worker's lookahead accumulator (see the
	// prefetch comment below) so the early loads stay live; written once
	// per chunk, never read.
	sink := make([]uint32, nw)

	avoiding := opt.Variant == core.BranchAvoiding || opt.Variant == core.Hybrid

	for {
		start := time.Now()
		for t := range perWorker {
			perWorker[t] = 0
		}
		var err error
		if avoiding {
			//ba:atomic-free
			err = x.Pass(&st, chunks, func(t int, r par.Range) {
				changed := 0
				pf := uint32(0)
				//ba:branch-free
				for v := r.Lo; v < r.Hi; v++ {
					cv := prev[v]
					row := adj[offs[v]:offs[v+1]]
					// Software-prefetch shape: the gather's misses are the
					// dependent prev[row[i]] loads, so issue the load for
					// the edge Lookahead slots ahead before consuming edge
					// i. The accumulator keeps the early load live; both
					// loops stay branch-free (the split bounds replace any
					// data-dependent test).
					i := 0
					for ; i+core.Lookahead < len(row); i++ {
						pf ^= prev[row[i+core.Lookahead]]
						cu := prev[row[i]]
						m := core.MaskLess32(cu, cv)
						cv = core.Select32(m, cu, cv)
					}
					for ; i < len(row); i++ {
						cu := prev[row[i]]
						m := core.MaskLess32(cu, cv)
						cv = core.Select32(m, cu, cv)
					}
					cur[v] = cv
					changed += core.Bit(^core.MaskEqual32(cv^prev[v], 0))
				}
				perWorker[t] += changed
				sink[t] ^= pf
			})
		} else {
			//ba:atomic-free
			err = x.Pass(&st, chunks, func(t int, r par.Range) {
				changed := 0
				for v := r.Lo; v < r.Hi; v++ {
					cv := prev[v]
					for _, u := range adj[offs[v]:offs[v+1]] {
						cu := prev[u]
						if cu < cv {
							cv = cu
						}
					}
					cur[v] = cv
					if cv != prev[v] {
						changed++
					}
				}
				perWorker[t] += changed
			})
		}
		if err != nil {
			// Cancelled before the pass ran: prev holds the labels of
			// the last completed pass.
			return prev, st, err
		}
		changed := 0
		for _, c := range perWorker {
			changed += c
		}
		st.PassDurations = append(st.PassDurations, time.Since(start))
		st.PassChanges = append(st.PassChanges, changed)
		st.Passes++
		st.LabelStores += uint64(n)
		prev, cur = cur, prev
		if changed == 0 {
			break
		}
		if opt.Variant == core.Hybrid && avoiding && float64(changed) < hybridChangeFraction*float64(n) {
			avoiding = false
		}
	}
	return prev, st, nil
}
