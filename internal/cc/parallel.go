package cc

// Parallel connected components on the internal/par engine: one
// direction-optimizing BFS labels the component of a maximum-degree
// vertex, and Shiloach-Vishkin label propagation labels the rest — the
// "BFS for the giant component, label propagation for the remainder"
// split of Multistep (Slota, Rajamanickam & Madduri, IPDPS 2014).
//
// The seed. Label propagation moves a label one hop per pass and gathers
// every arc in every pass, so one large component costs |arcs| work per
// pass for a diameter's worth of passes. A BFS labels the same component
// doing one frontier's work per level, and bfs.ParallelDO — the engine's
// direction-optimizing BFS — runs its dense levels bottom-up with the
// branch-avoiding membership probe. SVParallel therefore
//
//  1. picks s, a vertex of maximum degree (lowest id on ties, so the
//     choice follows from the input): the vertex most likely to sit in
//     the giant component;
//  2. runs bfs.ParallelDO from s into the scratch half of the label
//     double buffer;
//  3. takes m, the first vertex the BFS reached, which is the seeded
//     component's minimum id;
//  4. runs one fill pass, label[v] = Select32(MaskEqual32(dist[v], Inf),
//     v, m): m across the seeded component, the identity elsewhere.
//
// If the seed reached every vertex — every graph the repo benchmark
// serves — the kernel is done.
//
// The remainder. Otherwise the other components converge by label
// propagation over the two label arrays, with the variant selecting the
// inner loop. A seeded label is final and no remainder vertex can ever
// carry m (m's component is exactly the seeded set), so every vertex
// whose label is m has its row masked to length zero without a branch,
// deg = Select32(MaskEqual32(cv, m), 0, deg): propagation gathers only
// the remainder's arcs.
//
// The remainder stays Jacobi. The sequential kernels in cc.go propagate
// Gauss-Seidel style, a label improved early in a pass being visible to
// later vertices of the same pass; a parallel sweep gives that up. Every
// worker reads the previous pass's labels (immutable during the pass)
// and writes only the labels of its own vertex range in the next array;
// the arrays swap at the pass barrier. Reads and writes never touch the
// same array, so no per-element atomic is needed, and the pass count is
// independent of the worker count and the schedule. Jacobi iteration may
// need more passes than Gauss-Seidel (label information moves one hop per
// pass), but it converges to the identical fixed point: labels only
// decrease, and a labeling is stable exactly when both endpoints of every
// edge agree, which forces the canonical component minimum.
//
// Stats keeps one meaning per field:
//
//   - Passes, PassDurations and PassChanges count every barrier pass the
//     kernel dispatches: the seed's BFS levels (a level's change count is
//     the frontier it settled into the seeded component), the fill (the
//     Reached-1 labels it moved off the identity) and each propagation
//     pass (the labels it changed).
//   - TopDownLevels, BottomUpLevels, LevelSizes, Reached and WordsScanned
//     report the seed as they report a BFS; Reached is the seeded
//     component's size.
//   - LabelStores is |V| for the fill plus |V| per propagation pass:
//     because the write array is two passes stale, every vertex's label
//     is stored unconditionally each pass, even by the branch-based loop
//     (whose comparisons still branch — the property the paper measures).

import (
	"slices"
	"time"

	"bagraph/internal/bfs"
	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
)

// SVParallel returns the canonical min-id component labeling, identical
// to the sequential kernels': a direction-optimizing BFS from a
// maximum-degree vertex labels that vertex's component, and data-parallel
// Shiloach-Vishkin label propagation, with the variant's inner loop and
// the seeded rows masked to length zero, labels the remaining ones (see
// the file comment for the design and what each Stats field counts).
// labels and scratch are the label double-buffer, reused by capacity
// (core.Fit) and distinct; scratch also receives the seed's BFS
// distances, seed is that BFS's scratch, and the returned labeling
// aliases one of the two.
// Vertex ranges are degree-balanced across workers and each pass ends at
// a barrier; both schedules produce byte-identical labelings. A cancelled
// x.Ctx is observed before the next pass and returned as the error: a run
// cancelled during the seed returns the identity labeling, one cancelled
// during propagation the labels of the last completed pass — in either
// case every label is an upper bound of the canonical one.
func SVParallel(x par.Exec, g *graph.Graph, variant core.Variant, labels, scratch []uint32, seed *bfs.Scratch) ([]uint32, perfcount.Stats, error) {
	n := g.NumVertices()
	labels, scratch = core.Fit(labels, n), core.Fit(scratch, n)
	if n == 0 {
		return labels, perfcount.Stats{}, nil
	}
	nw := x.Pool.Workers()
	offs := g.Offsets()

	dist, sd, err := bfs.ParallelDO(x, g, maxDegreeVertex(offs), scratch, seed)
	st := perfcount.Stats{
		Passes:         sd.Passes,
		PassDurations:  sd.PassDurations,
		PassChanges:    slices.Clone(sd.LevelSizes),
		LevelSizes:     sd.LevelSizes,
		TopDownLevels:  sd.TopDownLevels,
		BottomUpLevels: sd.BottomUpLevels,
		Reached:        sd.Reached,
		WordsScanned:   sd.WordsScanned,
		Chunks:         sd.Chunks,
		Steals:         sd.Steals,
		StealPasses:    sd.StealPasses,
	}
	if err != nil {
		return identity(labels), st, err
	}
	// endPass records one label pass: every such pass stores all |V|
	// labels.
	endPass := func(start time.Time, changed int) {
		st.PassDurations = append(st.PassDurations, time.Since(start))
		st.PassChanges = append(st.PassChanges, changed)
		st.Passes++
		st.LabelStores += uint64(n)
	}

	m := uint32(0)
	for dist[m] == bfs.Inf {
		m++
	}
	start := time.Now()
	//ba:atomic-free
	err = x.Pass(&st, par.PartitionSlice(n, par.ChunkCount(nw, x.Schedule)), func(_ int, r par.Range) {
		//ba:branch-free
		for v := r.Lo; v < r.Hi; v++ {
			labels[v] = core.Select32(core.MaskEqual32(dist[v], bfs.Inf), uint32(v), m)
		}
	})
	if err != nil {
		return identity(labels), st, err
	}
	endPass(start, st.Reached-1)
	if st.Reached == n {
		return labels, st, nil
	}

	adj := g.Adjacency()
	// The chunk list is fixed across passes (the graph does not change);
	// what varies under par.Stealing is which worker runs each chunk.
	chunks := par.Partition(offs, par.ChunkCount(nw, x.Schedule), 1)
	prev, cur := labels, scratch
	// Change counts, accumulated across a worker's chunks and merged at
	// the barrier. A worker runs its chunks serially, so no atomics.
	perWorker := make([]int, nw)
	// sink publishes each worker's lookahead accumulator (see the
	// prefetch comment below) so the early loads stay live; written once
	// per chunk, never read.
	sink := make([]uint32, nw)

	avoiding := variant == core.BranchAvoiding || variant == core.Hybrid
	// The Hybrid switch measures churn against the vertices propagation
	// actually compares: the remainder.
	remainder := float64(n - st.Reached)

	for {
		start := time.Now()
		for t := range perWorker {
			perWorker[t] = 0
		}
		if avoiding {
			//ba:atomic-free
			err = x.Pass(&st, chunks, func(t int, r par.Range) {
				changed := 0
				pf := uint32(0)
				//ba:branch-free
				for v := r.Lo; v < r.Hi; v++ {
					cv := prev[v]
					row := adj[offs[v]:offs[v+1]]
					row = row[:core.Select32(core.MaskEqual32(cv, m), 0, uint32(len(row)))]
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
						lt := core.MaskLess32(cu, cv)
						cv = core.Select32(lt, cu, cv)
					}
					for ; i < len(row); i++ {
						cu := prev[row[i]]
						lt := core.MaskLess32(cu, cv)
						cv = core.Select32(lt, cu, cv)
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
					row := adj[offs[v]:offs[v+1]]
					row = row[:core.Select32(core.MaskEqual32(cv, m), 0, uint32(len(row)))]
					for _, u := range row {
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
		endPass(start, changed)
		prev, cur = cur, prev
		if changed == 0 {
			break
		}
		if variant == core.Hybrid && avoiding && float64(changed) < core.HybridChangeFraction*remainder {
			avoiding = false
		}
	}
	return prev, st, nil
}

// maxDegreeVertex returns the lowest-id vertex of maximum degree, given
// a CSR offsets array of a non-empty graph.
func maxDegreeVertex(offs []int64) uint32 {
	s, best := 0, int64(-1)
	for v := 0; v+1 < len(offs); v++ {
		if d := offs[v+1] - offs[v]; d > best {
			s, best = v, d
		}
	}
	return uint32(s)
}

// identity overwrites labels with the identity labeling, the upper bound
// every run starts from.
func identity(labels []uint32) []uint32 {
	for i := range labels {
		labels[i] = uint32(i)
	}
	return labels
}
