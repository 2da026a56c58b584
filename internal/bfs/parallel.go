package bfs

// Parallel direction-optimizing BFS on the internal/par engine.
//
// The two directions parallelize differently, and the split mirrors where
// branches live:
//
//   - Top-down levels partition the frontier across workers. Discovery
//     races (two workers reaching the same neighbor in one level) are
//     resolved with a compare-and-swap on the distance slot; the winner
//     appends the vertex to its own per-worker queue and the queues
//     concatenate at the level barrier. CAS is inherently a branch, but
//     the heuristic only picks top-down when the frontier is small, where
//     the paper shows the branchy kernel is at its best anyway.
//
//   - Bottom-up levels partition the *vertex set* by degree-balanced
//     ranges with 64-aligned boundaries, so each worker owns whole words
//     of the next-frontier bitset and writes distances only inside its
//     range: no atomics at all. Candidate vertices come from a succinct
//     unvisited bitset iterated through its rank directory
//     (bitset.NextSetIn), so sweeps skip 512-bit blocks with no
//     undiscovered vertices instead of testing dist[v] for every v —
//     the win degree-ordered relabeling amplifies by packing survivors
//     into few words. The frontier membership probe — the
//     unpredictable branch the paper's §5 measures — is computed
//     branch-avoidingly by accumulating raw frontier bits (bitset.Bit)
//     into a found mask. The scan exits once found is set: that exit
//     branch is taken once per vertex and predicted correctly until then,
//     so the data-dependent probe stays branch-free while keeping
//     bottom-up's early-termination advantage.
//
// Direction switching uses the same Beamer frontier-volume heuristic as
// the sequential DirectionOptimizing: bottom-up while the frontier's arc
// volume exceeds |arcs|/alpha and its size exceeds |V|/beta.

import (
	"sync/atomic"
	"time"

	"bagraph/internal/bitset"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
)

// ParallelOptions configures ParallelDO.
type ParallelOptions struct {
	// Dist, when of length |V|, receives the distances and suppresses the
	// per-call result allocation; its prior contents are overwritten. The
	// returned slice aliases it. Long-lived callers (the serving layer)
	// reuse this across queries.
	Dist []uint32
}

// The Beamer direction-switch thresholds: ParallelDO's fixed values and
// the sequential DirectionOptimizing's defaults.
const (
	defaultAlpha = 15
	defaultBeta  = 18
)

// perWorkerLevel accumulates one worker's contribution to a level,
// merged at the level barrier.
type perWorkerLevel struct {
	next         []uint32 // next-frontier queue (top-down)
	count        int      // next-frontier size (bottom-up)
	volume       int64    // arc volume of the produced frontier
	distStores   uint64
	queueStores  uint64
	wordsScanned uint64 // unvisited-bitset words loaded (bottom-up)
}

// ParallelDO runs direction-optimizing BFS from root across workers and
// returns the distance array, identical to the sequential kernels'.
// Both schedules produce byte-identical distances. A cancelled x.Ctx is
// observed before the next level and returned as the error, alongside
// the distances of the levels completed so far (deeper vertices still
// Inf).
func ParallelDO(x par.Exec, g *graph.Graph, root uint32, opt ParallelOptions) ([]uint32, perfcount.Stats, error) {
	return parallelDO(x, g, root, opt, defaultAlpha, defaultBeta)
}

// parallelDO is ParallelDO with the direction-switch thresholds as
// parameters, so tests can force a direction.
func parallelDO(x par.Exec, g *graph.Graph, root uint32, opt ParallelOptions, alpha, beta int) ([]uint32, perfcount.Stats, error) {
	n := g.NumVertices()
	dist := opt.Dist
	if dist == nil || len(dist) != n {
		dist = make([]uint32, n)
	}
	for i := range dist {
		dist[i] = Inf
	}
	var st perfcount.Stats
	if n == 0 {
		return dist, st, nil
	}
	nw := x.Pool.Workers()
	adj := g.Adjacency()
	offs := g.Offsets()
	arcs := g.NumArcs()
	// Vertex chunks for bottom-up sweeps: degree-balanced, 64-aligned so
	// whichever worker runs a chunk owns whole bitset words; fixed across
	// levels (only the executing worker varies under par.Stealing).
	chunkTarget := par.ChunkCount(nw, x.Schedule)
	vchunks := par.Partition(offs, chunkTarget, 64)

	frontier := []uint32{root}
	frontierBits := bitset.New(n)
	nextBits := bitset.New(n)
	bitsValid := false // whether frontierBits mirrors frontier
	// unvisited tracks dist[v] == Inf for the bottom-up sweeps, which
	// iterate it via the rank directory instead of scanning every vertex.
	// Workers own whole words (64-aligned chunks) and Clear their own
	// discoveries, so across consecutive bottom-up levels the set only
	// shrinks — exactly the staleness the directory contract permits; the
	// directory itself is refreshed at each level barrier. Top-down levels
	// discover via CAS outside any ownership discipline, so the set goes
	// stale and is rebuilt from dist on the next bottom-up entry.
	unvisited := bitset.New(n)
	unvisitedValid := false
	volume := int64(offs[root+1] - offs[root])
	dist[root] = 0
	st.DistStores++
	st.QueueStores++

	acc := make([]perWorkerLevel, nw)
	level := uint32(0)

	for len(frontier) > 0 {
		start := time.Now()
		size := len(frontier)

		bottomUp := volume > arcs/int64(alpha) && size > n/beta
		if bottomUp {
			if !bitsValid {
				frontierBits.Reset()
				for _, v := range frontier {
					frontierBits.Set(int(v))
				}
			}
			nextBits.Reset()
			if !unvisitedValid {
				unvisited.Reset()
				for v := 0; v < n; v++ {
					if dist[v] == Inf {
						unvisited.Set(v)
					}
				}
			}
			unvisited.BuildRank()
			// Workers own whole bitset words (64-aligned chunks), so the
			// bottom-up sweep needs no atomics at all.
			//ba:atomic-free
			err := x.Pass(&st, vchunks, func(t int, r par.Range) {
				a := &acc[t]
				// The final probe (v == -1) also loaded words before
				// giving up; count it so the metric reflects real work.
				for v, w := unvisited.NextSetIn(r.Lo, r.Hi); ; v, w = unvisited.NextSetIn(v+1, r.Hi) {
					a.wordsScanned += uint64(w)
					if v == -1 {
						break
					}
					found := uint32(0)
					//ba:branch-free
					for _, u := range adj[offs[v]:offs[v+1]] {
						found |= frontierBits.Bit(int(u))
						//ba:allow-branch early exit taken once per vertex and predicted until then; the membership probe itself stays a mask accumulation
						if found != 0 {
							break
						}
					}
					if found != 0 {
						dist[v] = level + 1
						a.distStores++
						nextBits.Set(v)
						a.queueStores++
						unvisited.Clear(v)
						a.count++
						a.volume += int64(offs[v+1] - offs[v])
					}
				}
			})
			if err != nil {
				return dist, st, err
			}
			st.BottomUpLevels++
			unvisitedValid = true
			nextLen := 0
			volume = 0
			for t := range acc {
				nextLen += acc[t].count
				volume += acc[t].volume
				st.DistStores += acc[t].distStores
				st.QueueStores += acc[t].queueStores
				st.WordsScanned += acc[t].wordsScanned
				acc[t] = perWorkerLevel{}
			}
			frontierBits, nextBits = nextBits, frontierBits
			bitsValid = true
			// The next level needs a queue only if it runs top-down.
			frontier = frontier[:0]
			if nextLen > 0 && !(volume > arcs/int64(alpha) && nextLen > n/beta) {
				frontier = appendSetBits(frontier, frontierBits)
			} else {
				frontier = appendN(frontier, nextLen)
			}
		} else {
			// Frontier chunks are equal-count, not degree-balanced: the
			// frontier's arc volume is unknown until scanned, which is
			// exactly the skew the Stealing schedule absorbs.
			fchunks := par.PartitionSlice(size, chunkTarget)
			err := x.Pass(&st, fchunks, func(t int, c par.Range) {
				a := &acc[t]
				next := level + 1
				for _, v := range frontier[c.Lo:c.Hi] {
					for _, w := range adj[offs[v]:offs[v+1]] {
						if atomic.LoadUint32(&dist[w]) != Inf {
							continue
						}
						if atomic.CompareAndSwapUint32(&dist[w], Inf, next) {
							a.distStores++
							a.next = append(a.next, w)
							a.queueStores++
							a.volume += int64(offs[w+1] - offs[w])
						}
					}
				}
			})
			if err != nil {
				return dist, st, err
			}
			st.TopDownLevels++
			frontier = frontier[:0]
			volume = 0
			for t := range acc {
				frontier = append(frontier, acc[t].next...)
				volume += acc[t].volume
				st.DistStores += acc[t].distStores
				st.QueueStores += acc[t].queueStores
				acc[t] = perWorkerLevel{}
			}
			bitsValid = false
			unvisitedValid = false
		}
		st.LevelSizes = append(st.LevelSizes, size)
		st.Reached += size
		level++
		st.Passes++
		st.PassDurations = append(st.PassDurations, time.Since(start))
	}
	return dist, st, nil
}

// appendSetBits appends every set bit of s to dst in increasing order.
func appendSetBits(dst []uint32, s *bitset.Set) []uint32 {
	s.ForEach(func(i int) { dst = append(dst, uint32(i)) })
	return dst
}

// appendN grows dst to length n with placeholder entries. Used when the
// next level will run bottom-up and only the frontier *size* matters (the
// membership lives in the bitset); it avoids materializing a queue that
// would be thrown away. Existing capacity is resliced without clearing —
// the contents are never read.
func appendN(dst []uint32, n int) []uint32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint32, n)
}
