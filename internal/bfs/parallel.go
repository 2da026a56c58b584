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
//   - Bottom-up levels sweep three word sets, one bit per vertex:
//     frontier, next and unvisited. A chunk is a range of whole words,
//     so its worker is the only one that writes those words and the
//     distances of their vertices: no atomics at all. For each
//     non-empty unvisited word the worker walks its set bits
//     (w &= w - 1), probes each candidate's neighbors against the
//     frontier words, writes the next word whole (0 when nothing was
//     unvisited), clears what it found (unvisited = word &^ found) and
//     writes dist from the found bits. The frontier membership probe —
//     the unpredictable branch the paper's §5 measures — is computed
//     branch-avoidingly by accumulating raw frontier bits into a hit
//     mask. The scan exits once the mask is set: that exit branch is
//     taken once per vertex and predicted correctly until then, so the
//     data-dependent probe stays branch-free while keeping bottom-up's
//     early-termination advantage.
//
//     Chunks are balanced on the level's own work, not on the graph:
//     par.Partition over a per-word prefix of unvisited arcs plus the
//     mean degree per unvisited vertex, the owner cost sssp.ownerRanges
//     uses. Owners subtract what they find from their own words, so a
//     level pays one O(|V|/64) prefix sum. Splitting on all arcs gave
//     the high-degree vertices, which are reached first, to one worker
//     and the unvisited tail to the other: on a 299k-vertex
//     collaboration graph from vertex 0 at 2 workers (2-vCPU Xeon) the
//     heaviest level ran 2.7 ms on one and 7.8 ms on the other; split
//     on unvisited work it runs 3.9 and 5.2 ms.
//
//     A top-down level discovers by CAS outside that ownership, so the
//     bottom-up level after one rebuilds unvisited and the per-word work
//     from dist in one parallel, branch-free pass, and sets the bits of
//     the top-down queue serially. A bottom-up level's frontier travels
//     as a count; its queue is built from the words only if the next
//     level runs top-down.
//
// Direction switching uses the same Beamer frontier-volume heuristic as
// the sequential DirectionOptimizing: bottom-up while the frontier's arc
// volume exceeds |arcs|/alpha and its size exceeds |V|/beta.

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
)

// Scratch is a BFS query's state besides the distances: the per-worker
// level accumulators with their queues, the level queue (also the
// sequential kernels' queue and frontiers), the word sets (ParallelDO's
// frontier, next and unvisited; MultiSource's masks and active words)
// and the cost/prefix arrays. Buffers are reused by capacity
// (core.Fit), so one Scratch serves every BFS form on graphs of any
// size and, once it has served the largest, allocates nothing more.
// The zero value is ready; a Scratch must not be shared by concurrent
// queries.
type Scratch struct {
	acc   []perWorkerLevel
	queue []uint32
	words []uint64 // ParallelDO's frontier, next and unvisited, or MultiSource's masks
	costs []int64  // work (nwords) and prefix (nwords+1)
}

// Bytes returns the capacity of the scratch's buffers, in bytes.
func (s *Scratch) Bytes() int64 {
	b := 4*int64(cap(s.queue)) + 8*int64(cap(s.words)) + 8*int64(cap(s.costs))
	for _, a := range s.acc {
		b += 4 * int64(cap(a.next))
	}
	return b
}

// accumulators returns nw clean level accumulators, their queues
// emptied but kept (a cancelled query leaves counts behind).
func (s *Scratch) accumulators(nw int) []perWorkerLevel {
	if len(s.acc) < nw {
		s.acc = append(s.acc, make([]perWorkerLevel, nw-len(s.acc))...)
	}
	acc := s.acc[:nw]
	for t := range acc {
		acc[t] = perWorkerLevel{next: acc[t].next[:0]}
	}
	return acc
}

// wordSets returns the three word sets and the cost arrays of an
// nwords-word graph. Their contents are stale: a bottom-up level after
// a top-down one rewrites frontier, unvisited and work, and next is
// written whole by every sweep. prefix[0] is the one entry nothing
// rewrites, so it is zeroed here.
func (s *Scratch) wordSets(nwords int) (frontier, next, unvisited []uint64, work, prefix []int64) {
	s.words, s.costs = core.Fit(s.words, 3*nwords), core.Fit(s.costs, 2*nwords+1)
	words, costs := s.words, s.costs
	work, prefix = costs[:nwords], costs[nwords:]
	prefix[0] = 0
	return words[:nwords], words[nwords : 2*nwords], words[2*nwords:], work, prefix
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
	wordsScanned uint64 // non-empty unvisited words swept (bottom-up)
}

// ParallelDO runs direction-optimizing BFS from root across workers and
// returns the distance array, identical to the sequential kernels'.
// dist and s are used as in TopDown. Both schedules produce
// byte-identical distances. A cancelled x.Ctx is
// observed before the next level and returned as the error, alongside
// the distances of the levels completed so far (deeper vertices still
// Inf).
func ParallelDO(x par.Exec, g *graph.Graph, root uint32, dist []uint32, s *Scratch) ([]uint32, perfcount.Stats, error) {
	return parallelDO(x, g, root, dist, s, defaultAlpha, defaultBeta)
}

// parallelDO is ParallelDO with the direction-switch thresholds as
// parameters, so tests can force a direction.
func parallelDO(x par.Exec, g *graph.Graph, root uint32, dist []uint32, s *Scratch, alpha, beta int) ([]uint32, perfcount.Stats, error) {
	n := g.NumVertices()
	dist = core.Fit(dist, n)
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
	chunkTarget := par.ChunkCount(nw, x.Schedule)
	goBottomUp := func(volume int64, size int) bool {
		return volume > arcs/int64(alpha) && size > n/beta
	}

	// The bottom-up word sets, taken from the scratch by the first
	// bottom-up level. work[i] is word i's unvisited arcs plus perVertex
	// per unvisited vertex. swept says whether frontier, unvisited and
	// work hold the last level's sweep; a top-down level (or the query
	// before this one) leaves them stale.
	nwords := (n + 63) / 64
	var frontier, next, unvisited []uint64
	var work, prefix []int64
	var wchunks []par.Range
	perVertex := max(arcs/int64(n), 1)
	swept := false

	queue := append(s.queue[:0], root)
	// The queue grows from level to level; the scratch keeps the largest.
	defer func() { s.queue = queue[:0] }()
	size := 1
	volume := offs[root+1] - offs[root]
	dist[root] = 0
	st.DistStores++
	st.QueueStores++

	acc := s.accumulators(nw)
	level := uint32(0)

	for size > 0 {
		start := time.Now()
		levelSize := size
		if goBottomUp(volume, size) {
			if frontier == nil {
				frontier, next, unvisited, work, prefix = s.wordSets(nwords)
				wchunks = par.PartitionSlice(nwords, chunkTarget)
			}
			if !swept {
				// One pass over whole words rebuilds unvisited and work
				// from dist and clears the frontier words; the top-down
				// queue's bits are then set serially.
				//ba:atomic-free
				err := x.Pass(&st, wchunks, func(_ int, r par.Range) {
					for i := r.Lo; i < r.Hi; i++ {
						lo, hi := i*64, min(i*64+64, n)
						word, cost := uint64(0), int64(0)
						//ba:branch-free
						for v := lo; v < hi; v++ {
							m := uint64(core.MaskEqual32(dist[v], Inf) & 1)
							word |= m << (v - lo)
							cost += int64(m) * (offs[v+1] - offs[v] + perVertex)
						}
						unvisited[i], work[i], frontier[i] = word, cost, 0
					}
				})
				if err != nil {
					return dist, st, err
				}
				for _, v := range queue {
					frontier[v/64] |= 1 << (v % 64)
				}
			}
			for i, c := range work {
				prefix[i+1] = prefix[i] + c
			}
			// Chunks own whole words, so the sweep needs no atomics.
			//ba:atomic-free
			err := x.Pass(&st, par.Partition(prefix, chunkTarget, 1), func(t int, r par.Range) {
				a := &acc[t]
				for i := r.Lo; i < r.Hi; i++ {
					word := unvisited[i]
					if word == 0 {
						next[i] = 0
						continue
					}
					a.wordsScanned++
					base := i * 64
					found := uint64(0)
					for w := word; w != 0; w &= w - 1 {
						b := bits.TrailingZeros64(w)
						v := base + b
						hit := uint64(0)
						//ba:branch-free
						for _, u := range adj[offs[v]:offs[v+1]] {
							hit |= frontier[u/64] >> (u % 64) & 1
							//ba:allow-branch early exit taken once per vertex and predicted until then; the membership probe itself stays a mask accumulation
							if hit != 0 {
								break
							}
						}
						found |= hit << b
					}
					next[i] = found
					unvisited[i] = word &^ found
					vol := int64(0)
					for f := found; f != 0; f &= f - 1 {
						v := base + bits.TrailingZeros64(f)
						dist[v] = level + 1
						vol += offs[v+1] - offs[v]
					}
					k := bits.OnesCount64(found)
					work[i] -= vol + perVertex*int64(k)
					a.count += k
					a.volume += vol
					a.distStores += uint64(k)
					a.queueStores += uint64(k)
				}
			})
			if err != nil {
				return dist, st, err
			}
			st.BottomUpLevels++
			size, volume = 0, 0
			for t := range acc {
				size += acc[t].count
				volume += acc[t].volume
				st.DistStores += acc[t].distStores
				st.QueueStores += acc[t].queueStores
				st.WordsScanned += acc[t].wordsScanned
				acc[t] = perWorkerLevel{next: acc[t].next[:0]}
			}
			frontier, next = next, frontier
			swept = true
			// The next level needs a queue only if it runs top-down.
			queue = queue[:0]
			if size > 0 && !goBottomUp(volume, size) {
				queue = slices.Grow(queue, size)
				for i, word := range frontier {
					for ; word != 0; word &= word - 1 {
						queue = append(queue, uint32(i*64+bits.TrailingZeros64(word)))
					}
				}
			}
		} else {
			// Frontier chunks are equal-count, not degree-balanced: the
			// frontier's arc volume is unknown until scanned, which is
			// exactly the skew the Stealing schedule absorbs.
			fchunks := par.PartitionSlice(size, chunkTarget)
			err := x.Pass(&st, fchunks, func(t int, c par.Range) {
				a := &acc[t]
				nextLevel := level + 1
				for _, v := range queue[c.Lo:c.Hi] {
					for _, w := range adj[offs[v]:offs[v+1]] {
						if atomic.LoadUint32(&dist[w]) != Inf {
							continue
						}
						if atomic.CompareAndSwapUint32(&dist[w], Inf, nextLevel) {
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
			size, volume = 0, 0
			for t := range acc {
				size += len(acc[t].next)
			}
			queue = slices.Grow(queue[:0], size)
			for t := range acc {
				queue = append(queue, acc[t].next...)
				volume += acc[t].volume
				st.DistStores += acc[t].distStores
				st.QueueStores += acc[t].queueStores
				acc[t] = perWorkerLevel{next: acc[t].next[:0]}
			}
			swept = false
		}
		st.LevelSizes = append(st.LevelSizes, levelSize)
		st.Reached += levelSize
		level++
		st.Passes++
		st.PassDurations = append(st.PassDurations, time.Since(start))
	}
	return dist, st, nil
}
