package sssp

// Parallel weighted SSSP on the internal/par engine: a delta-stepping
// style kernel with the paper's branch-based / branch-avoiding / hybrid
// relaxation inner loops.
//
// The sequential Bellman-Ford kernels in sssp.go sweep every vertex
// every pass. The parallel kernel instead keeps the classic
// delta-stepping shape: tentative distances bucket vertices by
// dist/delta, buckets are processed in nondecreasing order, and each
// relaxation pass pushes only the current bucket's frontier. The
// light/heavy edge split of Meyer & Sanders is available behind
// ParallelOptions.LightHeavy: in-bucket passes then relax only light
// arcs (weight <= delta, the only ones that can re-fill the current
// bucket) and each settled vertex's heavy arcs relax exactly once at
// bucket close, instead of being re-scanned by every in-bucket pass.
// The weight-class test folds into the relaxation mask, so the
// branch-avoiding inner loop stays branch-free either way.
//
// Each pass is a scatter + merge, mirroring how the other engine
// kernels stay race-free without per-element atomics:
//
//   - Scatter (parallel): the frontier is partitioned into
//     degree-balanced ranges (par.Partition over the frontier's own arc
//     prefix array). Every worker walks its range's out-edges against
//     the immutable distance array and emits improving candidates
//     (vertex, proposed distance) into a private buffer. The relaxation
//     test "cand < dist[u]" is the data-dependent branch the paper
//     measures, and the variants differ exactly here: the branch-based
//     loop appends behind a conditional; the branch-avoiding loop
//     performs the paper's Algorithm 5 trick — an unconditional store
//     to the buffer tail plus a mask-computed tail increment — so the
//     candidate buffer plays the role BFS's queue plays in §5.2, stores
//     growing from O(improvements) to O(frontier arcs).
//
//   - Merge (at the pass barrier): per-worker candidate buffers are
//     folded into the distance array with a min, newly improved
//     vertices are re-bucketed by their new distance, and the buffers
//     reset. The merge is the barrier-time accumulator fold every
//     engine kernel performs (cc merges change counts, parallel BFS
//     concatenates queues); candidates are a small filtered subset of
//     the scanned arcs, so the sequential fold is off the critical
//     path.
//
// Correctness does not depend on delta: any improvement re-activates
// its vertex, so the kernel terminates only at the relaxation fixed
// point — the same labeling Dijkstra produces. Delta only tunes how
// much wasted re-relaxation the schedule admits. Candidates produced
// while processing bucket b have distance >= b*delta (weights are
// non-negative), so buckets are visited in nondecreasing order.

import (
	"math/bits"
	"time"

	"bagraph/internal/bitset"
	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
)

// hybridChangeFraction is the Hybrid switch threshold: once a pass's
// improved-vertex count falls below this fraction of the arcs it
// scanned, the relaxation branch has become predictable and later
// passes run branch-based.
const hybridChangeFraction = 0.02

// ParallelOptions configures Parallel.
type ParallelOptions struct {
	// Variant selects the relaxation inner loop (default
	// core.BranchBased; the scatter paragraph above says how the loops
	// differ).
	Variant core.Variant
	// Delta is the bucket width; it is rounded up to a power of two.
	// 0 picks the default: the smallest power of two >= the mean arc
	// weight, which makes unit-weight graphs run one bucket per hop
	// level (BFS-like) and keeps re-relaxation bounded on weighted
	// inputs.
	Delta uint64
	// LightHeavy enables the Meyer & Sanders light/heavy edge split:
	// in-bucket passes relax only light arcs (weight <= delta, the only
	// ones that can re-fill the current bucket), and each vertex's
	// heavy arcs are relaxed exactly once when its bucket closes —
	// instead of every inner pass re-scanning them. The distances are
	// byte-identical either way; what changes is the wasted
	// re-relaxation volume, visible in Stats.HeavyRelaxed vs the
	// repeated scans it replaces.
	LightHeavy bool
	// Dist, when of length |V|, receives the distances and suppresses
	// the per-call result allocation; its prior contents are
	// overwritten. The returned slice aliases it. Long-lived callers
	// (the serving layer) reuse this across queries.
	Dist []uint64
}

// candidate is one proposed relaxation: a target vertex and the
// distance some frontier vertex offers it. Candidates are produced in
// parallel and folded into the distance array at the pass barrier.
type candidate struct {
	v uint32
	d uint64
}

// DefaultDelta returns the bucket width Parallel uses when
// ParallelOptions.Delta is zero: the smallest power of two >= the mean
// arc weight. It costs one pass over the weight array; long-lived
// callers holding an immutable graph (the serving layer) compute it
// once and pass it through ParallelOptions.Delta instead of paying
// the sweep per query.
func DefaultDelta(g *graph.Weighted) uint64 {
	arcs := g.NumArcs()
	if arcs == 0 {
		return 1
	}
	var total uint64
	for _, w := range g.ArcWeights() {
		total += uint64(w)
	}
	mean := total / uint64(arcs)
	if mean <= 1 {
		return 1
	}
	return uint64(1) << uint(bits.Len64(mean-1))
}

// deltaShift resolves the bucket width to a shift amount.
func deltaShift(delta uint64, g *graph.Weighted) uint {
	if delta == 0 {
		delta = DefaultDelta(g)
	}
	if delta <= 1 {
		return 0
	}
	return uint(bits.Len64(delta - 1))
}

// Parallel computes shortest-path distances from src with the
// delta-stepping engine kernel; the result is element-for-element
// identical to Dijkstra's for every variant and both schedules. A
// cancelled x.Ctx is observed before the next scatter pass and returned
// as the error, alongside the tentative distances computed so far.
func Parallel(x par.Exec, g *graph.Weighted, src uint32, opt ParallelOptions) ([]uint64, perfcount.Stats, error) {
	n := g.NumVertices()
	dist := initDist(opt.Dist, n, src)
	var st perfcount.Stats
	if n == 0 || int(src) >= n {
		return dist, st, nil
	}
	adj := g.Adjacency()
	ws := g.ArcWeights()
	offs := g.Offsets()
	shift := deltaShift(opt.Delta, g)

	avoiding := opt.Variant == core.BranchAvoiding || opt.Variant == core.Hybrid

	// The light/heavy split: arcs with weight < lightCut relax in the
	// in-bucket passes, the rest wait for the one heavy pass at bucket
	// close. Without the split every arc is "light". The cut stays in
	// MaskLess64's domain (operands <= 2^62) and above any uint32
	// weight when the split is off or delta already exceeds all
	// weights — 2^33 does both.
	const allLight = uint64(1) << 33
	delta := uint64(1) << shift
	split := opt.LightHeavy
	lightCut := allLight
	if split && delta < allLight-1 {
		lightCut = delta + 1
	}

	// buckets[b] holds vertices pending relaxation whose distance fell
	// into [b<<shift, (b+1)<<shift) when they improved. Entries go
	// stale when a vertex improves again; staleness is filtered at pop
	// time against the vertex's current bucket, so duplicates are
	// harmless. order is a lazy min-heap of bucket ids (pushed when a
	// key first appears, stale ids skipped at pop), so finding the next
	// bucket costs O(log B) instead of a full key scan per activation.
	buckets := map[uint64][]uint32{0: {src}}
	order := bucketHeap{0}

	nw := x.Pool.Workers()
	chunkTarget := par.ChunkCount(nw, x.Schedule)
	cands := make([][]candidate, nw)
	candStores := make([]uint64, nw) // per-worker, merged at the barrier
	// sink publishes each worker's prefetch-lookahead accumulator (see
	// the scatter loops) so the early loads stay live; written once per
	// chunk, never read.
	sink := make([]uint64, nw)
	frontier := make([]uint32, 0, 64)
	// fronOffs is the frontier's private arc-count prefix array; feeding
	// it to par.Partition degree-balances the scatter chunks exactly as
	// the whole-graph kernels balance vertex ranges.
	fronOffs := make([]int64, 1, 65)
	inFrontier := bitset.New(n)
	changed := make([]uint32, 0, 64) // vertices improved this pass
	changedBits := bitset.New(n)

	// settled collects the current bucket's processed vertices for the
	// heavy close pass; settledBits dedupes re-activations within the
	// bucket (a vertex's heavy arcs relax once, at its final in-bucket
	// distance).
	var settled []uint32
	var setOffs []int64
	var settledBits *bitset.Set
	if split {
		settled = make([]uint32, 0, 64)
		setOffs = make([]int64, 1, 65)
		settledBits = bitset.New(n)
	}

	// relaxPass is one scatter + merge over verts (with its arc-count
	// prefix vOffs): scatter the wanted weight class of every vert's
	// arcs against the immutable distance array into per-worker
	// candidate buffers, fold them in at the barrier, and re-bucket the
	// improved set. Chunks are degree-balanced; under par.Stealing idle
	// workers take whole chunks from stragglers (an RMAT hub's chunk
	// can no longer stall the pass barrier behind it).
	relaxPass := func(verts []uint32, vOffs []int64, heavy bool) (int, error) {
		start := time.Now()
		scanned := vOffs[len(vOffs)-1]
		chunks := par.Partition(vOffs, chunkTarget, 1)
		// Workers fill private candidate buffers; all folding happens at
		// the pass barrier below.
		//ba:atomic-free
		err := x.Pass(&st, chunks, func(t int, r par.Range) {
			buf := cands[t]
			stores := candStores[t]
			if avoiding {
				pf := uint64(0)
				for _, v := range verts[r.Lo:r.Hi] {
					dv := dist[v]
					lo, hi := offs[v], offs[v+1]
					// Room for the unconditional tail stores: every
					// edge writes a slot, the mask decides whether
					// the tail keeps it.
					need := len(buf) + int(hi-lo)
					if cap(buf) < need {
						nb := make([]candidate, len(buf), need+need/2)
						copy(nb, buf)
						buf = nb
					}
					buf = buf[:need]
					tail := need - int(hi-lo)
					// The weight-class selection is per vertex and
					// loop-invariant: without the split the inner loop
					// is exactly the paper's op mix, with it the class
					// test folds into the relaxation mask. Each case
					// runs software-prefetch shaped: the scatter's miss
					// is the dependent dist[adj[j]] load, so the main
					// loop issues the load core.Lookahead arcs ahead
					// into an accumulator before consuming arc j, with
					// a mask-free tail loop finishing the row — no
					// data-dependent branch appears either way.
					la := hi - core.Lookahead
					switch {
					case !split:
						j := lo
						//ba:branch-free
						for ; j < la; j++ {
							pf ^= dist[adj[j+core.Lookahead]]
							u := adj[j]
							c := dv + uint64(ws[j])
							m := core.MaskLess64(c, dist[u])
							buf[tail] = candidate{u, c}
							tail += int(core.Bit64(m))
						}
						//ba:branch-free
						for ; j < hi; j++ {
							u := adj[j]
							c := dv + uint64(ws[j])
							m := core.MaskLess64(c, dist[u])
							buf[tail] = candidate{u, c}
							tail += int(core.Bit64(m))
						}
					case heavy:
						j := lo
						//ba:branch-free
						for ; j < la; j++ {
							pf ^= dist[adj[j+core.Lookahead]]
							u := adj[j]
							c := dv + uint64(ws[j])
							m := core.MaskLess64(c, dist[u]) &^ core.MaskLess64(uint64(ws[j]), lightCut)
							buf[tail] = candidate{u, c}
							tail += int(core.Bit64(m))
						}
						//ba:branch-free
						for ; j < hi; j++ {
							u := adj[j]
							c := dv + uint64(ws[j])
							m := core.MaskLess64(c, dist[u]) &^ core.MaskLess64(uint64(ws[j]), lightCut)
							buf[tail] = candidate{u, c}
							tail += int(core.Bit64(m))
						}
					default:
						j := lo
						//ba:branch-free
						for ; j < la; j++ {
							pf ^= dist[adj[j+core.Lookahead]]
							u := adj[j]
							c := dv + uint64(ws[j])
							m := core.MaskLess64(c, dist[u]) & core.MaskLess64(uint64(ws[j]), lightCut)
							buf[tail] = candidate{u, c}
							tail += int(core.Bit64(m))
						}
						//ba:branch-free
						for ; j < hi; j++ {
							u := adj[j]
							c := dv + uint64(ws[j])
							m := core.MaskLess64(c, dist[u]) & core.MaskLess64(uint64(ws[j]), lightCut)
							buf[tail] = candidate{u, c}
							tail += int(core.Bit64(m))
						}
					}
					stores += uint64(hi - lo)
					buf = buf[:tail]
				}
				sink[t] ^= pf
			} else {
				for _, v := range verts[r.Lo:r.Hi] {
					dv := dist[v]
					switch {
					case !split:
						for j := offs[v]; j < offs[v+1]; j++ {
							u := adj[j]
							c := dv + uint64(ws[j])
							if c < dist[u] {
								buf = append(buf, candidate{u, c})
								stores++
							}
						}
					case heavy:
						for j := offs[v]; j < offs[v+1]; j++ {
							u := adj[j]
							c := dv + uint64(ws[j])
							if uint64(ws[j]) >= lightCut && c < dist[u] {
								buf = append(buf, candidate{u, c})
								stores++
							}
						}
					default:
						for j := offs[v]; j < offs[v+1]; j++ {
							u := adj[j]
							c := dv + uint64(ws[j])
							if uint64(ws[j]) < lightCut && c < dist[u] {
								buf = append(buf, candidate{u, c})
								stores++
							}
						}
					}
				}
			}
			cands[t] = buf
			candStores[t] = stores
		})
		if err != nil {
			return 0, err
		}

		// Merge at the barrier: fold candidates into the distance
		// array (min), collect the improved set, re-bucket it by
		// its final post-pass distances.
		relaxed := uint64(0)
		changed = changed[:0]
		for t := range cands {
			st.CandStores += candStores[t]
			candStores[t] = 0
			if avoiding {
				for _, c := range cands[t] {
					dv := dist[c.v]
					m := core.MaskLess64(c.d, dv)
					dist[c.v] = core.Select64(m, c.d, dv)
					st.DistStores++
					if m != 0 {
						relaxed++
						if !changedBits.TestAndSet(int(c.v)) {
							changed = append(changed, c.v)
						}
					}
				}
			} else {
				for _, c := range cands[t] {
					if c.d < dist[c.v] {
						dist[c.v] = c.d
						st.DistStores++
						relaxed++
						if !changedBits.TestAndSet(int(c.v)) {
							changed = append(changed, c.v)
						}
					}
				}
			}
			cands[t] = cands[t][:0]
		}
		if heavy {
			st.HeavyRelaxed += relaxed
		} else {
			st.LightRelaxed += relaxed
		}
		for _, v := range changed {
			changedBits.Clear(int(v))
			b := dist[v] >> shift
			if _, live := buckets[b]; !live {
				order.push(b)
			}
			buckets[b] = append(buckets[b], v)
		}
		st.PassDurations = append(st.PassDurations, time.Since(start))
		st.PassChanges = append(st.PassChanges, len(changed))
		st.Passes++
		if opt.Variant == core.Hybrid && avoiding && scanned > 0 &&
			float64(len(changed)) < hybridChangeFraction*float64(scanned) {
			avoiding = false
		}
		return len(changed), nil
	}

	for len(buckets) > 0 {
		// The lowest pending bucket; candidate distances never fall
		// below the current bucket floor, so this advances
		// monotonically.
		cur, ok := order.popLive(buckets)
		if !ok {
			break // unreachable: every map key has a heap id
		}
		st.Buckets++

		for {
			pending := buckets[cur]
			delete(buckets, cur)
			frontier = frontier[:0]
			fronOffs = fronOffs[:1]
			for _, v := range pending {
				if dist[v]>>shift != cur || inFrontier.Test(int(v)) {
					continue
				}
				inFrontier.Set(int(v))
				frontier = append(frontier, v)
				fronOffs = append(fronOffs, fronOffs[len(fronOffs)-1]+offs[v+1]-offs[v])
			}
			if len(frontier) == 0 {
				break
			}
			for _, v := range frontier {
				inFrontier.Clear(int(v))
			}
			if split {
				for _, v := range frontier {
					if !settledBits.TestAndSet(int(v)) {
						settled = append(settled, v)
					}
				}
			}

			// In-bucket pass: light arcs only (they alone can re-fill
			// the current bucket; without the split, all arcs).
			if _, err := relaxPass(frontier, fronOffs, false); err != nil {
				return dist, st, err
			}
			// Improvements may have re-filled the current bucket
			// (short edges); drain it before moving on.
			if _, again := buckets[cur]; !again {
				break
			}
		}

		// Bucket close: the settled vertices' distances are final (heavy
		// arcs reach strictly later buckets, later buckets never improve
		// earlier ones), so each vertex's heavy arcs relax exactly once.
		if split && len(settled) > 0 {
			setOffs = setOffs[:1]
			for _, v := range settled {
				setOffs = append(setOffs, setOffs[len(setOffs)-1]+offs[v+1]-offs[v])
			}
			if _, err := relaxPass(settled, setOffs, true); err != nil {
				return dist, st, err
			}
			for _, v := range settled {
				settledBits.Clear(int(v))
			}
			settled = settled[:0]
		}
	}
	return dist, st, nil
}

// bucketHeap is a binary min-heap of bucket ids. It is lazy: an id is
// pushed whenever its bucket key is (re)created, so after a bucket is
// drained and re-filled the heap can hold stale duplicates — popLive
// discards ids with no live bucket instead of keeping the heap exact.
type bucketHeap []uint64

func (h *bucketHeap) push(b uint64) {
	q := *h
	q = append(q, b)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent] <= q[i] {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

// popLive removes and returns the smallest id that is a live key of
// buckets, discarding stale entries along the way.
func (h *bucketHeap) popLive(buckets map[uint64][]uint32) (uint64, bool) {
	q := *h
	for len(q) > 0 {
		top := q[0]
		last := len(q) - 1
		q[0] = q[last]
		q = q[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(q) && q[l] < q[smallest] {
				smallest = l
			}
			if r < len(q) && q[r] < q[smallest] {
				smallest = r
			}
			if smallest == i {
				break
			}
			q[i], q[smallest] = q[smallest], q[i]
			i = smallest
		}
		if _, live := buckets[top]; live {
			*h = q
			return top, true
		}
	}
	*h = q
	return 0, false
}
