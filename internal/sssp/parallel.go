package sssp

// Parallel weighted SSSP on the internal/par engine: a delta-stepping
// style kernel with the paper's branch-based / branch-avoiding / hybrid
// relaxation inner loops.
//
// The sequential Bellman-Ford kernels in sssp.go sweep every vertex
// every pass. The parallel kernel instead keeps the classic
// delta-stepping shape: tentative distances bucket vertices by
// dist/delta, buckets are processed in nondecreasing order, and each
// relaxation pass pushes only the current bucket's frontier and relaxes
// every arc of it. Meyer & Sanders' split of arcs into light and heavy
// is not used: it cut candidate stores 6x on a mesh, yet queries ran
// slower with it there and on RMAT.
//
// The vertices are split once per query into one range per worker,
// balanced on arcs plus vertices (ownerRanges) and 64-aligned so every
// range holds whole bitset words. A range's owner is the only task that
// writes its distances, its bitset words and its buckets.
// Each pass is a scatter and an owner-computes barrier, so the kernel
// stays race-free without atomics and without a serial merge:
//
//   - Scatter (parallel): the frontier is partitioned into
//     degree-balanced chunks (par.Partition over the frontier's own arc
//     prefix array). Every worker walks its chunk's out-edges against
//     the immutable distance array and emits improving candidates
//     (vertex, proposed distance) into a private buffer. The relaxation
//     test "cand < dist[u]" is the data-dependent branch the paper
//     measures, and the variants differ exactly here: the branch-based
//     loop appends behind a conditional; the branch-avoiding loop
//     performs the paper's Algorithm 5 trick — an unconditional store
//     to the buffer tail plus a mask-computed tail increment — so the
//     candidate buffer plays the role BFS's queue plays in §5.2, stores
//     growing from O(improvements) to O(frontier arcs). Every
//     routeBatch rows a chunk routes its surviving candidates to
//     per-(worker, owner) buffers.
//
//   - Barrier (parallel, one task per owner): each owner folds the
//     candidates routed to it into its distances with a min, in worker
//     order, setting the bit of every improved vertex in its words of
//     the changed bitset; sweeps those words to re-bucket the improved
//     set, in vertex order, by the final post-pass distances; and
//     compacts its share of the next frontier: the current bucket's
//     live entries (stale ones dropped) are marked in its words of the
//     inFrontier bitset and the words swept, so duplicates collapse and
//     the share comes out ascending with its arc-count prefix. The
//     coordinator only concatenates the owners' shares and picks the
//     next bucket. The fold is split by owner because it is not cheap:
//     on a 299k-vertex collaboration graph one goroutine folding and
//     re-bucketing for the whole graph spent about 40 % of a query.
//
// Every frontier is therefore in ascending vertex order, and the
// scatter reads its rows' offsets, arcs, weights and source distances
// in address order. In arrival order each of those loads is a cache
// miss: on the collaboration graph from vertex 0 at one worker (2-vCPU
// Xeon), the widest pass (122k vertices, 772k arcs) scattered at 27–31
// ns/arc in arrival order and 8–9 ns/arc in vertex order, and a whole
// query took 78–90 ms against 39–47 ms.
//
// Buckets need no map and no heap. Candidates produced while processing
// bucket b have distance in [b·delta, (b+1)·delta + maxWeight), so every
// queued bucket id lies in a window of (maxWeight>>shift) + 2 ids from
// the current bucket up; each owner keeps one vertex list per window
// slot, indexed by bucket id modulo the (power-of-two) window length.
// The window grows on demand to that width, so no query sweeps the
// weights to size it, and it is capped, so one huge weight or a tiny
// delta cannot allocate a table of 2^32 slots: ids past the cap wait in
// the owner's far list and move into the window when the current
// bucket comes within a window of them.
//
// Correctness does not depend on delta: any improvement re-activates
// its vertex, so the kernel terminates only at the relaxation fixed
// point — the same labeling Dijkstra produces. Delta only tunes how
// much wasted re-relaxation the schedule admits. Candidates produced
// while processing bucket b have distance >= b*delta (weights are
// non-negative), so buckets are visited in nondecreasing order.
//
// At one worker there is one owner and one chunk, so candidates fold in
// exactly the order they were produced; every counter is deterministic
// there. All per-query scratch (candidate buffers, owner state, the two
// bitsets' words, frontier arrays) lives in a Scratch the caller keeps
// and passes back. Its buffers are reused by capacity, not by shape, so
// one Scratch serves graphs of different sizes, and a query with its
// distance array and a warm Scratch supplied allocates little. The scratch is plain memory the caller
// owns, not a sync.Pool a garbage collection empties. The bitsets are
// plain words with no atomics: only owner o's tasks touch the words of
// o's range, and each task sweeps back to zero the words it set.

import (
	"math/bits"
	"slices"
	"sort"
	"time"
	"unsafe"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
)

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
// identical to Dijkstra's for every variant and both schedules. The
// distances are written into dist, reused by capacity (core.Fit), and
// every other piece of the query's state into s. A cancelled x.Ctx is
// observed before the next scatter pass and returned as the error,
// alongside the tentative distances computed so far.
func Parallel(x par.Exec, g *graph.Weighted, src uint32, opt ParallelOptions, dist []uint64, s *Scratch) ([]uint64, perfcount.Stats, error) {
	n := g.NumVertices()
	dist = initDist(dist, n, src)
	var st perfcount.Stats
	if n == 0 || int(src) >= n {
		return dist, st, nil
	}
	q := newQuery(x.Pool.Workers(), g, dist, opt, s)
	defer q.release()

	src0 := &q.owners[q.s.ownerOf[src/64]]
	src0.push(src, 0, 0)
	src0.next = 0
	// Buckets in nondecreasing order; candidate distances never fall
	// below the current bucket floor, so the lowest queued one advances
	// monotonically.
	for q.cur = q.lowest(); q.cur != noBucket; q.cur = q.lowest() {
		st.Buckets++
		//ba:atomic-free
		x.Pool.Run(len(q.owners), q.openTask)

		// In-bucket passes until no owner has a live vertex left in the
		// current bucket.
		for f := q.gather(); len(f.verts) > 0; f = q.gather() {
			if err := q.pass(x, &st, f); err != nil {
				return dist, st, err
			}
		}
	}
	return dist, st, nil
}

// lowest returns the lowest queued bucket id over all owners, noBucket
// when nothing is queued.
func (q *query) lowest() uint64 {
	b := noBucket
	for o := range q.owners {
		b = min(b, q.owners[o].next)
	}
	return b
}

// pass is one scatter + barrier over l: scatter every vertex's arcs
// against the immutable distance array into per-worker candidate
// buffers, routed by owner, then let every owner fold, re-bucket and
// compact its share. Chunks are degree-balanced; under par.Stealing
// idle workers take whole chunks from stragglers (an RMAT hub's chunk
// can no longer stall the pass barrier behind it).
func (q *query) pass(x par.Exec, st *perfcount.Stats, l *vertexList) error {
	start := time.Now()
	scanned := l.arcs[len(l.arcs)-1]
	q.verts = l.verts
	chunks := par.Partition(l.arcs, par.ChunkCount(x.Pool.Workers(), x.Schedule), 1)
	//ba:atomic-free
	if err := x.Pass(st, chunks, q.scatterTask); err != nil {
		return err
	}
	//ba:atomic-free
	x.Pool.Run(len(q.owners), q.settleTask)

	changed := 0
	for t := range q.workers {
		st.CandStores += q.workers[t].stores
		q.workers[t].stores = 0
	}
	for o := range q.owners {
		ow := &q.owners[o]
		st.DistStores += ow.distStores
		st.LightRelaxed += ow.relaxed
		changed += ow.improved
		ow.distStores, ow.relaxed = 0, 0
	}
	st.PassDurations = append(st.PassDurations, time.Since(start))
	st.PassChanges = append(st.PassChanges, changed)
	st.Passes++
	if q.hybrid && q.avoiding && scanned > 0 &&
		float64(changed) < core.HybridChangeFraction*float64(scanned) {
		q.avoiding = false
	}
	return nil
}

// noBucket is the "no queued vertex" bucket id.
const noBucket = ^uint64(0)

// maxWindow caps an owner's bucket window: ids further than this past
// the current bucket wait in the far list instead of growing the table.
const maxWindow = 1 << 12

// vertexList is a vertex list with its arc-count prefix: arcs[i] is the
// total degree of verts[:i], so len(arcs) == len(verts)+1 and the list
// feeds par.Partition directly.
type vertexList struct {
	verts []uint32
	arcs  []int64
}

func (l *vertexList) bytes() int64 { return 4*int64(cap(l.verts)) + 8*int64(cap(l.arcs)) }

func (l *vertexList) reset() {
	l.verts = l.verts[:0]
	l.arcs = append(l.arcs[:0], 0)
}

func (l *vertexList) push(v uint32, deg int64) {
	l.verts = append(l.verts, v)
	l.arcs = append(l.arcs, l.arcs[len(l.arcs)-1]+deg)
}

// concat appends src to l, rebasing src's prefix onto l's total.
func (l *vertexList) concat(src *vertexList) {
	base := l.arcs[len(l.arcs)-1]
	l.verts = append(l.verts, src.verts...)
	for _, a := range src.arcs[1:] {
		l.arcs = append(l.arcs, base+a)
	}
}

// farEntry is a queued vertex whose bucket id lay past its owner's
// window when it was queued.
type farEntry struct {
	v uint32
	b uint64
}

// worker is one scatter worker's private state, padded so neighbours'
// counters do not share a cache line.
type worker struct {
	buf    []candidate   // the current batch's surviving candidates
	out    [][]candidate // routed candidates, one buffer per owner
	stores uint64        // candidate stores this pass
	sink   uint64        // prefetch accumulator, published so the early loads stay live
	_      [64]byte
}

// owner is the state of one owned vertex range between passes. Only the
// owner's own tasks touch it, and they touch only the range's distances
// and bitset words, words [lo, hi) of the scratch's two word sets.
type owner struct {
	lo, hi int // the range's bitset words

	// window[b & (len(window)-1)] holds the vertices queued for bucket b,
	// for b in [cur, cur+len(window)). Entries go stale when a vertex
	// improves again; staleness is filtered when the bucket is compacted
	// into a frontier, so duplicates are harmless. The window starts at
	// two slots and doubles on demand up to maxSlots; it is recycled
	// with the scratch at the width it reached.
	window   [][]uint32
	maxSlots int
	far      []farEntry // queued vertices with b >= cur+len(window) when queued
	farMin   uint64     // lowest bucket id in far, noBucket if far is empty
	next     uint64     // lowest queued bucket id, noBucket if none

	improved int        // vertices this pass improved
	front    vertexList // this owner's share of the next frontier, ascending

	distStores, relaxed uint64
	_                   [64]byte
}

// push queues v for bucket b while cur is the current bucket, growing
// the window up to maxSlots to take b.
func (o *owner) push(v uint32, b, cur uint64) {
	for b-cur >= uint64(len(o.window)) && len(o.window) < o.maxSlots {
		o.grow(cur)
	}
	if b-cur < uint64(len(o.window)) {
		i := b & uint64(len(o.window)-1)
		o.window[i] = append(o.window[i], v)
		return
	}
	o.far = append(o.far, farEntry{v, b})
	o.farMin = min(o.farMin, b)
}

// grow doubles the window, moving every list to its bucket's slot in
// the wider window. Far entries exist only once the window is at its
// cap, so growing never leaves one inside the window.
func (o *owner) grow(cur uint64) {
	w := make([][]uint32, 2*len(o.window))
	for b := cur; b-cur < uint64(len(o.window)); b++ {
		w[b&uint64(len(w)-1)] = o.window[b&uint64(len(o.window)-1)]
	}
	o.window = w
}

// rebase moves the far entries a window starting at cur now covers into
// the window. cur never exceeds farMin: far ids are candidates for the
// next bucket like any other.
func (o *owner) rebase(cur uint64) {
	if o.farMin-cur >= uint64(len(o.window)) {
		return
	}
	kept := o.far[:0]
	o.farMin = noBucket
	for _, e := range o.far {
		if e.b-cur < uint64(len(o.window)) {
			i := e.b & uint64(len(o.window)-1)
			o.window[i] = append(o.window[i], e.v)
			continue
		}
		kept = append(kept, e)
		o.farMin = min(o.farMin, e.b)
	}
	o.far = kept
}

// nextBucket returns the lowest queued bucket id at or after cur. Far
// ids all lie past the window, so a window hit is the answer.
func (o *owner) nextBucket(cur uint64) uint64 {
	mask := uint64(len(o.window) - 1)
	for b := cur; b-cur < uint64(len(o.window)); b++ {
		if len(o.window[b&mask]) > 0 {
			return b
		}
	}
	return o.farMin
}

// ownerRanges splits [0, n) into at most parts 64-aligned ranges of
// near-equal owner work. An owner folds the candidates aimed at its
// vertices, about one per arc, and re-buckets and compacts per improved
// vertex, so a vertex costs its degree plus the mean degree: arcs and
// vertices weigh half each. Balancing on arcs alone (par.Partition)
// left the owner of a collaboration graph's low-degree tail about three
// times the barrier work of the hubs' owner.
func ownerRanges(offs []int64, parts int) []par.Range {
	n := len(offs) - 1
	perVertex := max(offs[n]/int64(n), 1)
	cost := func(v int) int64 { return offs[v] + perVertex*int64(v) }
	ranges := make([]par.Range, 0, parts)
	lo := 0
	for k := 1; k <= parts && lo < n; k++ {
		hi := n
		if k < parts {
			target := cost(n) * int64(k) / int64(parts)
			hi = sort.Search(n, func(v int) bool { return cost(v) >= target }) / 64 * 64
		}
		if hi > lo {
			ranges = append(ranges, par.Range{Lo: lo, Hi: hi})
			lo = hi
		}
	}
	return ranges
}

// Scratch is everything a Parallel query needs besides its distance
// array: the owner map of the bitset words, the worker and owner state
// (candidate buffers, bucket windows, far lists, frontier shares), the
// two bitsets' words and the coordinator's frontier. Buffers are reused
// by capacity, so one Scratch serves graphs of any size and pool size
// and, once it has served the largest, allocates nothing more. A query
// returns it clean: empty lists and buffers, all-zero bitsets. The zero
// value is ready; a Scratch must not be shared by concurrent queries.
type Scratch struct {
	ownerOf []int32 // owner index of every 64-vertex bitset word
	workers []worker
	owners  []owner
	// Bit v of inFrontier marks v for the frontier under construction,
	// bit v of changed marks v improved this pass. Each is set and swept
	// back to zero within one owner task, so between tasks both are
	// all-zero, past the current graph's words too.
	inFrontier, changed []uint64
	// frontier is the coordinator's concatenation of the owners'
	// frontier shares when there are several owners.
	frontier vertexList
	// heap is DijkstraCtx's priority queue.
	heap minHeap
}

// prepare sizes the scratch for a graph of nwords bitset words on a
// pool of workers, keeping every buffer that is already large enough.
func (s *Scratch) prepare(nwords, workers int) {
	// A reallocated word set is zero, and a resliced one is zero by the
	// invariant above.
	s.ownerOf = core.Fit(s.ownerOf, nwords)
	s.inFrontier, s.changed = core.Fit(s.inFrontier, nwords), core.Fit(s.changed, nwords)
	for len(s.workers) < workers {
		s.workers = append(s.workers, worker{})
	}
	for t := range s.workers[:workers] {
		w := &s.workers[t]
		for len(w.out) < workers {
			w.out = append(w.out, nil)
		}
	}
	for len(s.owners) < workers {
		s.owners = append(s.owners, owner{window: make([][]uint32, 2), farMin: noBucket})
	}
}

// Bytes returns the capacity of the scratch's buffers, in bytes.
func (s *Scratch) Bytes() int64 {
	const cand, far = int64(unsafe.Sizeof(candidate{})), int64(unsafe.Sizeof(farEntry{}))
	b := 4*int64(cap(s.ownerOf)) + 8*int64(cap(s.inFrontier)+cap(s.changed)) + s.frontier.bytes() + s.heap.bytes()
	for t := range s.workers {
		w := &s.workers[t]
		b += cand * int64(cap(w.buf))
		for _, o := range w.out {
			b += cand * int64(cap(o))
		}
	}
	for o := range s.owners {
		ow := &s.owners[o]
		for _, l := range ow.window {
			b += 4 * int64(cap(l))
		}
		b += far*int64(cap(ow.far)) + ow.front.bytes()
	}
	return b
}

// query is one Parallel call's state: the graph, the scratch, the
// fixed parameters and the per-pass ones the tasks read.
type query struct {
	s       *Scratch
	workers []worker // s.workers[:pool size]
	owners  []owner  // s.owners[:ranges]

	dist    []uint64
	offs    []int64
	adj, ws []uint32
	shift   uint

	hybrid   bool     // the variant is core.Hybrid
	avoiding bool     // the current pass runs the branch-avoiding loops
	cur      uint64   // the current bucket
	verts    []uint32 // the current pass's vertices

	// The task bodies, bound once: a method value made at each pass
	// would allocate each pass.
	scatterTask          func(int, par.Range)
	settleTask, openTask func(int)
}

func newQuery(workers int, g *graph.Weighted, dist []uint64, opt ParallelOptions, s *Scratch) *query {
	offs := g.Offsets()
	s.prepare((len(dist)+63)/64, workers)
	q := &query{
		s:        s,
		workers:  s.workers[:workers],
		dist:     dist,
		offs:     offs,
		adj:      g.Adjacency(),
		ws:       g.ArcWeights(),
		shift:    deltaShift(opt.Delta, g),
		hybrid:   opt.Variant == core.Hybrid,
		avoiding: opt.Variant == core.BranchAvoiding || opt.Variant == core.Hybrid,
	}
	q.scatterTask, q.settleTask, q.openTask = q.scatter, q.settle, q.open
	ranges := ownerRanges(offs, workers)
	q.owners = s.owners[:len(ranges)]
	// The window cap also scales with |V|, so a small graph's window
	// stays O(|V|) whatever its weights; the far list holds the rest. A
	// window a larger graph widened past the cap keeps its width: the
	// bucket order, and so every counter, does not depend on it.
	maxSlots := min(maxWindow, 1<<bits.Len(uint(len(dist)-1)))
	for o, r := range ranges {
		ow := &q.owners[o]
		ow.lo, ow.hi = r.Lo/64, (r.Hi+63)/64
		for w := ow.lo; w < ow.hi; w++ {
			s.ownerOf[w] = int32(o)
		}
		ow.maxSlots = maxSlots
		ow.next = noBucket
	}
	return q
}

// release empties every list and buffer the query may have left
// non-empty (a cancelled query stops between passes with vertices
// queued), so the scratch is clean for the next query.
func (q *query) release() {
	for o := range q.owners {
		ow := &q.owners[o]
		for i := range ow.window {
			ow.window[i] = ow.window[i][:0]
		}
		ow.far, ow.farMin = ow.far[:0], noBucket
		ow.front.reset()
		ow.improved, ow.distStores, ow.relaxed = 0, 0, 0
	}
	for t := range q.workers {
		w := &q.workers[t]
		w.buf = w.buf[:0]
		for o := range w.out {
			w.out[o] = w.out[o][:0]
		}
		w.stores = 0
	}
}

// gather returns the next frontier: the concatenation, in owner order,
// of the owners' frontier shares — the owner's own share when there is
// one owner, else the scratch frontier refilled.
func (q *query) gather() *vertexList {
	if len(q.owners) == 1 {
		return &q.owners[0].front
	}
	total := 0
	for o := range q.owners {
		total += len(q.owners[o].front.verts)
	}
	dst := &q.s.frontier
	dst.verts = slices.Grow(dst.verts[:0], total)
	dst.arcs = slices.Grow(dst.arcs[:0], total+1)
	dst.reset()
	for o := range q.owners {
		dst.concat(&q.owners[o].front)
	}
	return dst
}

// routeBatch is how many frontier vertices a chunk relaxes between two
// routings: few enough that the candidates are routed from cache, and
// that the scratch buffer stays small whatever the chunk's size.
const routeBatch = 512

// scatter is the pass's chunk body: relax chunk r of the pass's vertices
// into worker t's buffers. With one owner the candidates go straight to
// its buffer; otherwise every routeBatch vertices' survivors are routed
// to their owners.
func (q *query) scatter(t int, r par.Range) {
	w := &q.workers[t]
	verts := q.verts[r.Lo:r.Hi]
	if len(q.owners) == 1 {
		w.out[0] = q.relax(w, w.out[0], verts)
		return
	}
	for len(verts) > 0 {
		k := min(routeBatch, len(verts))
		w.buf = q.relax(w, w.buf[:0], verts[:k])
		route(w.out[:len(q.owners)], w.buf, q.s.ownerOf)
		verts = verts[k:]
	}
}

// relax appends the surviving candidates of verts' rows to buf with the
// pass's loop, counting the stores on w.
func (q *query) relax(w *worker, buf []candidate, verts []uint32) []candidate {
	var stores uint64
	if q.avoiding {
		var pf uint64
		buf, stores, pf = scatterAvoiding(buf, verts, q.offs, q.adj, q.ws, q.dist)
		w.sink ^= pf
	} else {
		buf, stores = scatterBased(buf, verts, q.offs, q.adj, q.ws, q.dist)
	}
	w.stores += stores
	return buf
}

// route appends every candidate to its owner's buffer. The buffer
// headers are copied into a stack array for the loop: headers that sit
// next to each other in shared memory would false-share with the
// workers routing beside this one.
func route(out [][]candidate, cands []candidate, ownerOf []int32) {
	var local [8][]candidate
	l := out
	if len(out) <= len(local) {
		l = local[:len(out)]
		copy(l, out)
	}
	// Room for the whole batch in every buffer, grown by doubling:
	// append's quarter-size steps would copy a large buffer five times
	// over while a cold scratch fills.
	for o := range l {
		if cap(l[o])-len(l[o]) < len(cands) {
			l[o] = slices.Grow(l[o], max(len(cands), cap(l[o])))
		}
	}
	for _, c := range cands {
		o := ownerOf[c.v/64]
		l[o] = append(l[o], c)
	}
	copy(out, l)
}

// scatterAvoiding is the branch-avoiding scatter over verts' rows: every
// arc stores a candidate at the buffer tail, and the relaxation mask
// decides whether the tail keeps it. It returns the buffer, the stores
// made and the prefetch accumulator.
func scatterAvoiding(buf []candidate, verts []uint32, offs []int64, adj, ws []uint32, dist []uint64) ([]candidate, uint64, uint64) {
	stores, pf := uint64(0), uint64(0)
	for _, v := range verts {
		dv := dist[v]
		lo, hi := offs[v], offs[v+1]
		// Room for the unconditional tail stores: every edge writes a
		// slot, the mask decides whether the tail keeps it.
		need := len(buf) + int(hi-lo)
		if cap(buf) < need {
			nb := make([]candidate, len(buf), need+need/2)
			copy(nb, buf)
			buf = nb
		}
		buf = buf[:need]
		tail := need - int(hi-lo)
		// The row runs software-prefetch shaped: the scatter's miss is the
		// dependent dist[adj[j]] load, so the main loop issues the load
		// core.Lookahead arcs ahead into an accumulator before consuming
		// arc j, with a mask-free tail loop finishing the row — no
		// data-dependent branch appears in either.
		la := hi - core.Lookahead
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
		stores += uint64(hi - lo)
		buf = buf[:tail]
	}
	return buf, stores, pf
}

// scatterBased is the branch-based scatter over verts' rows: a
// candidate is appended behind the relaxation test. It returns the
// buffer and the stores made.
func scatterBased(buf []candidate, verts []uint32, offs []int64, adj, ws []uint32, dist []uint64) ([]candidate, uint64) {
	stores := uint64(0)
	for _, v := range verts {
		dv := dist[v]
		for j := offs[v]; j < offs[v+1]; j++ {
			u := adj[j]
			c := dv + uint64(ws[j])
			if c < dist[u] {
				buf = append(buf, candidate{u, c})
				stores++
			}
		}
	}
	return buf, stores
}

// settle is owner o's barrier task: fold the candidates routed to it,
// re-bucket the improved vertices in vertex order, and compact the
// owner's share of the next frontier.
func (q *query) settle(o int) {
	ow := &q.owners[o]
	for t := range q.workers {
		out := q.workers[t].out
		var relaxed uint64
		if q.avoiding {
			relaxed = foldAvoiding(q.dist, out[o], q.s.changed)
			ow.distStores += uint64(len(out[o]))
		} else {
			relaxed = foldBased(q.dist, out[o], q.s.changed)
			ow.distStores += relaxed
		}
		ow.relaxed += relaxed
		out[o] = out[o][:0]
	}
	ow.improved = 0
	words := q.s.changed[ow.lo:ow.hi]
	for i, word := range words {
		if word == 0 {
			continue
		}
		words[i] = 0
		ow.improved += bits.OnesCount64(word)
		base := uint32(ow.lo+i) * 64
		for ; word != 0; word &= word - 1 {
			v := base + uint32(bits.TrailingZeros64(word))
			ow.push(v, q.dist[v]>>q.shift, q.cur)
		}
	}
	q.compact(ow)
}

// open is owner o's bucket-open task: move far entries the new window
// covers into it, then compact the owner's share of the frontier.
func (q *query) open(o int) {
	ow := &q.owners[o]
	ow.rebase(q.cur)
	q.compact(ow)
}

// compact drains the owner's list for the current bucket into its
// frontier share and records the owner's next queued bucket. The list's
// live entries — those whose vertex is still in the current bucket —
// are marked in the owner's inFrontier words, which are then swept, so
// the share comes out in ascending vertex order with stale entries and
// duplicates dropped, and the scatter reads its rows in address order.
func (q *query) compact(ow *owner) {
	ow.front.reset()
	i := q.cur & uint64(len(ow.window)-1)
	pending := ow.window[i]
	if len(pending) > 0 {
		words := q.s.inFrontier
		for _, v := range pending {
			live := core.MaskEqual64(q.dist[v]>>q.shift, q.cur)
			words[v/64] |= core.Bit64(live) << (v % 64)
		}
		words = words[ow.lo:ow.hi]
		for i, word := range words {
			if word == 0 {
				continue
			}
			words[i] = 0
			base := uint32(ow.lo+i) * 64
			for ; word != 0; word &= word - 1 {
				v := base + uint32(bits.TrailingZeros64(word))
				ow.front.push(v, q.offs[v+1]-q.offs[v])
			}
		}
	}
	ow.window[i] = pending[:0]
	ow.next = ow.nextBucket(q.cur)
}

// foldAvoiding folds cands into dist with a mask-select min — one store
// per candidate — and sets the bit in changed of every vertex it
// improves. It returns the improvements.
func foldAvoiding(dist []uint64, cands []candidate, changed []uint64) uint64 {
	relaxed := uint64(0)
	//ba:branch-free
	for _, c := range cands {
		dv := dist[c.v]
		m := core.MaskLess64(c.d, dv)
		dist[c.v] = core.Select64(m, c.d, dv)
		relaxed += core.Bit64(m)
		changed[c.v/64] |= core.Bit64(m) << (c.v % 64)
	}
	return relaxed
}

// foldBased is foldAvoiding with the min behind a branch: only
// improvements store.
func foldBased(dist []uint64, cands []candidate, changed []uint64) uint64 {
	relaxed := uint64(0)
	for _, c := range cands {
		if c.d < dist[c.v] {
			dist[c.v] = c.d
			relaxed++
			changed[c.v/64] |= 1 << (c.v % 64)
		}
	}
	return relaxed
}
