// Package par provides the data-parallel execution engine shared by the
// parallel kernel variants: a small persistent worker pool, a
// degree-balanced CSR vertex-range partitioner, and a chunked
// work-stealing scheduler for skewed passes.
//
// The branch-avoiding kernels win exactly when per-element work is tiny
// (a load, a compare, a conditional move), which is also the regime where
// one core leaves the memory system idle. The engine keeps the paper's
// inner loops untouched and parallelizes the outer vertex sweep: each
// pass, every worker owns a contiguous vertex range chosen so ranges have
// near-equal *arc* counts (vertex-balanced splits starve workers on
// skewed degree distributions such as the RMAT corpus graphs). Workers
// write only to state owned by their range and merge per-worker
// accumulators (change counts, frontier queues) at a barrier, so kernels
// built on the engine are free of data races without per-element atomics.
//
// A static launch-time split pays nothing during the pass but stalls
// the barrier on a straggler when the work is skewed (an RMAT hub in
// one range, a sparse late-level frontier). RunChunks therefore
// over-decomposes a pass into arc-balanced chunks and, under the
// Stealing schedule, lets idle workers take whole chunks from the
// most-loaded victim through a single atomic cursor fetch — control
// flow is bought once per chunk, and the per-element inner loops the
// paper transforms stay branch-free and atomic-free.
package par

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bagraph/internal/perfcount"
)

// Range is a half-open vertex interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of vertices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Partition splits the vertex set [0, n) of a CSR graph into at most
// parts contiguous ranges with near-equal arc counts, where offs is the
// graph's offsets array (len n+1). Every boundary except 0 and n is
// rounded down to a multiple of align (align <= 1 means no alignment);
// alignment lets bitset-writing kernels give each worker exclusive
// ownership of whole 64-bit words. The returned ranges are non-empty,
// sorted, and cover [0, n) exactly.
func Partition(offs []int64, parts, align int) []Range {
	n := len(offs) - 1
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if align < 1 {
		align = 1
	}
	total := offs[n]
	ranges := make([]Range, 0, parts)
	lo := 0
	for k := 1; k <= parts && lo < n; k++ {
		var hi int
		if k == parts {
			hi = n
		} else {
			// First vertex whose prefix arc count reaches the k-th
			// equal-volume target; offs is non-decreasing so this is a
			// binary search.
			target := total * int64(k) / int64(parts)
			hi = sort.Search(n, func(v int) bool { return offs[v] >= target })
			hi = hi / align * align
			if hi > n {
				hi = n
			}
		}
		if hi <= lo {
			continue
		}
		ranges = append(ranges, Range{lo, hi})
		lo = hi
	}
	// The k == parts arm pins hi to n, so the loop always exits with
	// lo == n: the ranges cover [0, n) exactly.
	return ranges
}

// PartitionSlice splits [0, n) into at most parts near-equal-count
// ranges, for work without a degree skew to balance (frontier chunks,
// plain index sweeps).
func PartitionSlice(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	ranges := make([]Range, 0, parts)
	for k := 0; k < parts; k++ {
		lo := n * k / parts
		hi := n * (k + 1) / parts
		if hi > lo {
			ranges = append(ranges, Range{lo, hi})
		}
	}
	return ranges
}

// Pool is a fixed set of persistent worker goroutines. A Pool amortizes
// goroutine startup across the many short barrier-synchronized passes of
// an iterative kernel (an SV pass or a BFS level each end at a barrier).
// A Pool must be released with Close by whoever started it; the kernels
// only borrow one through an Exec.
type Pool struct {
	workers int
	tasks   chan task
	closed  sync.Once
}

type task struct {
	fn   func(i int)
	i    int
	done *sync.WaitGroup
}

// DefaultWorkers resolves a worker-count request: values < 1 mean
// GOMAXPROCS.
func DefaultWorkers(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// NewPool starts a pool of the given size; workers < 1 means GOMAXPROCS.
func NewPool(workers int) *Pool {
	workers = DefaultWorkers(workers)
	p := &Pool{workers: workers, tasks: make(chan task)}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range p.tasks {
				t.fn(t.i)
				t.done.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(0), ..., fn(n-1) across the pool's workers and returns
// when all calls have completed — the return is the pass barrier. Calls
// run concurrently (at most Workers at a time), so distinct indices must
// not write shared state.
func (p *Pool) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 || p.workers == 1 {
		// Degenerate case: run inline, no cross-goroutine handoff.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		p.tasks <- task{fn: fn, i: i, done: &done}
	}
	done.Wait()
}

// Close stops the worker goroutines. The pool must not be used after
// Close; Close is idempotent.
func (p *Pool) Close() {
	p.closed.Do(func() { close(p.tasks) })
}

// Schedule selects how a pass's chunks are assigned to workers.
type Schedule int

const (
	// Static gives each worker one contiguous block of the chunk list,
	// fixed for the whole pass — the launch-time partitioning the
	// original engine used, with zero scheduling traffic. A straggler
	// block stalls the pass barrier.
	Static Schedule = iota
	// Stealing also blocks the chunk list contiguously, but workers
	// drain their block through an atomic cursor and, when empty, steal
	// whole chunks from the most-loaded victim's cursor. Control-flow
	// cost is paid once per chunk, never per element: the chunk bodies
	// the kernels run stay atomic-free.
	Stealing
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Stealing:
		return "stealing"
	default:
		return "unknown"
	}
}

// DefaultChunkFactor is the chunks-per-worker over-decomposition the
// Stealing schedule uses. More chunks mean finer rebalancing but more
// cursor traffic; 8 keeps the per-chunk amortization deep while letting
// a straggler shed 7/8 of its backlog.
const DefaultChunkFactor = 8

// ChunkCount returns the chunk-list length a pass should partition
// into: one chunk per worker under Static (the original launch-time
// split), DefaultChunkFactor chunks per worker under Stealing.
func ChunkCount(workers int, sched Schedule) int {
	if sched == Static {
		return workers
	}
	return workers * DefaultChunkFactor
}

// ChunkStats describes the scheduling work of one RunChunks pass.
type ChunkStats struct {
	// Chunks is the length of the chunk list.
	Chunks int
	// Steals counts chunks executed by a worker that did not own them.
	Steals uint64
	// StealPasses counts victim-selection scans (each picks the
	// most-loaded victim and takes one chunk from its cursor).
	StealPasses uint64
}

// chunkCursor is one worker's next-chunk index, padded to a cache line
// so cursor traffic from thieves does not false-share with neighbors.
type chunkCursor struct {
	next int64
	_    [7]int64
}

// RunChunks executes fn once per chunk across the pool and returns at
// the pass barrier. fn receives the executing worker's index (dense in
// [0, Workers())) and the chunk; all fn calls for one worker index run
// serially on one goroutine, so per-worker accumulators indexed by it
// need no atomics — the only atomics are the chunk cursors inside the
// scheduler itself, one fetch per chunk handoff.
//
// Under Static every worker runs exactly its contiguous block of the
// chunk list. Under Stealing a worker that drains its block scans for
// the victim with the most chunks left and takes one chunk per scan
// until every cursor is exhausted; a pass with no idle workers degrades
// to Static plus one atomic per chunk.
func (p *Pool) RunChunks(chunks []Range, sched Schedule, fn func(worker int, c Range)) ChunkStats {
	st := ChunkStats{Chunks: len(chunks)}
	if len(chunks) == 0 {
		return st
	}
	blocks := PartitionSlice(len(chunks), p.workers)
	if sched == Static || len(blocks) == 1 {
		p.Run(len(blocks), func(w int) {
			for i := blocks[w].Lo; i < blocks[w].Hi; i++ {
				fn(w, chunks[i])
			}
		})
		return st
	}
	cursors := make([]chunkCursor, len(blocks))
	for w := range blocks {
		cursors[w].next = int64(blocks[w].Lo)
	}
	// Per-worker steal counters, padded like the cursors; folded into
	// st after the barrier (the barrier is the happens-before edge).
	counts := make([]chunkCursor, 2*len(blocks))
	// The scheduler's cursor fetches are the only sanctioned atomics in
	// the engine: one per chunk handoff, never per element. The chunk
	// bodies (fn) stay atomic-free — balint enforces it.
	//ba:atomic-free
	p.Run(len(blocks), func(w int) {
		// Drain the worker's own block. The owner pops through the same
		// cursor thieves steal from, so a chunk runs exactly once.
		for {
			//ba:allow-atomic owner pop: one cursor fetch per chunk, shared with thieves so each chunk runs exactly once
			i := atomic.AddInt64(&cursors[w].next, 1) - 1
			if i >= int64(blocks[w].Hi) {
				break
			}
			fn(w, chunks[i])
		}
		// Steal: one scan picks the most-loaded victim, one atomic
		// fetch takes a chunk. Rescanning per chunk keeps the
		// most-loaded choice honest as backlogs drain.
		for {
			victim, best := -1, int64(0)
			for v := range blocks {
				if v == w {
					continue
				}
				//ba:allow-atomic victim scan: cursor loads to find the most-loaded backlog, one scan per steal
				if rem := int64(blocks[v].Hi) - atomic.LoadInt64(&cursors[v].next); rem > best {
					best, victim = rem, v
				}
			}
			if victim < 0 {
				break
			}
			counts[2*w+1].next++ // steal pass
			//ba:allow-atomic steal fetch: the one cursor increment that transfers a chunk to the thief
			i := atomic.AddInt64(&cursors[victim].next, 1) - 1
			if i >= int64(blocks[victim].Hi) {
				continue // another thief won the last chunk; rescan
			}
			fn(w, chunks[i])
			counts[2*w].next++ // steal
		}
	})
	for w := range blocks {
		st.Steals += uint64(counts[2*w].next)
		st.StealPasses += uint64(counts[2*w+1].next)
	}
	return st
}

// Exec is the handle an engine kernel runs its passes through: the
// caller's context, the worker pool (caller-owned; a kernel never starts
// or closes one) and the chunk schedule. The kernels take an Exec plus
// their own arguments and dispatch every pass with Pass, so the
// barrier-only cancellation contract lives at one call site.
type Exec struct {
	Ctx      context.Context
	Pool     *Pool
	Schedule Schedule
}

// Pass runs one barrier-synchronized pass: it polls Ctx.Err() exactly
// once, before dispatch, and returns that error without running a chunk;
// otherwise it runs the chunks under the schedule (see RunChunks for
// fn's contract), folds the scheduler counters into st and returns nil
// at the barrier. Workers never observe the context — once dispatched a
// pass runs every chunk, which is what keeps the kernels' inner loops
// free of per-element atomics and branches; the granularity of
// cancellation is one pass (one SV sweep, one BFS level, one SSSP
// scatter). Cancellation is detected through Err() alone, never Done(),
// so tests can drive barrier-exact cancellation with an Err-only
// context.
func (x Exec) Pass(st *perfcount.Stats, chunks []Range, fn func(worker int, c Range)) error {
	if err := x.Ctx.Err(); err != nil {
		return err
	}
	cst := x.Pool.RunChunks(chunks, x.Schedule, fn)
	st.Chunks += cst.Chunks
	st.Steals += cst.Steals
	st.StealPasses += cst.StealPasses
	return nil
}
