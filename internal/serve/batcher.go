package serve

// The batching dispatcher. The paper's branch-avoiding kernels win
// exactly when per-query work is small — a BFS on a mid-size graph is
// milliseconds — which makes a query-serving daemon pay more for
// per-request goroutine churn and cold pools than for the traversal
// itself. The dispatcher amortizes that: concurrent traversal requests
// against the same (graph, kind, algorithm) are coalesced for a short
// window into one batch, and the batch of source vertices is fanned out
// across the one resident worker pool. Kernels that parallelize
// internally (par-*) instead run back to back, each owning the whole
// pool. The multi-source BFS kernel ("ms") coalesces deeper still: the
// whole batch becomes one kernel run whose shared level sweeps advance
// every batched source at once. CC queries have no per-request source,
// so they coalesce hardest: concurrent identical queries share a single
// kernel run and the label array is cached on the graph entry until its
// epoch is retired.
//
// Every request carries its originating context (the HTTP request's,
// for daemon traffic), threaded through Submit down to the kernel pass
// barriers. A request whose context dies while queued is dropped from
// the coalesced dispatch without running; a batch whose every waiter
// is gone cancels its shared kernel run at the next barrier.
//
// Every BFS and SSSP request that runs on its own (everything but the
// "ms" batches) runs in a bagraph.Workspace checked out from the
// batcher's free list, so a warm daemon allocates neither the |V|-sized
// answer arrays nor the kernels' scratch per query. The answer aliases
// the workspace, and the HTTP handler encodes it into a buffer the
// workspace also holds, so it goes back only after the handler has
// written the answer (or at once, on a kernel error). The free list is
// a plain slice, not a sync.Pool, because a garbage collection empties
// a pool and the workspaces are worth keeping; it holds at most
// Workers() of them and lets any further one go to the GC. Workspaces
// grow to the largest graph they serve, so the memory the batcher keeps
// is at most Workers() times that graph's footprint, plus whatever
// queries hold at the moment; /metrics publishes both the count and the
// bytes. An answer nobody releases — a caller in the same process
// calling Local directly — is simply collected, though the gauges keep
// counting it.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"bagraph"
	"bagraph/internal/algoreq"
	"bagraph/internal/cc"
	"bagraph/internal/tune"
)

// Kind separates the two traversal families a batch can hold.
type Kind int

// Traversal families.
const (
	KindBFS Kind = iota
	KindSSSP
)

// Request is one traversal query: a source vertex against a resident
// graph with a canonical algorithm name, on behalf of a context.
type Request struct {
	entry *Entry
	kind  Kind
	algo  string
	root  uint32
	ctx   context.Context
	done  chan Result
	// settled is set by whichever comes first: the dispatcher handing
	// over a result that holds a workspace, or the waiter giving up on
	// its context. The loser returns the workspace (see deliver).
	settled atomic.Bool
}

// Result is the outcome of one batched traversal. Exactly one of Hops
// and Dists is set, matching the request kind.
type Result struct {
	// Hops are BFS hop distances (bfs.Inf sentinel for unreached).
	Hops []uint32
	// Dists are weighted SSSP distances (sssp.Inf sentinel).
	Dists []uint64
	// Stats are the kernel counters of the run that served this
	// request. For a multi-source batch they describe the one shared
	// run every batched query rode.
	Stats bagraph.Stats
	// Batch is the number of requests dispatched together, the
	// coalescing observability hook the tests and clients read.
	Batch int
	// Err is the per-request failure, if any; a request abandoned by
	// its context carries the context's error.
	Err error

	// ws is the workspace Hops or Dists alias, nil when the answer owns
	// its memory; ws.release gives it back once the answer is written.
	ws *workspace
}

// workspace is a bagraph.Workspace the batcher lends to one BFS or
// SSSP request, with the buffer the answer is encoded into.
type workspace struct {
	bagraph.Workspace
	body  []byte
	b     *Batcher
	bytes int64 // Bytes() when it last came back to the batcher
}

// Bytes returns the capacity the workspace holds: the kernel
// workspace's and the answer buffer's.
func (w *workspace) Bytes() int64 { return w.Workspace.Bytes() + int64(cap(w.body)) }

// answerBuf returns the buffer an answer aliasing w is encoded into:
// the workspace's own, or a fresh one when the answer owns its memory
// (a nil w).
func (w *workspace) answerBuf() *[]byte {
	if w == nil {
		return new([]byte)
	}
	return &w.body
}

// release returns the workspace to its batcher. A nil workspace (an
// answer that owns its memory) is a no-op. The answer that aliased it
// must not be read afterwards.
func (w *workspace) release() {
	if w != nil {
		w.b.putWorkspace(w)
	}
}

// batchKey identifies the batch a request may join: same graph entry
// (and therefore same epoch), same traversal kind, same canonical
// algorithm.
type batchKey struct {
	entry *Entry
	kind  Kind
	algo  string
}

// pendingBatch accumulates requests until the window timer fires or the
// batch fills.
type pendingBatch struct {
	key     batchKey
	reqs    []*Request
	timer   *time.Timer
	flushed bool
}

// Batcher owns the worker pool and the pending-batch table.
type Batcher struct {
	wp       *bagraph.WorkerPool
	maxBatch int
	window   time.Duration
	// schedule is the chunk schedule every dispatched parallel kernel
	// runs under, fixed at construction.
	schedule bagraph.Schedule
	// fills tracks detached CC cache-fill goroutines: a fill outlives
	// any handler whose deadline fired mid-kernel, so Close must wait
	// for it before releasing the pool it is running on.
	fills sync.WaitGroup
	// timed tracks armed window timers the same way: a batch the timer
	// dispatches runs its kernel on the timer's goroutine, which no
	// handler waits for. A timer counts from when it is armed until
	// flushTimed returns or Stop wins in takeLocked.
	timed sync.WaitGroup

	// metrics, when set, receives batch sizes, cache events and kernel
	// counters; nil disables the plane (every observe is a nil no-op).
	metrics *Metrics
	// tuner, when set, overrides the static schedule and delta knobs
	// per dispatch and is fed each run's counters back. Both are
	// fixed before traffic (Server.New wires them); dispatches read
	// them without locks.
	tuner *tune.Controller

	mu      sync.Mutex
	pending map[batchKey]*pendingBatch

	// wsMu guards the workspace free list and the totals the gauges
	// publish: held counts the free and the checked-out workspaces,
	// bytes their capacity as of their last return.
	wsMu    sync.Mutex
	wsFree  []*workspace
	wsHeld  int
	wsBytes int64
}

// getWorkspace checks out the most recently returned workspace, or a
// new one when the free list is empty.
func (b *Batcher) getWorkspace() *workspace {
	b.wsMu.Lock()
	defer b.wsMu.Unlock()
	if k := len(b.wsFree); k > 0 {
		w := b.wsFree[k-1]
		b.wsFree[k-1] = nil
		b.wsFree = b.wsFree[:k-1]
		return w
	}
	b.wsHeld++
	b.metrics.ObserveWorkspaces(b.wsHeld, b.wsBytes)
	return &workspace{b: b}
}

// putWorkspace takes a workspace back: onto the free list while it
// holds fewer than Workers(), to the GC otherwise.
func (b *Batcher) putWorkspace(w *workspace) {
	bytes := w.Bytes()
	b.wsMu.Lock()
	defer b.wsMu.Unlock()
	b.wsBytes += bytes - w.bytes
	w.bytes = bytes
	if len(b.wsFree) < b.Workers() {
		b.wsFree = append(b.wsFree, w)
	} else {
		b.wsHeld--
		b.wsBytes -= bytes
	}
	b.metrics.ObserveWorkspaces(b.wsHeld, b.wsBytes)
}

// deliver hands a dispatched result to its waiter. A result holding a
// workspace is handed over only if the waiter is still there; if it has
// given up, the workspace goes straight back.
func deliver(r *Request, res Result) {
	if res.ws != nil && !r.settled.CompareAndSwap(false, true) {
		res.ws.release()
		return
	}
	r.done <- res
}

// abandon settles a request whose waiter has given up on its context:
// if the dispatcher has already handed over a result holding a
// workspace, that result is on its way and its workspace goes back.
func abandon(r *Request) {
	if !r.settled.CompareAndSwap(false, true) {
		(<-r.done).ws.release()
	}
}

// NewBatcher starts a dispatcher over a pool of the given size
// (workers < 1 means GOMAXPROCS). maxBatch < 1 defaults to 32. A
// positive window holds the first request of a batch that long for
// company before dispatching; window <= 0 dispatches every request
// immediately on its own (no coalescing). Every dispatched parallel
// kernel runs under sched (bagraph.ScheduleStatic or
// bagraph.ScheduleStealing).
func NewBatcher(workers, maxBatch int, window time.Duration, sched bagraph.Schedule) *Batcher {
	if maxBatch < 1 {
		maxBatch = 32
	}
	return &Batcher{
		wp:       bagraph.NewWorkerPool(workers),
		maxBatch: maxBatch,
		window:   window,
		schedule: sched,
		pending:  make(map[batchKey]*pendingBatch),
	}
}

// SetMetrics attaches the aggregation plane. Call before serving
// traffic; dispatches read the field unsynchronized.
func (b *Batcher) SetMetrics(m *Metrics) { b.metrics = m }

// SetTuner attaches the adaptive controller. Call before serving
// traffic; dispatches read the field unsynchronized.
func (b *Batcher) SetTuner(t *tune.Controller) { b.tuner = t }

// Workers returns the resident pool size.
func (b *Batcher) Workers() int { return b.wp.Workers() }

// workload describes one dispatch to the tuner: the cell identity plus
// the static shape facts a first decision needs. For SSSP that includes
// the entry's cached bucket width (0 before the weighted view exists —
// fine for the callers that only want the cell's algorithm pick, since
// the cell is keyed by graph, epoch and kind alone).
func (b *Batcher) workload(e *Entry, kind string) tune.Workload {
	var delta uint64
	if kind == tune.KindSSSP {
		delta = e.SSSPDelta()
	}
	g := e.Graph()
	return tune.Workload{
		Graph: e.Name(), Epoch: e.Epoch(), Kind: kind,
		Vertices: g.NumVertices(), Arcs: g.NumArcs(),
		MaxDegree: e.MaxDegree(), Workers: b.wp.Workers(),
		DefaultDelta: delta,
	}
}

// tunedRun is the batcher's one kernel run path: the static schedule —
// or, with a tuner attached, the cell's current decision for the
// result-invariant knobs (schedule; for SSSP also delta) — one run on
// the resident pool under ctx, and the run's counters fed back to the
// tuner and the metrics plane. kind is the tune.Kind* label of the
// cell.
func (b *Batcher) tunedRun(ctx context.Context, e *Entry, tgt bagraph.Target, kind string, req bagraph.Request) (*bagraph.Result, error) {
	req.Schedule = b.schedule
	var w tune.Workload
	if b.tuner != nil {
		w = b.workload(e, kind)
		d := b.tuner.Decide(w)
		req.Schedule = d.Schedule
		b.metrics.ObserveAutotune(kind, "schedule", d.Schedule.String())
		if kind == tune.KindSSSP {
			if d.Delta != 0 {
				req.Delta = d.Delta
			}
			b.metrics.ObserveAutotune(kind, "delta", formatDelta(req.Delta))
		}
	}
	res, err := b.wp.Run(ctx, tgt, req)
	if err != nil {
		return nil, err
	}
	if b.tuner != nil {
		b.tuner.Observe(w, res.Stats)
	}
	b.metrics.ObserveRun(kind, res.Stats)
	return res, nil
}

// kindLabel is the metric label for a batch key: the query family,
// except the multi-source BFS kernel which gets its own series (its
// batch and wave shapes are a different population).
func kindLabel(key batchKey) string {
	switch {
	case key.kind == KindSSSP:
		return tune.KindSSSP
	case key.algo == "ms":
		return tune.KindMS
	default:
		return tune.KindBFS
	}
}

// errClosed answers the requests of a batch still pending at Close.
var errClosed = errors.New("serve: batcher closed")

// Close releases the worker pool. In-flight handlers must have drained
// (the HTTP server's shutdown guarantees that), but kernels no handler
// waits for may still be running: detached CC cache fills, and batches
// the window timer dispatched after their waiters' contexts died. Both
// stop at their next pass barrier, and Close waits for them before
// releasing the pool they run on. A batch still waiting for its window
// is claimed instead, its requests answered with an error.
func (b *Batcher) Close() {
	b.mu.Lock()
	for _, pb := range b.pending {
		for _, r := range b.takeLocked(pb) {
			r.done <- Result{Err: errClosed}
		}
	}
	b.mu.Unlock()
	b.fills.Wait()
	b.timed.Wait()
	b.wp.Close()
}

// BFS enqueues a BFS query and blocks until its batch is dispatched or
// ctx dies. algo must be canonical (see bfsAliases) and root in range.
func (b *Batcher) BFS(ctx context.Context, e *Entry, algo string, root uint32) Result {
	return b.Submit(ctx, e, KindBFS, algo, root)
}

// SSSP enqueues a weighted SSSP query (real edge weights for weighted
// entries, unit weights otherwise) and blocks until its batch is
// dispatched or ctx dies. algo must be canonical (see ssspAliases) and
// root in range.
func (b *Batcher) SSSP(ctx context.Context, e *Entry, algo string, root uint32) Result {
	return b.Submit(ctx, e, KindSSSP, algo, root)
}

// fillContext is the context a CC cache fill runs under: alive while
// any query interested in the fill is alive. The kernels observe
// cancellation through Err alone at their pass barriers (never Done),
// so Err polls the interested contexts — nil while any is live, the
// filler's error once all are gone. One abandoned client therefore
// cannot kill a fill other clients are waiting on (a per-query
// deadline shorter than the kernel stops starving the cache as soon
// as queries overlap), while a fill nobody is waiting for still stops
// at its next barrier instead of burning the pool for an empty room.
type fillContext struct {
	context.Context // Background: no Done channel, no deadline
	mu              sync.Mutex
	parties         []context.Context
	sealed          bool
}

// newFillContext starts the interested set with the filler's context.
func newFillContext(ctx context.Context) *fillContext {
	return &fillContext{Context: context.Background(), parties: []context.Context{ctx}}
}

// join adds a query's context to the interested set. After seal it is
// a no-op: cache hits against a completed fill must not accumulate
// (and thereby retain) their request contexts for the epoch's
// lifetime.
func (f *fillContext) join(ctx context.Context) {
	f.mu.Lock()
	if !f.sealed {
		f.parties = append(f.parties, ctx)
	}
	f.mu.Unlock()
}

// seal marks the fill finished and releases the interested contexts.
func (f *fillContext) seal() {
	f.mu.Lock()
	f.sealed = true
	f.parties = nil
	f.mu.Unlock()
}

// Err reports nil while any interested context is live, and the first
// (the filler's) error once every one of them has died.
func (f *fillContext) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, p := range f.parties {
		err := p.Err()
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// CC returns the component labeling, count and kernel stats for
// (e, algo), computing it at most once per graph epoch: the first
// query becomes the filler and runs the kernel under its own context,
// concurrent identical queries wait on the same fill, and later ones
// are served from the entry's cache. shared reports whether this call
// reused a computation another request started (or an earlier one
// finished). The returned labels are shared and must not be mutated.
//
// The fill runs under a fillContext every interested query joins: it
// keeps going while any of them is live and stops at its next pass
// barrier when the last one is gone. A fill that fails — every
// interested client cancelling mid-kernel is the expected case — is
// retired from the cache before its waiters wake, and any later query
// retries as a fresh filler. Cancelled clients therefore cost only
// their own queries; they neither poison the cache with their error
// nor leave a detached kernel run burning the pool for nobody.
func (b *Batcher) CC(ctx context.Context, e *Entry, algo string) (labels []uint32, components int, stats bagraph.Stats, shared bool, err error) {
	res, shared, err := b.cc(ctx, e, algo)
	if err != nil {
		return nil, 0, bagraph.Stats{}, false, err
	}
	return res.labels, res.components, res.stats, shared, nil
}

// cc is CC returning the filled cache entry itself.
func (b *Batcher) cc(ctx context.Context, e *Entry, algo string) (res *ccResult, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		e.ccMu.Lock()
		res, ok := e.ccCache[algo]
		if !ok {
			res = &ccResult{ready: make(chan struct{}), fill: newFillContext(ctx)}
			e.ccCache[algo] = res
			e.ccMu.Unlock()
			b.metrics.ObserveCC("miss")
			// The fill runs in its own goroutine so the filler's
			// handler waits below like every other interested query:
			// its own deadline or disconnect still bounds ITS response
			// while the fill lives on for whoever else joined.
			b.fills.Add(1)
			go b.fillCC(res, algo, e)
		} else {
			e.ccMu.Unlock()
			b.metrics.ObserveCC("hit")
			// Joining keeps the in-flight fill alive for as long as
			// this query is; against a completed fill it is a no-op.
			res.fill.join(ctx)
		}
		select {
		case <-res.ready:
			if res.err != nil && (errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded)) {
				// The fill's whole cohort died and its entry is
				// retired; retry under our own (still live) context.
				// Non-context errors are the query's real answer.
				b.metrics.ObserveCC("retry")
				continue
			}
			if res.err != nil {
				return nil, false, res.err
			}
			// shared = ok: true exactly when this call joined a fill
			// (or cache) someone else installed.
			return res, ok, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// fillCC runs one CC cache fill to completion: kernel, component
// count, retire-on-failure, then wake the waiters. It owns res until
// ready closes.
func (b *Batcher) fillCC(res *ccResult, algo string, e *Entry) {
	defer b.fills.Done()
	res.labels, res.stats, res.err = b.runCC(res.fill, algo, e)
	if res.err == nil {
		res.components = cc.CountComponents(res.labels)
	} else {
		// Retire the failed fill so the next query retries; the guard
		// keeps a concurrent successor's entry intact.
		e.ccMu.Lock()
		if e.ccCache[algo] == res {
			delete(e.ccCache, algo)
		}
		e.ccMu.Unlock()
	}
	res.fill.seal()
	close(res.ready)
}

// runCC executes one CC cache fill through the facade under the
// cohort's fill context; a cancelled fill returns the context's error
// and caches nothing.
func (b *Batcher) runCC(ctx context.Context, algo string, e *Entry) ([]uint32, bagraph.Stats, error) {
	req, err := algoreq.CC(algo)
	if err != nil {
		return nil, bagraph.Stats{}, err
	}
	res, err := b.tunedRun(ctx, e, e.target(), tune.KindCC, req)
	if err != nil {
		return nil, bagraph.Stats{}, err
	}
	return res.Labels, res.Stats, nil
}

// Submit joins (or opens) the pending batch for the query's key and
// waits for the dispatch to deliver its result. A context that dies
// before dispatch unblocks Submit immediately with ctx's error and the
// queued request is dropped when its batch flushes; one that dies
// mid-kernel is observed at the next pass barrier.
func (b *Batcher) Submit(ctx context.Context, e *Entry, k Kind, algo string, root uint32) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{Err: err}
	}
	req := &Request{entry: e, kind: k, algo: algo, root: root, ctx: ctx}
	req.done = make(chan Result, 1)
	key := batchKey{entry: e, kind: k, algo: algo}

	b.mu.Lock()
	pb := b.pending[key]
	if pb == nil {
		pb = &pendingBatch{key: key}
		b.pending[key] = pb
		if b.window > 0 {
			b.timed.Add(1)
			pb.timer = time.AfterFunc(b.window, func() {
				defer b.timed.Done()
				b.flushTimed(pb)
			})
		}
	}
	pb.reqs = append(pb.reqs, req)
	var dispatch []*Request
	if len(pb.reqs) >= b.maxBatch || b.window <= 0 {
		dispatch = b.takeLocked(pb)
	}
	b.mu.Unlock()

	if dispatch != nil {
		b.dispatch(key, dispatch)
	}
	// done is buffered, so an early ctx exit never blocks the
	// dispatcher; the request's result (or drop notice) is simply
	// discarded, its workspace returned by whichever side settles
	// second.
	select {
	case res := <-req.done:
		return res
	case <-ctx.Done():
		abandon(req)
		return Result{Err: ctx.Err()}
	}
}

// takeLocked claims a pending batch for dispatch. Callers hold b.mu.
func (b *Batcher) takeLocked(pb *pendingBatch) []*Request {
	if pb.flushed {
		return nil
	}
	pb.flushed = true
	if pb.timer != nil && pb.timer.Stop() {
		b.timed.Done() // the timer will not run: release its count here
	}
	delete(b.pending, pb.key)
	return pb.reqs
}

// flushTimed is the window-timer path: claim the batch if the size
// trigger has not already done so.
func (b *Batcher) flushTimed(pb *pendingBatch) {
	b.mu.Lock()
	reqs := b.takeLocked(pb)
	b.mu.Unlock()
	if reqs != nil {
		b.dispatch(pb.key, reqs)
	}
}

// dropAbandoned filters a claimed batch down to the requests still
// worth running; requests whose context died while queued are answered
// with their context's error in place, without running anything.
func dropAbandoned(reqs []*Request) []*Request {
	live := reqs[:0]
	for _, r := range reqs {
		if err := r.ctx.Err(); err != nil {
			r.done <- Result{Err: err}
			continue
		}
		live = append(live, r)
	}
	return live
}

// batchContext derives a context that is cancelled once every request
// of the batch has been abandoned — the shared multi-source kernel run
// serves all waiters at once, so it keeps going while any of them is
// still listening, and stops at the next level barrier when none is.
// stop releases the watchers; it must be called when the dispatch
// finishes.
func batchContext(reqs []*Request) (ctx context.Context, stop func()) {
	bctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(reqs))
	stops := make([]func() bool, 0, len(reqs))
	for _, r := range reqs {
		stops = append(stops, context.AfterFunc(r.ctx, func() {
			if atomic.AddInt64(&remaining, -1) == 0 {
				cancel()
			}
		}))
	}
	return bctx, func() {
		for _, s := range stops {
			s()
		}
		cancel()
	}
}

// dispatch runs one claimed batch and delivers per-request results.
// Requests abandoned while queued are dropped first; the survivors run
// in one of three shapes, in decreasing order of sharing:
//
//   - Multi-source BFS ("ms"): the whole batch is ONE kernel run — the
//     batched roots traverse together through shared bottom-up mask
//     sweeps, one graph pass per level for up to 64 sources — executed
//     under a context that dies only when every waiter is gone.
//   - Pool-using kernels (par-*): run back to back, each parallelizing
//     internally (a nested pool fan-out would deadlock on its own
//     workers) under its own request's context.
//   - Sequential kernels: the batch of sources fans out across the
//     pool — the batch is the unit of parallelism — each under its own
//     request's context.
func (b *Batcher) dispatch(key batchKey, reqs []*Request) {
	reqs = dropAbandoned(reqs)
	n := len(reqs)
	if n == 0 {
		return
	}
	results := make([]Result, n)
	b.metrics.ObserveBatch(kindLabel(key), n)
	switch {
	case key.kind == KindBFS && key.algo == "ms":
		roots := make([]uint32, n)
		for i, r := range reqs {
			roots[i] = r.root
		}
		bctx, stop := batchContext(reqs)
		res, err := b.tunedRun(bctx, key.entry, key.entry.target(), tune.KindMS, bagraph.Request{
			Kind: bagraph.KindBFSBatch, Roots: roots,
		})
		stop()
		if err == nil {
			b.metrics.ObserveWaveOccupancy(n, res.Stats.Waves)
		}
		for i := range results {
			if err != nil {
				results[i] = Result{Err: err}
			} else {
				results[i] = Result{Hops: res.HopsBatch[i], Stats: res.Stats}
			}
		}
	case usesPool(key.algo):
		for i, r := range reqs {
			results[i] = b.runOne(r)
		}
	default:
		b.wp.Each(n, func(i int) { results[i] = b.runOne(reqs[i]) })
	}
	for i, r := range reqs {
		results[i].Batch = n
		deliver(r, results[i])
	}
}

// runOne executes a single traversal under its request's context, in a
// workspace checked out for it: the result aliases the workspace, which
// goes back at once if the kernel fails. With a tuner attached, the
// dispatch's result-invariant knobs (schedule, delta) come from the
// cell's current decision and the run's counters are fed back; the
// algorithm itself is part of the batch key and never changes here.
func (b *Batcher) runOne(r *Request) Result {
	var (
		tgt  bagraph.Target
		req  bagraph.Request
		kind string
		err  error
	)
	switch r.kind {
	case KindSSSP:
		kind = tune.KindSSSP
		if tgt, err = r.entry.weightedTarget(); err == nil {
			req, err = algoreq.SSSP(r.algo, r.root, r.entry.SSSPDelta())
		}
	default:
		kind, tgt = tune.KindBFS, r.entry.target()
		req, err = algoreq.BFS(r.algo, r.root)
	}
	if err != nil {
		return Result{Err: err}
	}
	ws := b.getWorkspace()
	req.Workspace = &ws.Workspace
	res, err := b.tunedRun(r.ctx, r.entry, tgt, kind, req)
	if err != nil {
		ws.release()
		return Result{Err: err}
	}
	return Result{Hops: res.Hops, Dists: res.Dists, Stats: res.Stats, ws: ws}
}
