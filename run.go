package bagraph

// The unified request/response kernel API. Every kernel family the
// facade exposes — connected components, BFS, weighted SSSP, and the
// batch-aware multi-source BFS — is served by one entry point:
//
//	res, err := bagraph.Run(ctx, g, bagraph.Request{...})
//
// or, for query-serving workloads holding a resident pool,
//
//	res, err := pool.Run(ctx, g, bagraph.Request{...})
//
// Run is the only way in: there are no per-kernel free functions. It
// carries the three things the serving layer needs:
//
//   - cooperative cancellation: ctx is observed at kernel pass/level
//     barriers (workers never see it, staying atomic-free), so an
//     abandoned query stops burning the machine at the next barrier;
//   - the kernel's Stats: passes, per-pass changes, store counts,
//     candidate stores, bucket activations, top-down/bottom-up level
//     split — the branch-behaviour counters that are the point of the
//     paper;
//   - reusable Workspaces: one struct holding every result buffer and
//     every engine kernel's scratch a request kind needs, reused by
//     capacity across calls and graphs.

import (
	"context"
	"fmt"

	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/sssp"
)

// Kind selects the kernel family a Request runs.
type Kind int

// Request kinds.
const (
	// KindCC labels connected components (Request.CC selects the
	// algorithm).
	KindCC Kind = iota
	// KindBFS computes hop distances from Request.Root (Request.BFS
	// selects the variant; with Parallel set the engine's
	// direction-optimizing kernel runs and the variant is ignored).
	KindBFS
	// KindSSSP computes weighted shortest-path distances from
	// Request.Root (Request.SSSP selects the algorithm). The graph must
	// be a *WeightedGraph.
	KindSSSP
	// KindBFSBatch runs every Request.Roots member through shared
	// multi-source mask sweeps — one graph pass per level advances up
	// to 64 searches. Always an engine kernel; Parallel is implied.
	KindBFSBatch
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCC:
		return "cc"
	case KindBFS:
		return "bfs"
	case KindSSSP:
		return "sssp"
	case KindBFSBatch:
		return "bfs-batch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Target is the graph argument of Run: a *Graph, or a *WeightedGraph
// for the weighted kernels (a *WeightedGraph satisfies every kind; the
// unweighted kinds run on its structure and ignore the weights).
type Target interface {
	NumVertices() int
}

// Schedule selects how a parallel kernel's passes distribute work
// across the pool. It is the engine's own type; String renders "static"
// and "stealing", the names ParseSchedule and the /metrics labels use.
type Schedule = par.Schedule

const (
	// ScheduleStatic partitions each pass once at launch into one
	// arc-balanced block per worker — no scheduling traffic during the
	// pass, but a straggler block stalls the pass barrier on skewed
	// work (an RMAT hub, a sparse late-level frontier).
	ScheduleStatic = par.Static
	// ScheduleStealing over-decomposes each pass into arc-balanced
	// chunks (several per worker); an idle worker steals whole chunks
	// from the most-loaded straggler through one atomic fetch per chunk.
	// The per-edge inner loops are untouched — results are
	// byte-identical to ScheduleStatic.
	ScheduleStealing = par.Stealing
)

// ParseSchedule resolves the schedule names the CLIs and the daemon
// expose: "static" and "stealing" (or the short "steal").
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "", "static":
		return ScheduleStatic, nil
	case "steal", "stealing":
		return ScheduleStealing, nil
	default:
		return ScheduleStatic, fmt.Errorf("bagraph: unknown schedule %q (want static or stealing)", s)
	}
}

// Request describes one kernel execution. The zero value runs the
// sequential branch-based connected-components kernel; set Kind, the
// matching algorithm field, and the source vertices as needed.
type Request struct {
	// Kind selects the kernel family.
	Kind Kind
	// CC selects the connected-components algorithm (KindCC).
	CC CCAlgorithm
	// BFS selects the BFS variant (KindBFS, sequential only: the
	// parallel BFS kernel is direction-optimizing by construction).
	BFS BFSVariant
	// SSSP selects the shortest-paths algorithm (KindSSSP).
	SSSP SSSPAlgorithm
	// Parallel runs the data-parallel engine kernel of the family
	// instead of the sequential one. Baselines without a parallel form
	// (CCUnionFind, SSSPDijkstra) are rejected; SSSPHybrid exists only
	// with Parallel set.
	Parallel bool
	// Root is the source vertex for KindBFS and KindSSSP.
	Root uint32
	// Roots are the source vertices for KindBFSBatch; duplicates are
	// allowed and produce identical arrays.
	Roots []uint32
	// Workers sizes the transient pool of a parallel bagraph.Run; < 1
	// means GOMAXPROCS. Ignored by WorkerPool.Run (the resident pool's
	// size wins) and by sequential kernels.
	Workers int
	// Delta overrides the delta-stepping bucket width of the parallel
	// SSSP kernel; 0 picks the kernel default. Long-lived callers cache
	// it per graph to skip the per-query weight sweep.
	Delta uint64
	// Relabel runs the request against a degree-ordered view of the
	// graph (see RelabelDegree): the kernels see the hub-clustered
	// layout, the results come back in the original vertex ids,
	// byte-identical to an unrelabeled run. The permuted view is cached
	// in the Workspace, so long-lived callers pay the permute once per
	// graph; a Run without a workspace pays it every call. Ignored when
	// the target is already a *Relabeled.
	Relabel bool
	// Schedule selects static or work-stealing chunk scheduling for the
	// parallel kernels (results are byte-identical; see the Schedule
	// constants). Ignored by sequential kernels.
	Schedule Schedule
	// Workspace supplies the memory the request runs in; nil runs it in
	// a fresh one. Results alias workspace buffers, so a later Run with
	// the same workspace overwrites them; a workspace must not be shared
	// by concurrent Runs.
	Workspace *Workspace
}

// Workspace holds all the memory of Run requests: the result buffers
// below and, privately, every kernel's scratch — the BFS kernels'
// queues, word sets and cost arrays (also used by the parallel CC
// kernel's seed BFS), the SSSP kernels' owner and worker state, bucket
// windows, bitsets and Dijkstra's heap, and the relabeling layer's
// buffers. The zero value is ready to use, and a Run without one runs
// in a fresh one.
//
// Every kernel form takes its memory under one rule: a buffer it is
// given is reused by capacity, and a nil one is an empty buffer. A
// buffer grows only when a graph needs more than it holds, so once a
// workspace has served the largest graph, Runs of any kind on graphs
// of any size allocate no |V|-sized array. Results returned by Run
// alias these buffers (a parallel CC labeling aliases Labels or
// Scratch, whichever the last pass wrote), so a later Run with the same
// workspace overwrites them, and a workspace must not be shared by
// concurrent Runs.
type Workspace struct {
	// Labels receives KindCC labels. Scratch is the parallel CC
	// kernel's second label buffer and the union-find forest.
	Labels, Scratch []uint32
	// Hops receives KindBFS distances.
	Hops []uint32
	// HopsBatch receives KindBFSBatch per-root distances, one slice per
	// root.
	HopsBatch [][]uint32
	// Dists receives KindSSSP distances.
	Dists []uint64
	// bfs and sssp are every BFS and SSSP kernel's per-query scratch.
	bfs  bfs.Scratch
	sssp sssp.Scratch
	// rl holds the relabeling layer's private state: the cached
	// degree-ordered view (Request.Relabel), the permuted-space inner
	// workspace, and the un-permute scratch.
	rl *relabelScratch
}

// Bytes returns the capacity the workspace holds, in bytes: its result
// buffers, the kernels' scratch and the relabeling layer's buffers. The
// degree-ordered view a Request.Relabel run caches is a graph, not a
// buffer, and is not counted.
func (ws *Workspace) Bytes() int64 {
	b := 4*int64(cap(ws.Labels)+cap(ws.Scratch)+cap(ws.Hops)) + 8*int64(cap(ws.Dists)) +
		ws.bfs.Bytes() + ws.sssp.Bytes()
	for _, h := range ws.HopsBatch {
		b += 4 * int64(cap(h))
	}
	if ws.rl != nil {
		b += ws.rl.inner.Bytes() + 4*int64(cap(ws.rl.roots)+cap(ws.rl.canon))
	}
	return b
}

// Stats is the kernel-side observability record of one Run: the
// branch-behaviour counters the paper measures, normalized across the
// kernel families. The kernels fill it directly; fields not meaningful
// for a family stay zero.
type Stats = perfcount.Stats

// Result is the outcome of one Run. Exactly the field matching the
// request kind is set, plus Stats.
type Result struct {
	// Labels is the canonical min-id component labeling (KindCC).
	Labels []uint32
	// Hops are hop distances, Unreached for other components (KindBFS).
	Hops []uint32
	// HopsBatch holds one hop-distance array per request root, in
	// order (KindBFSBatch).
	HopsBatch [][]uint32
	// Dists are weighted distances, InfDistance for unreachable
	// vertices (KindSSSP).
	Dists []uint64
	// Stats describes the kernel execution.
	Stats Stats
}

// Run executes one kernel request against g — a *Graph, or a
// *WeightedGraph for KindSSSP — and returns its result together with
// the kernel's statistics.
//
// ctx cancels the run cooperatively: a context cancelled before the
// call returns ctx.Err() without running; one cancelled mid-kernel is
// observed at the next pass/level barrier (workers never observe the
// context, so the inner loops keep the paper's exact operation mix).
// A nil ctx means context.Background(). On mid-kernel cancellation the
// error is ctx's, and the Result — when non-nil — carries the partial
// output of the passes that completed (labels so far, distances with
// deeper vertices still unreached) plus their Stats; callers that
// cannot use partial progress just check the error first.
//
// Parallel requests start and stop a transient worker pool sized by
// Request.Workers; query-serving workloads keep a WorkerPool resident
// and call its Run method instead.
func Run(ctx context.Context, g Target, req Request) (*Result, error) {
	return runRequest(ctx, g, req, nil)
}

// Run executes one kernel request on the resident pool (see the
// package-level Run). Request.Workers is ignored: the pool's size wins.
func (p *WorkerPool) Run(ctx context.Context, g Target, req Request) (*Result, error) {
	return runRequest(ctx, g, req, p.pool)
}

// Each runs fn(0), ..., fn(n-1) across the pool's workers and returns
// when all calls have completed. It is the raw fan-out primitive
// beneath Run; the serving layer uses it to spread the independent
// sequential kernels of one batch across the pool. fn must not call
// back into the pool (a nested submit would wait on workers busy
// running it).
func (p *WorkerPool) Each(n int, fn func(i int)) { p.pool.Run(n, fn) }

// runRequest validates and dispatches one request. It is the one place
// that defaults the context and the workspace and, for an engine kernel
// with no resident pool (pool == nil), starts and stops a transient one
// sized by Request.Workers; the kernels below only borrow the resulting
// par.Exec.
func runRequest(ctx context.Context, g Target, req Request, pool *par.Pool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Pre-cancelled: nothing runs, not even validation.
		return nil, err
	}
	if req.Workspace == nil {
		req.Workspace = new(Workspace)
	}
	if rl, ok := g.(*Relabeled); ok {
		if rl == nil {
			return nil, fmt.Errorf("bagraph: Run on a nil graph")
		}
		return runRelabeled(ctx, rl, req, pool)
	}
	if req.Relabel {
		rl, err := relabeledFor(g, req.Workspace)
		if err != nil {
			return nil, err
		}
		return runRelabeled(ctx, rl, req, pool)
	}
	var base *Graph
	var weighted *WeightedGraph
	switch t := g.(type) {
	case *WeightedGraph:
		if t == nil {
			return nil, fmt.Errorf("bagraph: Run on a nil graph")
		}
		weighted = t
		base = t.Graph
	case *Graph:
		if t == nil {
			return nil, fmt.Errorf("bagraph: Run on a nil graph")
		}
		base = t
	case nil:
		return nil, fmt.Errorf("bagraph: Run on a nil graph")
	default:
		return nil, fmt.Errorf("bagraph: unsupported graph type %T (want *Graph or *WeightedGraph)", g)
	}
	x := par.Exec{Ctx: ctx, Pool: pool, Schedule: req.Schedule}
	if pool == nil && (req.Parallel || req.Kind == KindBFSBatch) {
		x.Pool = par.NewPool(req.Workers)
		defer x.Pool.Close()
	}
	switch req.Kind {
	case KindCC:
		return runCCRequest(x, base, req)
	case KindBFS:
		return runBFSRequest(x, base, req)
	case KindBFSBatch:
		return runBFSBatchRequest(x, base, req)
	case KindSSSP:
		if weighted == nil {
			return nil, fmt.Errorf("bagraph: %v needs a *WeightedGraph (AttachWeights derives one)", req.Kind)
		}
		return runSSSPRequest(x, weighted, req)
	default:
		return nil, fmt.Errorf("bagraph: unknown request kind %v", req.Kind)
	}
}

// runCCRequest dispatches KindCC.
func runCCRequest(x par.Exec, g *Graph, req Request) (*Result, error) {
	var variant core.Variant
	switch req.CC {
	case CCBranchBased:
		variant = core.BranchBased
	case CCBranchAvoiding:
		variant = core.BranchAvoiding
	case CCHybrid:
		variant = core.Hybrid
	case CCUnionFind:
		if req.Parallel {
			return nil, fmt.Errorf("bagraph: no parallel kernel for %v", req.CC)
		}
	default:
		return nil, fmt.Errorf("bagraph: unknown CC algorithm %v", req.CC)
	}
	ws := req.Workspace
	if n := g.NumVertices(); req.Parallel || req.CC == CCUnionFind {
		// Both buffers are fitted here, so both persist in the
		// workspace, and must stay distinct.
		ws.Labels, ws.Scratch = core.Fit(ws.Labels, n), core.Fit(ws.Scratch, n)
		if n > 0 && &ws.Scratch[0] == &ws.Labels[0] {
			ws.Scratch = make([]uint32, n)
		}
	}
	var (
		labels []uint32
		st     Stats
		err    error
	)
	switch {
	case req.Parallel:
		labels, st, err = cc.SVParallel(x, g, variant, ws.Labels, ws.Scratch, &ws.bfs)
	case req.CC == CCUnionFind:
		// The union-find baseline has no pass structure to cancel at;
		// the pre-call context check is its only gate.
		labels = cc.UnionFindInto(g, ws.Labels, ws.Scratch)
	default:
		ws.Labels, st, err = cc.SV(x.Ctx, g, variant, ws.Labels)
		labels = ws.Labels
	}
	return &Result{Labels: labels, Stats: st}, err
}

// runBFSRequest dispatches KindBFS.
func runBFSRequest(x par.Exec, g *Graph, req Request) (*Result, error) {
	if err := checkRoot(g, req.Root); err != nil {
		return nil, err
	}
	ws := req.Workspace
	var (
		st  Stats
		err error
	)
	switch {
	case req.Parallel:
		ws.Hops, st, err = bfs.ParallelDO(x, g, req.Root, ws.Hops, &ws.bfs)
	case req.BFS == BFSBranchBased:
		ws.Hops, st, err = bfs.TopDown(x.Ctx, g, req.Root, core.BranchBased, ws.Hops, &ws.bfs)
	case req.BFS == BFSBranchAvoiding:
		ws.Hops, st, err = bfs.TopDown(x.Ctx, g, req.Root, core.BranchAvoiding, ws.Hops, &ws.bfs)
	case req.BFS == BFSDirectionOptimizing:
		ws.Hops, st, err = bfs.DirectionOptimizing(x.Ctx, g, req.Root, 0, 0, ws.Hops, &ws.bfs)
	default:
		return nil, fmt.Errorf("bagraph: unknown BFS variant %v", req.BFS)
	}
	return &Result{Hops: ws.Hops, Stats: st}, err
}

// runBFSBatchRequest dispatches KindBFSBatch.
func runBFSBatchRequest(x par.Exec, g *Graph, req Request) (*Result, error) {
	for _, r := range req.Roots {
		if err := checkRoot(g, r); err != nil {
			return nil, err
		}
	}
	ws := req.Workspace
	var (
		st  Stats
		err error
	)
	ws.HopsBatch, st, err = bfs.MultiSource(x, g, req.Roots, ws.HopsBatch, &ws.bfs)
	return &Result{HopsBatch: ws.HopsBatch, Stats: st}, err
}

// runSSSPRequest dispatches KindSSSP.
func runSSSPRequest(x par.Exec, g *WeightedGraph, req Request) (*Result, error) {
	if err := checkSource(g, req.Root); err != nil {
		return nil, err
	}
	var variant core.Variant
	switch req.SSSP {
	case SSSPBellmanFord:
		variant = core.BranchBased
	case SSSPBellmanFordBranchAvoiding:
		variant = core.BranchAvoiding
	case SSSPHybrid:
		if !req.Parallel {
			return nil, fmt.Errorf("bagraph: %v exists only in the parallel kernel (set Request.Parallel)", req.SSSP)
		}
		variant = core.Hybrid
	case SSSPDijkstra:
		if req.Parallel {
			return nil, fmt.Errorf("bagraph: no parallel kernel for %v", req.SSSP)
		}
	default:
		return nil, fmt.Errorf("bagraph: unknown SSSP algorithm %v", req.SSSP)
	}
	ws := req.Workspace
	var (
		st  Stats
		err error
	)
	switch {
	case req.Parallel:
		opt := sssp.ParallelOptions{Variant: variant, Delta: req.Delta}
		ws.Dists, st, err = sssp.Parallel(x, g, req.Root, opt, ws.Dists, &ws.sssp)
	case req.SSSP == SSSPDijkstra:
		ws.Dists, err = sssp.DijkstraCtx(x.Ctx, g, req.Root, ws.Dists, &ws.sssp)
	default:
		ws.Dists, st, err = sssp.BellmanFord(x.Ctx, g, req.Root, variant, ws.Dists)
	}
	return &Result{Dists: ws.Dists, Stats: st}, err
}

// Interface conformance: both graph forms satisfy Target.
var (
	_ Target = (*graph.Graph)(nil)
	_ Target = (*graph.Weighted)(nil)
)
