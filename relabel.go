package bagraph

// Degree-ordered relabeling: the memory-layout optimization layer. A
// Relabeled wraps a graph whose vertices have been renumbered by
// descending degree (hub clustering, internal/relabel.DegreeOrder) and
// presents it to Run as an ordinary Target: requests are translated into
// the permuted id space on the way in and every result — labels, hops,
// batch hops, weighted distances — is translated back on the way out,
// byte-identical to what the same request produces on the unrelabeled
// graph. No kernel knows the layer exists; what changes is purely where
// vertices live in memory, which concentrates frontier bits into the low
// words the kernels' sweeps walk and clusters the hottest CSR rows onto
// shared cache lines.

import (
	"context"
	"fmt"

	"bagraph/internal/core"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/relabel"
)

// Relabeled is a degree-ordered view of a graph. Build one with
// RelabelDegree and pass it to Run / WorkerPool.Run wherever a *Graph or
// *WeightedGraph is accepted; results come back in the ORIGINAL vertex
// ids. The wrapper is immutable and safe for concurrent Runs (each run
// carries its own workspace).
type Relabeled struct {
	g    *Graph         // permuted structure
	w    *WeightedGraph // permuted weighted form; nil when built from a *Graph
	perm []uint32       // perm[old] = new
	inv  []uint32       // inv[new] = old
}

// RelabelDegree builds the degree-ordered view of g, which must be a
// *Graph or a *WeightedGraph. The permutation sorts vertices by
// descending degree with ties broken by ascending original id, so the
// layout is deterministic for a given graph.
func RelabelDegree(g Target) (*Relabeled, error) {
	switch t := g.(type) {
	case *WeightedGraph:
		if t == nil {
			return nil, fmt.Errorf("bagraph: RelabelDegree on a nil graph")
		}
		perm := relabel.DegreeOrder(t.Graph)
		pw, err := t.Permute(perm)
		if err != nil {
			return nil, err
		}
		return &Relabeled{g: pw.Graph, w: pw, perm: perm, inv: relabel.Inverse(perm)}, nil
	case *Graph:
		if t == nil {
			return nil, fmt.Errorf("bagraph: RelabelDegree on a nil graph")
		}
		perm := relabel.DegreeOrder(t)
		pg, err := t.Permute(perm)
		if err != nil {
			return nil, err
		}
		return &Relabeled{g: pg, perm: perm, inv: relabel.Inverse(perm)}, nil
	case *Relabeled:
		return t, nil
	case nil:
		return nil, fmt.Errorf("bagraph: RelabelDegree on a nil graph")
	default:
		return nil, fmt.Errorf("bagraph: unsupported graph type %T (want *Graph or *WeightedGraph)", g)
	}
}

// NumVertices returns |V|; Relabeled satisfies Target.
func (r *Relabeled) NumVertices() int { return r.g.NumVertices() }

// Graph returns the permuted structure. Vertex ids in it are PERMUTED
// ids; use Perm/Inv to translate.
func (r *Relabeled) Graph() *Graph { return r.g }

// Weighted returns the permuted weighted form, or nil when the wrapper
// was built from an unweighted *Graph (see AttachWeights).
func (r *Relabeled) Weighted() *WeightedGraph { return r.w }

// Perm returns the forward permutation: Perm()[old] = new. Shared
// storage; do not modify.
func (r *Relabeled) Perm() []uint32 { return r.perm }

// Inv returns the inverse permutation: Inv()[new] = old. Shared storage;
// do not modify.
func (r *Relabeled) Inv() []uint32 { return r.inv }

// AttachWeights derives the weighted form of an unweighted Relabeled,
// assigning each arc the weight fn(u, v) *in original vertex ids* — the
// same arcs get the same weights as bagraph.AttachWeights on the
// unrelabeled graph, so SSSP results stay byte-identical. fn must be
// symmetric. Returns the wrapper itself, now answering weighted
// requests; calling it on an already weighted wrapper is an error (the
// weights are part of the permuted CSR and cannot be swapped in place).
func (r *Relabeled) AttachWeights(fn func(u, v uint32) uint32) (*Relabeled, error) {
	if r.w != nil {
		return nil, fmt.Errorf("bagraph: Relabeled already weighted")
	}
	inv := r.inv
	w, err := graph.AttachWeights(r.g, func(pu, pv uint32) uint32 {
		return fn(inv[pu], inv[pv])
	})
	if err != nil {
		return nil, err
	}
	r.w = w
	return r, nil
}

// String implements fmt.Stringer.
func (r *Relabeled) String() string {
	return fmt.Sprintf("relabeled{%s}", r.g)
}

// relabelScratch holds the permuted-space buffers a relabeled Run needs:
// an inner Workspace the kernels write into, the mapped root list, and
// the CC canonicalization table. It lives inside the caller's Workspace
// so repeated relabeled Runs reuse all of it.
type relabelScratch struct {
	inner Workspace
	roots []uint32
	canon []uint32
	// rel caches the wrapper Request.Relabel built, keyed by the target
	// it was built from.
	rel    *Relabeled
	relFor Target
}

// relabel returns the workspace's relabeling state, made on first use.
func (ws *Workspace) relabel() *relabelScratch {
	if ws.rl == nil {
		ws.rl = new(relabelScratch)
	}
	return ws.rl
}

// relabeledFor returns the Relabeled view of g for a Request.Relabel
// run, reusing the one cached in ws if ws was last used with the same
// target. A fresh workspace pays the full permute — documented on
// Request.Relabel.
func relabeledFor(g Target, ws *Workspace) (*Relabeled, error) {
	sc := ws.relabel()
	if sc.relFor == g && sc.rel != nil {
		return sc.rel, nil
	}
	rl, err := RelabelDegree(g)
	if err != nil {
		return nil, err
	}
	sc.rel, sc.relFor = rl, g
	return rl, nil
}

// unpermute writes src (indexed by permuted id) into dst (indexed by
// original id), dst[old] = src[perm[old]], with dst reused by capacity.
func unpermute[T uint32 | uint64](dst, src []T, perm []uint32) []T {
	dst = core.Fit(dst, len(src))
	for v := range dst {
		dst[v] = src[perm[v]]
	}
	return dst
}

// unpermuteLabels maps a permuted-space component labeling back to the
// exact labeling the unrelabeled kernels produce: component label = the
// minimum ORIGINAL id in the component. The permuted kernel's labels are
// component minima of PERMUTED ids, whose preimage inv[label] is merely
// some member of the component — so each component is re-canonicalized
// to the first original id encountered in an ascending scan, which is
// its minimum. canon is scratch of length |V|.
func unpermuteLabels(dst, src, perm, inv, canon []uint32) []uint32 {
	n := len(src)
	dst = core.Fit(dst, n)
	const unset = ^uint32(0)
	for i := range canon {
		canon[i] = unset
	}
	for v := 0; v < n; v++ {
		rep := inv[src[perm[v]]]
		if canon[rep] == unset {
			canon[rep] = uint32(v)
		}
		dst[v] = canon[rep]
	}
	return dst
}

// runRelabeled executes req against a Relabeled target: the request is
// translated into the permuted id space, dispatched like any other run
// (the kernels see only the permuted graph), and the results translated
// back. On mid-kernel cancellation the partial permuted results are
// translated too, so the contract of Run's partial-output clause holds
// unchanged.
func runRelabeled(ctx context.Context, r *Relabeled, req Request, pool *par.Pool) (*Result, error) {
	ws := req.Workspace
	sc := ws.relabel()
	inner := req
	inner.Relabel = false // the target is already permuted
	inner.Workspace = &sc.inner
	n := len(r.perm)
	switch req.Kind {
	case KindBFS, KindSSSP:
		// Map in-range roots; out-of-range ones pass through unmapped so
		// the inner validation reports the id the caller supplied.
		if int(req.Root) < n {
			inner.Root = r.perm[req.Root]
		}
	case KindBFSBatch:
		sc.roots = sc.roots[:0]
		for _, rt := range req.Roots {
			if int(rt) < n {
				rt = r.perm[rt]
			}
			sc.roots = append(sc.roots, rt)
		}
		inner.Roots = sc.roots
	}

	var tgt Target = r.g
	if r.w != nil {
		tgt = r.w
	}
	res, err := runRequest(ctx, tgt, inner, pool)
	if res == nil {
		return nil, err
	}

	out := &Result{Stats: res.Stats}
	switch req.Kind {
	case KindCC:
		sc.canon = core.Fit(sc.canon, n)
		ws.Labels = unpermuteLabels(ws.Labels, res.Labels, r.perm, r.inv, sc.canon)
		out.Labels = ws.Labels
	case KindBFS:
		ws.Hops = unpermute(ws.Hops, res.Hops, r.perm)
		out.Hops = ws.Hops
	case KindBFSBatch:
		ws.HopsBatch = core.Fit(ws.HopsBatch, len(res.HopsBatch))
		for i, src := range res.HopsBatch {
			ws.HopsBatch[i] = unpermute(ws.HopsBatch[i], src, r.perm)
		}
		out.HopsBatch = ws.HopsBatch
	case KindSSSP:
		ws.Dists = unpermute(ws.Dists, res.Dists, r.perm)
		out.Dists = ws.Dists
	}
	return out, err
}

// Interface conformance: a Relabeled is a Target.
var _ Target = (*Relabeled)(nil)
