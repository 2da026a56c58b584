package serve

// Local is the in-process Backend: the registry of resident graphs
// plus the coalescing Batcher, which is what a single daemon and every
// fleet shard run. The fleet router swaps this implementation for
// ShardClients without the handlers noticing.

import (
	"context"
	"net/http"

	"bagraph/internal/bfs"
	"bagraph/internal/sssp"
	"bagraph/internal/tune"
)

// Local answers queries from a Registry through a Batcher. Construct
// with NewLocal; Server.New wires one up implicitly from its Registry.
type Local struct {
	reg     *Registry
	batcher *Batcher
	metrics *Metrics
	tuner   *tune.Controller
}

// NewLocal builds the in-process backend over a registry and a
// batcher. metrics and tuner may be nil (observability off, static
// knobs).
func NewLocal(reg *Registry, b *Batcher, m *Metrics, t *tune.Controller) *Local {
	return &Local{reg: reg, batcher: b, metrics: m, tuner: t}
}

// Batcher exposes the dispatcher (benchmarks drive it directly).
func (l *Local) Batcher() *Batcher { return l.batcher }

// Close releases the worker pool. Call after in-flight queries have
// drained.
func (l *Local) Close() { l.batcher.Close() }

// lookup resolves a graph name to its current entry.
func (l *Local) lookup(name string) (*Entry, error) {
	if name == "" {
		return nil, Errorf(http.StatusBadRequest, "missing graph name")
	}
	e, ok := l.reg.Get(name)
	if !ok {
		return nil, Errorf(http.StatusNotFound, "graph %q not loaded", name)
	}
	return e, nil
}

// checkRoot validates a traversal source against the entry's graph.
func checkRoot(e *Entry, root uint32) error {
	if n := e.Graph().NumVertices(); int(root) >= n {
		return Errorf(http.StatusBadRequest, "root %d out of range for %d vertices", root, n)
	}
	return nil
}

// resolveAuto maps the "auto" algorithm onto the tuner's current pick
// for the entry's cell (the static serving default when autotuning is
// off). Non-"auto" names pass through.
func (l *Local) resolveAuto(e *Entry, kind, algo string) string {
	if algo != "auto" {
		return algo
	}
	if l.tuner == nil {
		switch kind {
		case tune.KindCC:
			return ccAliases[""]
		case tune.KindSSSP:
			return ssspAliases[""]
		default:
			return bfsAliases[""]
		}
	}
	d := l.tuner.Decide(l.batcher.workload(e, kind))
	l.metrics.ObserveAutotune(kind, "algo", d.Algo)
	return d.Algo
}

// canonFor applies the default-to-auto rule (an empty algorithm means
// "auto" when a tuner is attached) and canonicalizes the name.
func (l *Local) canonFor(aliases map[string]string, algo, family string) (string, error) {
	if algo == "" && l.tuner != nil {
		algo = "auto"
	}
	c, err := canon(aliases, algo, family)
	if err != nil {
		return "", Errorf(http.StatusBadRequest, "%v", err)
	}
	return c, nil
}

// CC implements Backend over the epoch-cached coalescing CC path. A
// cache hit carries the body its epoch's cache holds for its shape.
func (l *Local) CC(ctx context.Context, graph, algo string, labels bool) (*CCResponse, error) {
	algo, err := l.canonFor(ccAliases, algo, "CC")
	if err != nil {
		return nil, err
	}
	e, err := l.lookup(graph)
	if err != nil {
		return nil, err
	}
	algo = l.resolveAuto(e, tune.KindCC, algo)
	res, shared, err := l.batcher.cc(ctx, e, algo)
	if err != nil {
		return nil, err
	}
	resp := &CCResponse{
		Graph:      e.Name(),
		Epoch:      e.Epoch(),
		Algo:       algo,
		Components: res.components,
		Cached:     shared,
		Stats:      statsPayload(res.stats),
	}
	if labels {
		resp.Labels = res.labels
	}
	if shared {
		// A hit is the same answer every time: send the epoch's bytes.
		resp.wire = res.hitBody(resp, labels)
	}
	return resp, nil
}

// BFS implements Backend over the batching dispatcher.
func (l *Local) BFS(ctx context.Context, graph string, root uint32, algo string) (*BFSResponse, error) {
	algo, err := l.canonFor(bfsAliases, algo, "BFS")
	if err != nil {
		return nil, err
	}
	e, err := l.lookup(graph)
	if err != nil {
		return nil, err
	}
	if err := checkRoot(e, root); err != nil {
		return nil, err
	}
	algo = l.resolveAuto(e, tune.KindBFS, algo)
	res := l.batcher.BFS(ctx, e, algo, root)
	if res.Err != nil {
		return nil, res.Err
	}
	reached := 0
	for _, d := range res.Hops {
		if d != bfs.Inf {
			reached++
		}
	}
	return &BFSResponse{
		Graph:   e.Name(),
		Epoch:   e.Epoch(),
		Algo:    algo,
		Root:    root,
		Batch:   res.Batch,
		Reached: reached,
		Stats:   statsPayload(res.Stats),
		Dist:    res.Hops,
		served:  served{ws: res.ws},
	}, nil
}

// SSSP implements Backend over the batching dispatcher.
func (l *Local) SSSP(ctx context.Context, graph string, root uint32, algo string) (*SSSPResponse, error) {
	algo, err := l.canonFor(ssspAliases, algo, "SSSP")
	if err != nil {
		return nil, err
	}
	e, err := l.lookup(graph)
	if err != nil {
		return nil, err
	}
	if err := checkRoot(e, root); err != nil {
		return nil, err
	}
	algo = l.resolveAuto(e, tune.KindSSSP, algo)
	res := l.batcher.SSSP(ctx, e, algo, root)
	if res.Err != nil {
		return nil, res.Err
	}
	reached := 0
	sum := uint64(0)
	for _, d := range res.Dists {
		if d != sssp.Inf {
			reached++
			sum += d
		}
	}
	return &SSSPResponse{
		Graph:   e.Name(),
		Epoch:   e.Epoch(),
		Algo:    algo,
		Root:    root,
		Batch:   res.Batch,
		Reached: reached,
		Sum:     sum,
		Stats:   statsPayload(res.Stats),
		Dist:    res.Dists,
		served:  served{ws: res.ws},
	}, nil
}

// Graphs implements Backend from the registry's load-ordered entries.
func (l *Local) Graphs(ctx context.Context) ([]GraphInfo, error) {
	entries := l.reg.Entries()
	infos := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		g := e.Graph()
		infos = append(infos, GraphInfo{
			Name:      e.Name(),
			Vertices:  g.NumVertices(),
			Edges:     g.NumEdges(),
			Weighted:  e.HasEdgeWeights(),
			Relabeled: e.Relabeled(),
			Epoch:     e.Epoch(),
		})
	}
	return infos, nil
}

// Healthz implements Backend: graph count and resident pool size.
func (l *Local) Healthz(ctx context.Context) (*Health, error) {
	return &Health{Status: "ok", Graphs: len(l.reg.Entries()), Workers: l.batcher.Workers()}, nil
}

// replaceRequest is the shard admin rollout body: swap the named
// graph's entry for a fresh load of the METIS file at path.
type replaceRequest struct {
	Graph string `json:"graph"`
	Path  string `json:"path"`
}

// ReplaceResponse reports the entry an admin rollout published.
type ReplaceResponse struct {
	Graph    string `json:"graph"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Weighted bool   `json:"weighted"`
}

// MountAdmin registers the shard-side admin plane: POST /admin/replace
// drives Registry.Replace/ReplaceWeighted for zero-downtime graph
// rollout — in-flight queries finish against the epoch they started
// with, the new epoch starts with cold caches, and the fleet router's
// rollout endpoint fans this across a graph's replicas one shard at a
// time. Mounted only when Config.Admin is set: it reads files from the
// daemon's filesystem and must not be reachable from query traffic.
func (l *Local) MountAdmin(mux *http.ServeMux) {
	mux.HandleFunc("POST /admin/replace", func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		var q replaceRequest
		if !decodeQuery(w, r, &q) {
			return
		}
		if q.Graph == "" || q.Path == "" {
			writeError(w, http.StatusBadRequest, "replace wants graph and path")
			return
		}
		e, err := l.reg.ReplaceMETISFile(q.Graph, q.Path)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, ReplaceResponse{
			Graph:    e.Name(),
			Epoch:    e.Epoch(),
			Vertices: e.Graph().NumVertices(),
			Edges:    e.Graph().NumEdges(),
			Weighted: e.HasEdgeWeights(),
		})
	})
}

// ensure Local satisfies the interfaces the server wires against.
var (
	_ Backend         = (*Local)(nil)
	_ AdminBackend    = (*Local)(nil)
	_ closableBackend = (*Local)(nil)
)

// AdminBackend is implemented by backends that expose admin routes;
// the server mounts them only when Config.Admin is set.
type AdminBackend interface {
	MountAdmin(mux *http.ServeMux)
}

// closableBackend lets Server.Close release backend resources.
type closableBackend interface {
	Close()
}
