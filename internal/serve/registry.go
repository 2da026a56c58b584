package serve

import (
	"fmt"
	"os"
	"sync"

	"bagraph"
	"bagraph/internal/corpus"
	"bagraph/internal/graph"
	"bagraph/internal/metis"
	"bagraph/internal/sssp"
)

// Entry is one named graph resident in the daemon: the immutable CSR
// graph, its weighted view for the SSSP kernels — real per-edge
// weights when the graph was loaded from a weighted METIS file, a
// lazily derived unit-weight view otherwise — and the per-epoch
// connected-components cache. Entries are immutable once published;
// Registry.Replace swaps in a fresh Entry under the same name with a
// bumped epoch, which retires the old entry's caches wholesale.
type Entry struct {
	name  string
	epoch uint64
	g     *graph.Graph
	// rel is the degree-ordered view the kernels run against when the
	// registry was configured with SetRelabel; nil otherwise. Queries
	// and results stay in original vertex ids either way (the facade
	// un-permutes), so relabeling is invisible to clients except in the
	// latency and the locality stats.
	rel *bagraph.Relabeled

	wOnce          sync.Once
	weighted       *graph.Weighted // preset for weighted loads, else lazily unit
	wErr           error
	ssspDelta      uint64 // delta-stepping bucket width, cached with the view
	hasEdgeWeights bool
	// maxDegree is cached at publish: with the pool size it bounds the
	// arc skew any static chunk partition can suffer, the structural
	// signal the autotuner's first schedule decision reads per dispatch.
	maxDegree int

	ccMu    sync.Mutex
	ccCache map[string]*ccResult
}

// ccResult is one cached CC computation. The first query to install it
// becomes the filler and starts the kernel under a fillContext that
// every later interested query joins: the fill keeps running while any
// of them is still live and stops at its next pass barrier when the
// last one goes away. ready is closed when the attempt finishes,
// successful or not. A failed fill (every interested client gone
// mid-kernel) is retired from the entry's cache before ready closes,
// so waiters and later queries retry with their own context instead of
// inheriting a dead cohort's error — the cache is never poisoned.
//
// Every hit on a filled result builds the same response, so hits also
// share its encoding: hits[0] without labels, hits[1] with them, each
// encoded by the first hit that asks for it and sent verbatim to every
// later one. The bodies retire with the labels, at the epoch bump.
type ccResult struct {
	ready      chan struct{}
	fill       *fillContext
	labels     []uint32
	components int
	stats      bagraph.Stats
	err        error
	hits       [2]ccBody
}

// ccBody is one cached:true CC answer, encoded once.
type ccBody struct {
	once sync.Once
	wire []byte
}

// hitBody returns the body resp — a cache hit's answer built from res,
// with labels or without — is served as, encoding it on the first call
// for that shape. nil means it does not encode; the server then
// encodes resp itself and reports why.
func (res *ccResult) hitBody(resp *CCResponse, labels bool) []byte {
	b := &res.hits[0]
	if labels {
		b = &res.hits[1]
	}
	b.once.Do(func() { b.wire, _ = resp.Body() })
	return b.wire
}

// Name returns the registry name.
func (e *Entry) Name() string { return e.name }

// Graph returns the resident CSR graph.
func (e *Entry) Graph() *graph.Graph { return e.g }

// Epoch returns the entry's load generation; it increments each time
// the name is replaced, and retires cached results from prior epochs.
func (e *Entry) Epoch() uint64 { return e.epoch }

// ensureWeighted derives the entry's weighted views on first use: the
// plain view, and — for relabeled entries published unweighted — the
// permuted unit-weight view (entries published weighted carried their
// weights through the permute at publish time).
func (e *Entry) ensureWeighted() error {
	e.wOnce.Do(func() {
		unit := func(u, v uint32) uint32 { return 1 }
		if e.weighted == nil {
			e.weighted, e.wErr = graph.AttachWeights(e.g, unit)
		}
		if e.wErr == nil && e.rel != nil && e.rel.Weighted() == nil {
			_, e.wErr = e.rel.AttachWeights(unit)
		}
		if e.wErr == nil {
			// The delta-stepping default bucket width costs a pass over
			// the weight array; the view is immutable, so pay it once
			// per entry rather than per query. (The mean arc weight is
			// permutation-invariant, so one delta serves both views.)
			e.ssspDelta = sssp.DefaultDelta(e.weighted)
		}
	})
	return e.wErr
}

// Weighted returns the view the SSSP kernels run on: the graph's real
// per-edge weights when it was published weighted, otherwise a
// unit-weight view derived on first use. Either way the view is shared
// by all subsequent queries against this entry.
func (e *Entry) Weighted() (*graph.Weighted, error) {
	if err := e.ensureWeighted(); err != nil {
		return nil, err
	}
	return e.weighted, nil
}

// Relabeled reports whether the entry serves queries through a
// degree-ordered layout.
func (e *Entry) Relabeled() bool { return e.rel != nil }

// target returns what the batcher hands bagraph.Run for the unweighted
// kinds: the degree-ordered view when the entry is relabeled, the raw
// graph otherwise.
func (e *Entry) target() bagraph.Target {
	if e.rel != nil {
		return e.rel
	}
	return e.g
}

// weightedTarget is target for KindSSSP; it forces the weighted view
// into existence first.
func (e *Entry) weightedTarget() (bagraph.Target, error) {
	if err := e.ensureWeighted(); err != nil {
		return nil, err
	}
	if e.rel != nil {
		return e.rel, nil
	}
	return e.weighted, nil
}

// SSSPDelta returns the cached delta-stepping bucket width for the
// entry's weighted view. Valid after a successful Weighted call.
func (e *Entry) SSSPDelta() uint64 { return e.ssspDelta }

// HasEdgeWeights reports whether the entry was published with real
// per-edge weights (as opposed to the derived unit-weight view). Set
// at publish time and immutable afterwards.
func (e *Entry) HasEdgeWeights() bool { return e.hasEdgeWeights }

// MaxDegree returns the graph's largest vertex degree, cached at
// publish time.
func (e *Entry) MaxDegree() int { return e.maxDegree }

// Registry is the daemon's set of named resident graphs. Lookups are
// lock-cheap reads; loading happens at startup or through an explicit
// replace.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	order   []string
	relabel bool
}

// SetRelabel controls whether graphs published from now on are stored
// degree-ordered (see bagraph.RelabelDegree). Flip it before loading;
// already published entries keep the layout they were built with.
func (r *Registry) SetRelabel(on bool) {
	r.mu.Lock()
	r.relabel = on
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// newEntry builds an unpublished entry; w, when non-nil, presets the
// weighted view with real per-edge weights.
func newEntry(name string, epoch uint64, g *graph.Graph, w *graph.Weighted) *Entry {
	return &Entry{
		name: name, epoch: epoch, g: g,
		weighted: w, hasEdgeWeights: w != nil,
		maxDegree: g.Degrees().Max,
		ccCache:   make(map[string]*ccResult),
	}
}

// publish installs an entry under name. With replace set the name may
// exist (its epoch is bumped); otherwise it must be new.
func (r *Registry) publish(name string, g *graph.Graph, w *graph.Weighted, replace bool) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty graph name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := uint64(1)
	if old, ok := r.entries[name]; ok {
		if !replace {
			return nil, fmt.Errorf("serve: graph %q already loaded", name)
		}
		epoch = old.epoch + 1
	} else {
		r.order = append(r.order, name)
	}
	e := newEntry(name, epoch, g, w)
	if r.relabel {
		var tgt bagraph.Target = g
		if w != nil {
			tgt = w
		}
		rel, err := bagraph.RelabelDegree(tgt)
		if err != nil {
			return nil, fmt.Errorf("serve: relabel %q: %w", name, err)
		}
		e.rel = rel
	}
	r.entries[name] = e
	return e, nil
}

// Add publishes g under name; the name must be new.
func (r *Registry) Add(name string, g *graph.Graph) (*Entry, error) {
	return r.publish(name, g, nil, false)
}

// AddWeighted publishes w under name with its real per-edge weights;
// the name must be new. SSSP queries against the entry run on these
// weights instead of the derived unit-weight view.
func (r *Registry) AddWeighted(name string, w *graph.Weighted) (*Entry, error) {
	return r.publish(name, w.Graph, w, false)
}

// Replace publishes g under name, bumping the epoch past any previous
// entry's. In-flight queries against the old entry finish against the
// graph they started with; its caches are never consulted again.
func (r *Registry) Replace(name string, g *graph.Graph) (*Entry, error) {
	return r.publish(name, g, nil, true)
}

// ReplaceWeighted is Replace for a graph with real per-edge weights.
func (r *Registry) ReplaceWeighted(name string, w *graph.Weighted) (*Entry, error) {
	return r.publish(name, w.Graph, w, true)
}

// LoadMETISFile reads a METIS graph from path and publishes it. Files
// carrying per-edge weights (format code "1") publish a weighted
// entry; unweighted files serve SSSP through the unit-weight view.
func (r *Registry) LoadMETISFile(name, path string) (*Entry, error) {
	return r.publishMETISFile(name, path, false)
}

// ReplaceMETISFile reads a METIS graph from path and publishes it over
// the existing entry for name (the zero-downtime rollout path the
// admin endpoint drives): the epoch bumps past the old entry's, in-
// flight queries finish against the graph they started with, and the
// old epoch's caches are never consulted again. The name may also be
// new — a rollout that adds a graph is still a rollout.
func (r *Registry) ReplaceMETISFile(name, path string) (*Entry, error) {
	return r.publishMETISFile(name, path, true)
}

func (r *Registry) publishMETISFile(name, path string, replace bool) (*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	w, err := metis.ReadWeighted(f)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	w.SetName(name)
	if w.HasWeights {
		return r.publish(name, w.Graph, w.Weighted, replace)
	}
	return r.publish(name, w.Graph, nil, replace)
}

// AddCorpus generates the named Table 2 stand-in at the given scale and
// publishes it under its corpus name.
func (r *Registry) AddCorpus(name string, scale float64, seed uint64) (*Entry, error) {
	d, ok := corpus.ByName(name)
	if !ok {
		return nil, fmt.Errorf("serve: unknown corpus graph %q (known: %v)", name, corpus.Names())
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("serve: scale %v out of (0, 1]", scale)
	}
	return r.Add(name, d.Generate(scale, seed))
}

// Get returns the current entry for name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Entries returns the current entries in load order.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.entries[name])
	}
	return out
}
