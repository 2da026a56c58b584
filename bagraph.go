// Package bagraph is a library of branch-avoiding graph algorithms, a
// reproduction of "Branch-Avoiding Graph Algorithms" (Green, Dukhan,
// Vuduc — SPAA 2015, arXiv:1411.1460).
//
// The package provides:
//
//   - connected components via Shiloach-Vishkin label propagation in
//     branch-based, branch-avoiding and hybrid forms, plus a union-find
//     baseline (KindCC);
//   - top-down BFS in branch-based and branch-avoiding forms, plus a
//     direction-optimizing baseline (KindBFS), and a batch-aware
//     multi-source form (KindBFSBatch);
//   - weighted shortest paths — Bellman-Ford in both forms, Dijkstra,
//     and a parallel delta-stepping kernel (KindSSSP);
//   - multi-core variants of every family on a shared worker-pool engine;
//   - an instrumented machine model — 2-bit branch predictor, LRU cache
//     hierarchy, per-microarchitecture cost model — that reproduces the
//     paper's per-iteration hardware-event measurements (ProfileSV,
//     ProfileBFS, Platforms);
//   - the paper's graph corpus as seeded synthetic stand-ins
//     (CorpusGraph) and METIS-format I/O for real DIMACS-10 files
//     (ReadMETIS, WriteMETIS);
//   - runners that regenerate every table and figure of the paper's
//     evaluation (Experiments, RunExperiment).
//
// Every kernel family is executed through the unified request/response
// entry point Run (and WorkerPool.Run for resident-pool serving), which
// carries cooperative cancellation, the kernel's Stats, and reusable
// Workspaces — see run.go.
//
// The deeper machinery lives in the internal packages; this facade is the
// supported API surface.
package bagraph

import (
	"fmt"
	"io"

	"bagraph/internal/cc"
	"bagraph/internal/corpus"
	"bagraph/internal/exp"
	"bagraph/internal/graph"
	"bagraph/internal/metis"
	"bagraph/internal/par"
	"bagraph/internal/perfsim"
	"bagraph/internal/simkern"
	"bagraph/internal/uarch"
)

// Graph is an immutable CSR graph. Construct with NewGraph, CorpusGraph
// or ReadMETIS.
type Graph = graph.Graph

// Edge is an undirected vertex pair.
type Edge = graph.Edge

// Unreached marks vertices not reached by a traversal.
const Unreached = ^uint32(0)

// NewGraph builds an undirected graph over n ≤ graph.MaxVertices
// vertices; self-loops and duplicate edges are dropped.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.Build(n, edges, graph.Options{})
}

// CCAlgorithm selects a connected-components kernel.
type CCAlgorithm int

// Connected-components kernels.
const (
	// CCBranchBased is the classical Shiloach-Vishkin label propagation
	// (paper Algorithm 2).
	CCBranchBased CCAlgorithm = iota
	// CCBranchAvoiding replaces the label-comparison branch with
	// arithmetic conditional moves (paper Algorithm 3).
	CCBranchAvoiding
	// CCHybrid runs branch-avoiding passes while labels churn and
	// switches to branch-based once they stabilize (paper §6.2).
	CCHybrid
	// CCUnionFind is a weighted union-find baseline.
	CCUnionFind
)

// String implements fmt.Stringer.
func (a CCAlgorithm) String() string {
	switch a {
	case CCBranchBased:
		return "sv-branch-based"
	case CCBranchAvoiding:
		return "sv-branch-avoiding"
	case CCHybrid:
		return "sv-hybrid"
	case CCUnionFind:
		return "union-find"
	default:
		return fmt.Sprintf("CCAlgorithm(%d)", int(a))
	}
}

// ComponentCount returns the number of connected components given a
// KindCC labeling.
func ComponentCount(labels []uint32) int { return cc.CountComponents(labels) }

// WorkerPool is a persistent set of worker goroutines shared across
// parallel kernel calls. Each parallel package-level Run otherwise
// starts and stops its own pool; query-serving workloads — many small
// kernels back to back — amortize that startup by keeping one
// WorkerPool resident and calling its Run method. A WorkerPool must be
// released with Close.
type WorkerPool struct {
	pool *par.Pool
}

// NewWorkerPool starts a pool of the given size; workers < 1 means
// GOMAXPROCS.
func NewWorkerPool(workers int) *WorkerPool {
	return &WorkerPool{pool: par.NewPool(workers)}
}

// Workers returns the pool size.
func (p *WorkerPool) Workers() int { return p.pool.Workers() }

// Close stops the worker goroutines. The pool must not be used after
// Close; Close is idempotent.
func (p *WorkerPool) Close() { p.pool.Close() }

// BFSVariant selects a breadth-first-search kernel.
type BFSVariant int

// BFS kernels.
const (
	// BFSBranchBased is the classical top-down BFS (paper Algorithm 4).
	BFSBranchBased BFSVariant = iota
	// BFSBranchAvoiding trades the discovery branch for unconditional
	// queue/distance stores with conditional moves (paper Algorithm 5).
	BFSBranchAvoiding
	// BFSDirectionOptimizing is the Beamer-style top-down/bottom-up
	// baseline (the paper's reference [8]).
	BFSDirectionOptimizing
)

// String implements fmt.Stringer.
func (v BFSVariant) String() string {
	switch v {
	case BFSBranchBased:
		return "bfs-branch-based"
	case BFSBranchAvoiding:
		return "bfs-branch-avoiding"
	case BFSDirectionOptimizing:
		return "bfs-direction-optimizing"
	default:
		return fmt.Sprintf("BFSVariant(%d)", int(v))
	}
}

// checkRoot validates a BFS source vertex against the graph. On a
// 0-vertex graph every root is out of range — no vertex exists for the
// traversal to start from.
func checkRoot(g *Graph, root uint32) error {
	if int(root) >= g.NumVertices() {
		return fmt.Errorf("bagraph: root %d out of range for %d vertices", root, g.NumVertices())
	}
	return nil
}

// Platforms returns the names of the simulated microarchitectures (the
// paper's Table 1 systems).
func Platforms() []string { return uarch.Names() }

// IterationProfile is the simulated hardware-event snapshot of one SV
// pass or one BFS level.
type IterationProfile struct {
	Seconds        float64
	Instructions   uint64
	Branches       uint64
	Mispredictions uint64
	Loads          uint64
	Stores         uint64
}

// Profile is the per-iteration simulated behaviour of one kernel run on
// one platform.
type Profile struct {
	Platform string
	// BranchAvoiding records which kernel variant ran.
	BranchAvoiding bool
	PerIteration   []IterationProfile
}

// TotalSeconds sums the simulated time.
func (p *Profile) TotalSeconds() float64 {
	t := 0.0
	for _, it := range p.PerIteration {
		t += it.Seconds
	}
	return t
}

// TotalMispredictions sums the simulated branch misses.
func (p *Profile) TotalMispredictions() uint64 {
	var m uint64
	for _, it := range p.PerIteration {
		m += it.Mispredictions
	}
	return m
}

func lookupPlatform(name string) (uarch.Model, error) {
	m, ok := uarch.ByName(name)
	if !ok {
		return uarch.Model{}, fmt.Errorf("bagraph: unknown platform %q (known: %v)", name, uarch.Names())
	}
	return m, nil
}

func toProfile(platform string, avoid bool, model uarch.Model, series []IterationProfile) *Profile {
	return &Profile{Platform: platform, BranchAvoiding: avoid, PerIteration: series}
}

// ProfileSV runs the instrumented Shiloach-Vishkin kernel on the named
// simulated platform and returns per-pass event counts and times under
// the paper's 2-bit predictor model.
func ProfileSV(g *Graph, platform string, branchAvoiding bool) (*Profile, error) {
	model, err := lookupPlatform(platform)
	if err != nil {
		return nil, err
	}
	m := perfsim.NewDefault(model)
	var res simkern.SVResult
	if branchAvoiding {
		res = simkern.SVBranchAvoiding(m, g)
	} else {
		res = simkern.SVBranchBased(m, g)
	}
	series := make([]IterationProfile, len(res.PerIter))
	for i, c := range res.PerIter {
		series[i] = IterationProfile{
			Seconds:        model.Seconds(c),
			Instructions:   c.Instructions,
			Branches:       c.Branches,
			Mispredictions: c.Mispredicts,
			Loads:          c.Loads,
			Stores:         c.Stores,
		}
	}
	return toProfile(platform, branchAvoiding, model, series), nil
}

// ProfileBFS runs the instrumented top-down BFS kernel on the named
// simulated platform and returns per-level event counts and times.
func ProfileBFS(g *Graph, root uint32, platform string, branchAvoiding bool) (*Profile, error) {
	model, err := lookupPlatform(platform)
	if err != nil {
		return nil, err
	}
	if err := checkRoot(g, root); err != nil {
		return nil, err
	}
	m := perfsim.NewDefault(model)
	var res simkern.BFSResult
	if branchAvoiding {
		res = simkern.BFSBranchAvoiding(m, g, root)
	} else {
		res = simkern.BFSBranchBased(m, g, root)
	}
	series := make([]IterationProfile, len(res.PerLevel))
	for i, c := range res.PerLevel {
		series[i] = IterationProfile{
			Seconds:        model.Seconds(c),
			Instructions:   c.Instructions,
			Branches:       c.Branches,
			Mispredictions: c.Mispredicts,
			Loads:          c.Loads,
			Stores:         c.Stores,
		}
	}
	return toProfile(platform, branchAvoiding, model, series), nil
}

// CorpusNames returns the names of the paper's Table 2 graphs.
func CorpusNames() []string { return corpus.Names() }

// CorpusGraph generates the synthetic stand-in for the named Table 2
// graph at the given scale in (0, 1] (1 ≈ the paper's size).
func CorpusGraph(name string, scale float64, seed uint64) (*Graph, error) {
	d, ok := corpus.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bagraph: unknown corpus graph %q (known: %v)", name, corpus.Names())
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("bagraph: scale %v out of (0, 1]", scale)
	}
	return d.Generate(scale, seed), nil
}

// ReadMETIS parses a DIMACS-10 / METIS format graph.
func ReadMETIS(r io.Reader) (*Graph, error) { return metis.Read(r) }

// WriteMETIS serializes an undirected graph in METIS format.
func WriteMETIS(w io.Writer, g *Graph) error { return metis.Write(w, g) }

// Experiments returns the names of the paper's reproducible exhibits
// (tables, figures, and the extensions).
func Experiments() []string { return exp.Names() }

// ExperimentOptions configures RunExperiment. The zero value uses the
// defaults (scale 0.01, all graphs, all platforms, seed 42).
type ExperimentOptions struct {
	Scale     float64
	Seed      uint64
	Graphs    []string
	Platforms []string
	// Workers parallelizes the graph×platform sweep cells; < 1 means
	// GOMAXPROCS. Output is identical at any width.
	Workers int
}

// RunExperiment regenerates one named exhibit ("table1", "fig3", "all",
// ...) to w.
func RunExperiment(name string, w io.Writer, opt ExperimentOptions) error {
	return exp.Run(name, w, exp.Options{
		Scale:     opt.Scale,
		Seed:      opt.Seed,
		Graphs:    opt.Graphs,
		Platforms: opt.Platforms,
		Workers:   opt.Workers,
	})
}
