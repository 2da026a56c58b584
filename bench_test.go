package bagraph

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation section (regenerating the exhibit's underlying measurement),
// plus native wall-clock benchmarks of the branch-based vs branch-avoiding
// kernels themselves.
//
// Run everything:      go test -bench=. -benchmem
// One exhibit:         go test -bench=BenchmarkFig3 -benchmem
// Larger corpus scale: go test -bench=. -benchscale 0.05
//
// Simulated benchmarks report events per simulated run; native kernel
// benchmarks measure this machine's wall clock, where the branchless
// transformation's effect depends on how the Go compiler lowers the inner
// loops (the paper's §6.1 compiler discussion applies to Go as well).

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/core"
	"bagraph/internal/exp"
	"bagraph/internal/gen"
	"bagraph/internal/graph"
	"bagraph/internal/par"
	"bagraph/internal/perfcount"
	"bagraph/internal/perfsim"
	"bagraph/internal/relabel"
	"bagraph/internal/simkern"
	"bagraph/internal/sssp"
	"bagraph/internal/testutil"
	"bagraph/internal/uarch"
	"bagraph/internal/xrand"
)

var benchScale = flag.Float64("benchscale", 0.01, "corpus scale for benchmarks")

// benchOpt restricts simulated sweeps to a representative platform pair so
// a full -bench=. run stays in minutes; pass -benchscale to grow graphs.
func benchOpt() exp.Options {
	return exp.Options{
		Scale:     *benchScale,
		Seed:      42,
		Platforms: []string{"Haswell", "Bonnell"},
	}
}

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	g, err := CorpusGraph(name, *benchScale, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- Table 1 / Table 2 -------------------------------------------------

func BenchmarkTable1Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Table1(io.Discard)
	}
}

func BenchmarkTable2Corpus(b *testing.B) {
	// Regenerating Table 2 measures corpus construction end to end.
	for i := 0; i < b.N; i++ {
		if err := exp.Table2(io.Discard, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig 1 / Fig 2 ------------------------------------------------------

func BenchmarkFig1PredictorFSA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig1(io.Discard)
	}
}

func BenchmarkFig2LabelPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.Fig2(io.Discard)
	}
}

// --- Figs 3-5: the SV sweep --------------------------------------------

func benchSVSweep(b *testing.B, render func(io.Writer, []exp.SVRun)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runs, err := exp.ComputeSV(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		render(io.Discard, runs)
	}
}

func BenchmarkFig3SVTimePerIteration(b *testing.B)  { benchSVSweep(b, exp.Fig3) }
func BenchmarkFig4SVBranches(b *testing.B)          { benchSVSweep(b, exp.Fig4) }
func BenchmarkFig5SVMispredictions(b *testing.B)    { benchSVSweep(b, exp.Fig5) }
func BenchmarkFig9aSVMispredictBounds(b *testing.B) { benchSVSweep(b, exp.Fig9a) }

// --- Figs 6-8: the BFS sweep ---------------------------------------------

func benchBFSSweep(b *testing.B, render func(io.Writer, []exp.BFSRun)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runs, err := exp.ComputeBFS(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		render(io.Discard, runs)
	}
}

func BenchmarkFig6BFSTimePerLevel(b *testing.B)      { benchBFSSweep(b, exp.Fig6) }
func BenchmarkFig7BFSBranches(b *testing.B)          { benchBFSSweep(b, exp.Fig7) }
func BenchmarkFig8BFSMispredictions(b *testing.B)    { benchBFSSweep(b, exp.Fig8) }
func BenchmarkFig9bBFSMispredictBounds(b *testing.B) { benchBFSSweep(b, exp.Fig9b) }

// --- Fig 10, speedups, hybrid, ablation ----------------------------------

func BenchmarkFig10Correlations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Compute(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		exp.Fig10(io.Discard, res)
	}
}

func BenchmarkHeadlineSpeedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Compute(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		exp.Speedups(io.Discard, res)
	}
}

func BenchmarkHybridSV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs, err := exp.ComputeSV(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		exp.Hybrid(io.Discard, runs)
	}
}

func BenchmarkAblationPredictors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.AblationPredictors(io.Discard, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStoreCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.AblationStoreCost(io.Discard, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCmovCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.AblationCmovCost(io.Discard, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- native kernels (host wall clock) ------------------------------------

// benchEdges reports a custom metric so kernel benchmarks are comparable
// across graphs.
func reportEdges(b *testing.B, arcs int64) {
	b.Helper()
	b.ReportMetric(float64(arcs), "arcs/op")
}

func BenchmarkNativeSV(b *testing.B) {
	for _, name := range CorpusNames() {
		g := benchGraph(b, name)
		b.Run(fmt.Sprintf("branch-based/%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				labels, _ := cc.SVBranchBased(g)
				if len(labels) == 0 && g.NumVertices() > 0 {
					b.Fatal("no labels")
				}
			}
			reportEdges(b, g.NumArcs())
		})
		b.Run(fmt.Sprintf("branch-avoiding/%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				labels, _, _ := cc.SV(context.Background(), g, core.BranchAvoiding, nil)
				if len(labels) == 0 && g.NumVertices() > 0 {
					b.Fatal("no labels")
				}
			}
			reportEdges(b, g.NumArcs())
		})
		b.Run(fmt.Sprintf("hybrid/%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				labels, _, _ := cc.SV(context.Background(), g, core.Hybrid, nil)
				if len(labels) == 0 && g.NumVertices() > 0 {
					b.Fatal("no labels")
				}
			}
			reportEdges(b, g.NumArcs())
		})
		b.Run(fmt.Sprintf("union-find/%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				labels := cc.UnionFind(g)
				if len(labels) == 0 && g.NumVertices() > 0 {
					b.Fatal("no labels")
				}
			}
			reportEdges(b, g.NumArcs())
		})
	}
}

func BenchmarkNativeBFS(b *testing.B) {
	for _, name := range CorpusNames() {
		g := benchGraph(b, name)
		b.Run(fmt.Sprintf("branch-based/%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist, _ := bfs.TopDownBranchBased(g, 0)
				if len(dist) == 0 {
					b.Fatal("no distances")
				}
			}
			reportEdges(b, g.NumArcs())
		})
		b.Run(fmt.Sprintf("branch-avoiding/%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist, _, _ := bfs.TopDown(context.Background(), g, 0, core.BranchAvoiding, nil, new(bfs.Scratch))
				if len(dist) == 0 {
					b.Fatal("no distances")
				}
			}
			reportEdges(b, g.NumArcs())
		})
		b.Run(fmt.Sprintf("direction-optimizing/%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist, _, _ := bfs.DirectionOptimizing(context.Background(), g, 0, 0, 0, nil, new(bfs.Scratch))
				if len(dist) == 0 {
					b.Fatal("no distances")
				}
			}
			reportEdges(b, g.NumArcs())
		})
	}
}

// --- parallel kernels: speedup curves over worker counts ------------------

// benchRMAT is the largest generated RMAT graph in the harness; the
// parallel benchmarks sweep workers 1..GOMAXPROCS over it so speedup
// curves come straight out of `go test -bench=Parallel`. -benchscale
// grows it: scale 0.01 → RMAT-16, 0.1 → RMAT-19 (log2 growth).
func benchRMAT(b *testing.B) *graph.Graph {
	b.Helper()
	scale := 16 + int(math.Round(math.Log2(*benchScale/0.01)))
	if scale < 10 {
		scale = 10
	}
	return gen.RMAT(scale, 8, gen.DefaultRMAT, 42)
}

// workerSweep returns 1, 2, 4, ... up to GOMAXPROCS (always including
// GOMAXPROCS itself).
func workerSweep() []int {
	max := runtime.GOMAXPROCS(0)
	var ws []int
	for w := 1; w < max; w *= 2 {
		ws = append(ws, w)
	}
	return append(ws, max)
}

// BenchmarkParallelSV runs two inputs. On the RMAT graph one component
// holds most vertices, so the parallel kernel's BFS seed labels nearly
// everything. Six equal GNM components are the case without that
// property: the seed labels one sixth and propagation does the rest.
func BenchmarkParallelSV(b *testing.B) {
	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", benchRMAT(b)},
		{"gnm50k-x6", gen.Disconnected(gen.GNM(50000, 150000, 7), 6)},
	}
	for _, in := range inputs {
		g := in.g
		b.Run(in.name+"/sequential-baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				labels, _, _ := cc.SV(context.Background(), g, core.Hybrid, nil)
				if len(labels) == 0 {
					b.Fatal("no labels")
				}
			}
			reportEdges(b, g.NumArcs())
		})
		for _, w := range workerSweep() {
			b.Run(fmt.Sprintf("%s/hybrid/workers=%d", in.name, w), func(b *testing.B) {
				x := testutil.Exec(b, w, par.Static)
				for i := 0; i < b.N; i++ {
					labels, _, _ := cc.SVParallel(x, g, core.Hybrid, nil, nil, new(bfs.Scratch))
					if len(labels) == 0 {
						b.Fatal("no labels")
					}
				}
				reportEdges(b, g.NumArcs())
			})
		}
	}
	// The repo benchmark's social graph, where the seed BFS reaches
	// every vertex: this case times the seed.
	sg, _ := benchSocial(b)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("social/hybrid/workers=%d", w), func(b *testing.B) {
			x := testutil.Exec(b, w, par.Static)
			var st perfcount.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, _ = cc.SVParallel(x, sg, core.Hybrid, nil, nil, new(bfs.Scratch))
			}
			reportEdges(b, sg.NumArcs())
			b.ReportMetric(float64(st.WordsScanned), "words/op")
		})
	}
}

// benchSocial returns the repo benchmark's social graph (coAuthorsDBLP
// at scale 1, seed 1) and its lowest-id maximum-degree vertex.
func benchSocial(b *testing.B) (*graph.Graph, uint32) {
	b.Helper()
	g, err := CorpusGraph("coAuthorsDBLP", 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g, maxDegreeVertex(g)
}

// maxDegreeVertex returns the lowest-id vertex of maximum degree.
func maxDegreeVertex(g *graph.Graph) uint32 {
	root := uint32(0)
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > g.Degree(root) {
			root = uint32(v)
		}
	}
	return root
}

func BenchmarkParallelBFS(b *testing.B) {
	g := benchRMAT(b)
	b.Run("sequential-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist, _, _ := bfs.DirectionOptimizing(context.Background(), g, 0, 0, 0, nil, new(bfs.Scratch))
			if len(dist) == 0 {
				b.Fatal("no distances")
			}
		}
		reportEdges(b, g.NumArcs())
	})
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("dir-opt/workers=%d", w), func(b *testing.B) {
			x := testutil.Exec(b, w, par.Static)
			for i := 0; i < b.N; i++ {
				dist, _, _ := bfs.ParallelDO(x, g, 0, nil, new(bfs.Scratch))
				if len(dist) == 0 {
					b.Fatal("no distances")
				}
			}
			reportEdges(b, g.NumArcs())
		})
	}
	// The repo benchmark's social graph from its maximum-degree vertex,
	// the distance array and a warm scratch supplied as the serving
	// layer's workspaces do.
	sg, root := benchSocial(b)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("social/workers=%d", w), func(b *testing.B) {
			x := testutil.Exec(b, w, par.Static)
			dist, s := make([]uint32, sg.NumVertices()), new(bfs.Scratch)
			bfs.ParallelDO(x, sg, root, dist, s) // warm the scratch
			var st perfcount.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, _ = bfs.ParallelDO(x, sg, root, dist, s)
			}
			reportEdges(b, sg.NumArcs())
			b.ReportMetric(float64(st.WordsScanned), "words/op")
		})
	}
}

func BenchmarkParallelSSSP(b *testing.B) {
	g := benchRMAT(b)
	// Deterministic symmetric weights in [1, 64]: heavy enough to make
	// the delta-stepping buckets non-trivial.
	w, err := graph.AttachWeights(g, xrand.SymmetricWeights(64, 42))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist := sssp.Dijkstra(w, 0)
			if len(dist) == 0 {
				b.Fatal("no distances")
			}
		}
		reportEdges(b, g.NumArcs())
	})
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("hybrid/workers=%d", workers), func(b *testing.B) {
			x := testutil.Exec(b, workers, par.Static)
			dist := make([]uint64, g.NumVertices())
			for i := 0; i < b.N; i++ {
				dist, _, _ = sssp.Parallel(x, w, 0, sssp.ParallelOptions{Variant: core.Hybrid}, dist, new(sssp.Scratch))
				if len(dist) == 0 {
					b.Fatal("no distances")
				}
			}
			reportEdges(b, g.NumArcs())
		})
	}
	// The repo benchmark's kernels cells sssp.par-hybrid.social and
	// sssp.par-hybrid.mesh at seed 1 (coAuthorsDBLP at scale 1, auto at
	// scale 0.5), weights in [1, 31], the default bucket width, here
	// from the lowest-id maximum-degree vertex.
	for _, c := range []struct {
		name, corpus string
		scale        float64
	}{{"social", "coAuthorsDBLP", 1}, {"mesh", "auto", 0.5}} {
		b.Run(c.name, func(b *testing.B) { benchCorpusSSSP(b, c.corpus, c.scale) })
	}
}

// benchCorpusSSSP runs the hybrid parallel SSSP kernel on one corpus
// graph at workers 1 and 2, with the distance array and a warm scratch
// supplied as the serving layer's workspaces do, reporting the passes
// and candidate stores of a query beside its time.
func benchCorpusSSSP(b *testing.B, corpus string, scale float64) {
	sg, err := CorpusGraph(corpus, scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := graph.AttachWeights(sg, xrand.SymmetricWeights(31, xrand.Hash64(1^0x77)))
	if err != nil {
		b.Fatal(err)
	}
	delta := sssp.DefaultDelta(sw)
	root := maxDegreeVertex(sg)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("par-hybrid/workers=%d", workers), func(b *testing.B) {
			x := testutil.Exec(b, workers, par.Static)
			opt := sssp.ParallelOptions{Variant: core.Hybrid, Delta: delta}
			dist, s := make([]uint64, sg.NumVertices()), new(sssp.Scratch)
			sssp.Parallel(x, sw, root, opt, dist, s) // warm the scratch
			var st perfcount.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err = sssp.Parallel(x, sw, root, opt, dist, s)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportEdges(b, sg.NumArcs())
			b.ReportMetric(float64(st.Passes), "passes/op")
			b.ReportMetric(float64(st.CandStores), "cand_stores/op")
		})
	}
}

// --- chunk scheduling: stealing vs static on skewed frontiers -------------

// stealWorkers picks the scheduler benchmarks' pool size: at least 4
// so steals can happen even when the container exposes one CPU (pool
// goroutines still interleave at blocking points), GOMAXPROCS when the
// hardware offers more.
func stealWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 4 {
		return w
	}
	return 4
}

// BenchmarkStealVsStatic pairs the two chunk schedules on a skewed
// graph: the RMAT benchmark graph overlaid with a forced hub that owns
// the majority of all arcs (star edges to every vertex plus enough
// kept parallel self-loops to push vertex 0 past 50% — an undirected
// simple graph caps a vertex at exactly half, see testutil.Hub), so
// the static split hands one worker a straggler block every pass.
// Speedup (and the steals/op, chunks/op metrics showing the steal path
// is actually exercised) is reported, never asserted: CI containers
// may expose a single CPU.
func benchHubRMAT(b *testing.B) *graph.Graph {
	b.Helper()
	base := benchRMAT(b)
	n := base.NumVertices()
	adj := base.Adjacency()
	offs := base.Offsets()
	loops := int(base.NumArcs()) + 4*n // hub mass: strictly >50% of all arcs
	edges := make([]graph.Edge, 0, int(base.NumArcs())/2+n+loops)
	for v := 0; v < n; v++ {
		for _, u := range adj[offs[v]:offs[v+1]] {
			if uint32(v) < u {
				edges = append(edges, graph.Edge{U: uint32(v), V: u})
			}
		}
	}
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(i)})
	}
	for i := 0; i < loops; i++ {
		edges = append(edges, graph.Edge{U: 0, V: 0})
	}
	g := graph.MustBuild(n, edges, graph.Options{
		Name: "rmat+hub", KeepSelfLoops: true, KeepParallelEdges: true,
	})
	if hub := g.Degree(0); int64(hub)*2 <= g.NumArcs() {
		b.Fatalf("hub owns %d of %d arcs — not a majority", hub, g.NumArcs())
	}
	return g
}

func BenchmarkStealVsStatic(b *testing.B) {
	g := benchHubRMAT(b)
	workers := stealWorkers()
	for _, sched := range []par.Schedule{par.Static, par.Stealing} {
		b.Run(fmt.Sprintf("cc/%v/workers=%d", sched, workers), func(b *testing.B) {
			x := testutil.Exec(b, workers, sched)
			var steals, chunks uint64
			for i := 0; i < b.N; i++ {
				_, st, err := cc.SVParallel(x, g, core.Hybrid, nil, nil, new(bfs.Scratch))
				if err != nil {
					b.Fatal(err)
				}
				steals += st.Steals
				chunks += uint64(st.Chunks)
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
			b.ReportMetric(float64(chunks)/float64(b.N), "chunks/op")
			reportEdges(b, g.NumArcs())
		})
		b.Run(fmt.Sprintf("bfs/%v/workers=%d", sched, workers), func(b *testing.B) {
			x := testutil.Exec(b, workers, sched)
			var steals, chunks uint64
			for i := 0; i < b.N; i++ {
				_, st, err := bfs.ParallelDO(x, g, 0, nil, new(bfs.Scratch))
				if err != nil {
					b.Fatal(err)
				}
				steals += st.Steals
				chunks += uint64(st.Chunks)
			}
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
			b.ReportMetric(float64(chunks)/float64(b.N), "chunks/op")
			reportEdges(b, g.NumArcs())
		})
	}
}

// BenchmarkRelabelSpeedup pairs each kernel on the same skewed graph in
// two memory layouts: a shuffled layout (what bagen -shuffle writes —
// vertex ids carry no locality) and the degree-ordered layout
// RelabelDegree produces, which clusters the hub and its satellites into
// the low vertex ids. Speedup is reported, never asserted.
func BenchmarkRelabelSpeedup(b *testing.B) {
	skew := benchHubRMAT(b)
	shuf, err := skew.Permute(relabel.Shuffle(skew.NumVertices(), 7))
	if err != nil {
		b.Fatal(err)
	}
	rl, err := RelabelDegree(shuf)
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]uint32, 64)
	for i := range roots {
		roots[i] = uint32(i)
	}
	pool := NewWorkerPool(stealWorkers())
	defer pool.Close()
	layouts := []struct {
		name string
		tgt  Target
	}{{"identity", shuf}, {"degree", rl}}
	for _, kern := range []struct {
		name string
		req  Request
	}{
		{"bfs", Request{Kind: KindBFS, Parallel: true}},
		{"msbfs", Request{Kind: KindBFSBatch, Roots: roots}},
		{"cc", Request{Kind: KindCC, Parallel: true}},
	} {
		for _, l := range layouts {
			b.Run(kern.name+"/"+l.name, func(b *testing.B) {
				ws := &Workspace{}
				req := kern.req
				req.Workspace = ws
				for i := 0; i < b.N; i++ {
					if _, err := pool.Run(context.Background(), l.tgt, req); err != nil {
						b.Fatal(err)
					}
				}
				reportEdges(b, shuf.NumArcs())
			})
		}
	}
}

// --- simulated kernels (events per run, one platform) --------------------

func BenchmarkSimulatedSV(b *testing.B) {
	model, _ := uarch.ByName("Haswell")
	for _, name := range []string{"cond-mat-2005", "auto"} {
		g := benchGraph(b, name)
		b.Run("branch-based/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := simkern.SVBranchBased(perfsim.NewDefault(model), g)
				if r.Iterations == 0 {
					b.Fatal("no passes")
				}
			}
		})
		b.Run("branch-avoiding/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := simkern.SVBranchAvoiding(perfsim.NewDefault(model), g)
				if r.Iterations == 0 {
					b.Fatal("no passes")
				}
			}
		})
	}
}

func BenchmarkSimulatedBFS(b *testing.B) {
	model, _ := uarch.ByName("Haswell")
	g := benchGraph(b, "coAuthorsDBLP")
	b.Run("branch-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := simkern.BFSBranchBased(perfsim.NewDefault(model), g, 0)
			if r.Reached == 0 {
				b.Fatal("nothing reached")
			}
		}
	})
	b.Run("branch-avoiding", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := simkern.BFSBranchAvoiding(perfsim.NewDefault(model), g, 0)
			if r.Reached == 0 {
				b.Fatal("nothing reached")
			}
		}
	})
}

// --- extensions (paper §1's predicted transfers) --------------------------

func BenchmarkExtensionSSSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.ExtensionSSSP(io.Discard, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionBetweenness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.ExtensionBC(io.Discard, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionAPSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := exp.ExtensionAPSP(io.Discard, benchOpt()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- unified API dispatch overhead ---------------------------------------

// BenchmarkRunOverhead quantifies what the unified request/response API
// costs on top of a direct kernel call: request validation, the kind
// dispatch, the context entry check, and the Stats normalization. The
// graph is deliberately tiny — a few-microsecond kernel — so any facade
// overhead would be a visible fraction of the time; on serving-size
// graphs it vanishes entirely. Paired with the direct-call baselines
// below, the bench artifact records that Run's dispatch is negligible.
func BenchmarkRunOverhead(b *testing.B) {
	g := gen.Grid2D(16, 16, false) // 256 vertices: kernel time ~µs
	ctx := context.Background()

	b.Run("bfs/direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist, _ := bfs.TopDownBranchBased(g, 0)
			if len(dist) == 0 {
				b.Fatal("no distances")
			}
		}
	})
	b.Run("bfs/run", func(b *testing.B) {
		req := Request{Kind: KindBFS, BFS: BFSBranchBased, Root: 0}
		for i := 0; i < b.N; i++ {
			res, err := Run(ctx, g, req)
			if err != nil || len(res.Hops) == 0 {
				b.Fatal("no distances")
			}
		}
	})
	b.Run("cc/direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			labels, _, _ := cc.SV(context.Background(), g, core.BranchAvoiding, nil)
			if len(labels) == 0 {
				b.Fatal("no labels")
			}
		}
	})
	b.Run("cc/run", func(b *testing.B) {
		req := Request{Kind: KindCC, CC: CCBranchAvoiding}
		for i := 0; i < b.N; i++ {
			res, err := Run(ctx, g, req)
			if err != nil || len(res.Labels) == 0 {
				b.Fatal("no labels")
			}
		}
	})
}
