package main

import (
	"sync"
	"time"

	"bagraph"
	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/sssp"
	"bagraph/internal/xrand"
)

// graphSpec names one benchmark input: a corpus stand-in at a scale.
//
// The graph itself is a fixed instance, as the paper's corpus files are:
// instance is the generator's seed, and --seed does not reach it. A
// graph's structure decides discrete things — 6 or 7 Jacobi passes of
// cc.par-hybrid on social is a 17 % step — that no amount of repetition
// inside a run averages away, so ten seeds on ten instances disagreed by
// more than the bounds. --seed varies what a caller varies: the edge
// weights, the root pools and the op order.
type graphSpec struct {
	name     string // the benchmark's name for it: social, mesh, small
	corpus   string
	scale    float64
	instance uint64
}

var (
	specSocial = graphSpec{"social", "coAuthorsDBLP", 1, 1}
	specMesh   = graphSpec{"mesh", "auto", 0.5, 1}
	specSmall  = graphSpec{"small", "cond-mat-2005", 1, 1}
	// specSmallNext is the graph serve-rollout alternates with small.
	specSmallNext = graphSpec{"small", "cond-mat-2005", 1, 2}
)

const (
	rootPoolSize = 32 // roots the serve clients draw from
	kernelRoots  = 8  // roots the kernels workload cycles through: it keeps full oracle arrays for them
	batchRoots   = 64 // sources of the bfs.ms64 cell
	maxWeight    = 31
)

// input is one generated graph with its weights, ready to publish.
type input struct {
	spec  graphSpec
	g     *bagraph.Graph
	w     *bagraph.WeightedGraph
	delta uint64 // delta-stepping width, cached per graph as the daemon does

	genSeconds float64
	weightsMs  float64
}

// arrayBytes is the footprint of the CSR, the weights and one label or
// distance array of each width: what a kernel pass touches.
func (in *input) arrayBytes() int64 {
	n, arcs := int64(in.g.NumVertices()), in.g.NumArcs()
	return (n+1)*8 + arcs*4 + arcs*4 + n*4 + n*8
}

// generate builds the spec's graph, and its weights from seed. Quick
// mode swaps every graph for a tenth of the small one so the wiring is
// exercised in a second.
func generate(spec graphSpec, seed uint64, quick bool) (*input, error) {
	if quick {
		spec.corpus, spec.scale = specSmall.corpus, 0.1
	}
	t0 := time.Now()
	g, err := bagraph.CorpusGraph(spec.corpus, spec.scale, spec.instance)
	if err != nil {
		return nil, err
	}
	g.SetName(spec.name)
	t1 := time.Now()
	w, err := bagraph.AttachWeights(g, xrand.SymmetricWeights(maxWeight, xrand.Hash64(seed^0x77)))
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	return &input{
		spec: spec, g: g, w: w, delta: sssp.DefaultDelta(w),
		genSeconds: t1.Sub(t0).Seconds(),
		weightsMs:  ms(t2.Sub(t1)),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rootOracle is the reference answer of the traversal kinds for one root.
type rootOracle struct {
	hopsDigest  uint64
	hopsReached int
	distDigest  uint64
	distReached int
	distSum     uint64
	// hops and dists are kept only where the caller compares arrays
	// directly (the kernels workload); serve clients compare digests.
	hops  []uint32
	dists []uint64
}

// oracle holds the reference answers for one graph, computed with the
// simplest independent kernels: union-find, sequential top-down BFS and
// Dijkstra.
type oracle struct {
	vertices     int
	edges        int64
	components   int
	labels       []uint32
	labelsDigest uint64
	roots        []uint32 // the seed-chosen pool, all in the largest component
	byRoot       map[uint32]*rootOracle
}

// largestComponent returns the vertices carrying the most common label.
func largestComponent(labels []uint32) []uint32 {
	sizes := make(map[uint32]int)
	best, bestSize := uint32(0), 0
	for _, l := range labels {
		sizes[l]++
		if s := sizes[l]; s > bestSize || (s == bestSize && l < best) {
			best, bestSize = l, s
		}
	}
	members := make([]uint32, 0, bestSize)
	for v, l := range labels {
		if l == best {
			members = append(members, uint32(v))
		}
	}
	return members
}

// rootPool draws n distinct vertices of the largest component. Random
// roots on skewed graphs hit isolated vertices and make latency bimodal.
func rootPool(labels []uint32, n int, seed uint64) []uint32 {
	members := largestComponent(labels)
	if n > len(members) {
		n = len(members)
	}
	r := xrand.New(xrand.Hash64(seed ^ 0x5eed))
	// Partial Fisher-Yates: the first n slots end up a uniform sample.
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(members)-i)
		members[i], members[j] = members[j], members[i]
	}
	return members[:n]
}

// buildOracle computes the reference answers for in over a pool of
// full+hopsOnly seed-chosen roots: the first full roots get a BFS and a
// Dijkstra answer (with the arrays kept when keepArrays is set), the
// rest a BFS answer only (the extra sources of the bfs.ms64 cell). A
// non-nil roots replaces the seed-chosen pool; all of it is answered in
// full.
func buildOracle(in *input, seed uint64, roots []uint32, full, hopsOnly int, keepArrays bool, workers int) *oracle {
	labels := cc.UnionFind(in.g)
	if roots == nil {
		roots = rootPool(labels, full+hopsOnly, seed)
	} else {
		full = len(roots)
	}
	o := &oracle{
		vertices:     in.g.NumVertices(),
		edges:        in.g.NumEdges(),
		components:   cc.CountComponents(labels),
		labels:       labels,
		labelsDigest: digest32(labels),
		roots:        roots,
		byRoot:       make(map[uint32]*rootOracle),
	}
	ros := make([]*rootOracle, len(o.roots))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ros[i] = oracleFor(in, o.roots[i], i < full, keepArrays)
			}
		}()
	}
	for i := range o.roots {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, r := range o.roots {
		o.byRoot[r] = ros[i]
	}
	return o
}

func oracleFor(in *input, root uint32, withDists, keep bool) *rootOracle {
	hops, _ := bfs.TopDownBranchBased(in.g, root)
	ro := &rootOracle{hopsDigest: digest32(hops)}
	for _, h := range hops {
		if h != bfs.Inf {
			ro.hopsReached++
		}
	}
	if !withDists {
		return ro
	}
	dists := sssp.Dijkstra(in.w, root)
	ro.distDigest = digest64(dists)
	for _, d := range dists {
		if d != sssp.Inf {
			ro.distReached++
			ro.distSum += d
		}
	}
	if keep {
		ro.hops, ro.dists = hops, dists
	}
	return ro
}
