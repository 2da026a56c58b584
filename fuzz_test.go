package bagraph

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/cc"
	"bagraph/internal/graph"
	"bagraph/internal/sssp"
	"bagraph/internal/testutil"
)

// fuzzGraph decodes fuzz bytes into a small undirected multigraph: no
// bytes is the empty graph; otherwise the first byte sets n = b+1 ≤ 256
// vertices and each following byte pair is an edge (u mod n, v mod n).
// Self-loops and parallel edges are kept, and vertices no pair names
// stay isolated.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.MustBuild(0, nil, graph.Options{})
	}
	n := int(data[0]) + 1
	var edges []graph.Edge
	for i := 1; i+1 < len(data); i += 2 {
		edges = append(edges, graph.Edge{U: uint32(int(data[i]) % n), V: uint32(int(data[i+1]) % n)})
	}
	return graph.MustBuild(n, edges, graph.Options{KeepSelfLoops: true, KeepParallelEdges: true})
}

// fuzzCCInput encodes an n-vertex graph (1 ≤ n ≤ 256) in fuzzGraph's
// format.
func fuzzCCInput(n int, edges ...[2]byte) []byte {
	data := []byte{byte(n - 1)}
	for _, e := range edges {
		data = append(data, e[0], e[1])
	}
	return data
}

// fuzzPath returns the edges of a path over vertices lo..hi.
func fuzzPath(lo, hi byte) [][2]byte {
	var edges [][2]byte
	for v := lo; v < hi; v++ {
		edges = append(edges, [2]byte{v, v + 1})
	}
	return edges
}

// FuzzCC is the connected-components slice of a differential Run fuzzer:
// every CC algorithm, at every worker count from 1 to 4, under both
// schedules, with and without degree relabeling, must return
// cc.UnionFind's labeling (computed in fresh memory) for any graph the
// bytes decode to. Every algorithm also runs through one Workspace per
// worker count, shared by every algorithm and input, so consecutive
// graphs of different sizes run in stale buffers. The seed corpus holds
// the shapes the parallel kernel's BFS seed special-cases.
func FuzzCC(f *testing.F) {
	f.Add([]byte{})                                     // empty
	f.Add(fuzzCCInput(1))                               // one vertex
	f.Add(fuzzCCInput(9))                               // all isolated: max degree 0
	f.Add(fuzzCCInput(4, [2]byte{1, 1}, [2]byte{2, 3})) // a vertex whose only edge is a self-loop
	// Parallel edges beside a self-loop.
	f.Add(fuzzCCInput(5, [2]byte{0, 1}, [2]byte{0, 1}, [2]byte{3, 4}, [2]byte{3, 3}))
	// Two components tied on max degree; the lower-id hub's is smaller.
	f.Add(fuzzCCInput(9, [2]byte{2, 0}, [2]byte{2, 1}, [2]byte{2, 3},
		[2]byte{6, 4}, [2]byte{6, 5}, [2]byte{6, 7}, [2]byte{7, 8}))
	// Three 20-vertex paths; the hub is in the last copy, neither its
	// component's minimum id nor 0.
	var copies [][2]byte
	for c := byte(0); c < 3; c++ {
		copies = append(copies, fuzzPath(20*c, 20*c+19)...)
	}
	for v := byte(40); v < 50; v++ {
		copies = append(copies, [2]byte{55, v})
	}
	f.Add(fuzzCCInput(60, copies...))
	f.Add(fuzzCCInput(256, fuzzPath(0, 255)...)) // maximum diameter
	f.Add(fuzzCCInput(256, fuzzPath(100, 200)...))

	algos := []struct {
		name     string
		alg      CCAlgorithm
		parallel bool
	}{
		{"par-bb", CCBranchBased, true},
		{"par-ba", CCBranchAvoiding, true},
		{"par-hybrid", CCHybrid, true},
		{"sv-bb", CCBranchBased, false},
		{"sv-ba", CCBranchAvoiding, false},
		{"hybrid", CCHybrid, false},
		{"unionfind", CCUnionFind, false},
	}
	var pools []*WorkerPool
	var workspaces []*Workspace
	for workers := 1; workers <= 4; workers++ {
		p := NewWorkerPool(workers)
		f.Cleanup(p.Close)
		pools = append(pools, p)
		workspaces = append(workspaces, &Workspace{})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		want := cc.UnionFind(g)
		for _, a := range algos {
			for p, pool := range pools {
				for _, sched := range []Schedule{ScheduleStatic, ScheduleStealing} {
					for _, relabel := range []bool{false, true} {
						for _, ws := range []*Workspace{nil, workspaces[p]} {
							name := fmt.Sprintf("%s/w%d/%s/relabel=%v/ws=%v", a.name, pool.Workers(), sched, relabel, ws != nil)
							res, err := pool.Run(context.Background(), g, Request{
								Kind: KindCC, CC: a.alg, Parallel: a.parallel, Schedule: sched, Relabel: relabel, Workspace: ws,
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							testutil.MustEqualLabels(t, name, res.Labels, want)
						}
					}
				}
			}
		}
	})
}

// FuzzBFS is the breadth-first slice of the differential Run fuzzer:
// the three sequential BFS variants and the parallel
// direction-optimizing kernel from a fuzz-chosen root, and the
// multi-source batch kernel from fuzz-chosen roots, at every worker
// count from 1 to 4, under both schedules, with and without degree
// relabeling, must return bfs.TopDownBranchBased's hop distances
// (computed in fresh memory). Every variant also runs through one
// Workspace per worker count, shared by every variant and input, so
// consecutive graphs of different sizes run in stale buffers. On the
// empty graph no root is in range, so every single-source run must
// fail and the batch runs with no roots.
func FuzzBFS(f *testing.F) {
	f.Add([]byte{}, byte(0), []byte{})              // empty
	f.Add(fuzzCCInput(9), byte(4), []byte{0, 8, 8}) // all isolated: max degree 0
	// A vertex whose only edge is a self-loop.
	f.Add(fuzzCCInput(4, [2]byte{1, 1}, [2]byte{2, 3}), byte(1), []byte{1, 2})
	// A path: maximum diameter.
	f.Add(fuzzCCInput(256, fuzzPath(0, 255)...), byte(0), []byte{0, 255, 128})
	// Two components; 70 roots fill one 64-search wave group and spill
	// into a second.
	twoRoots := make([]byte, 70)
	for i := range twoRoots {
		twoRoots[i] = byte(i)
	}
	f.Add(fuzzCCInput(9, [2]byte{2, 0}, [2]byte{2, 1}, [2]byte{2, 3},
		[2]byte{6, 4}, [2]byte{6, 5}, [2]byte{6, 7}, [2]byte{7, 8}), byte(6), twoRoots)

	variants := []struct {
		name string
		req  Request
	}{
		{"bb", Request{Kind: KindBFS, BFS: BFSBranchBased}},
		{"ba", Request{Kind: KindBFS, BFS: BFSBranchAvoiding}},
		{"dir-opt", Request{Kind: KindBFS, BFS: BFSDirectionOptimizing}},
		{"par-do", Request{Kind: KindBFS, Parallel: true}},
		{"ms", Request{Kind: KindBFSBatch}},
	}
	var pools []*WorkerPool
	var workspaces []*Workspace
	for workers := 1; workers <= 4; workers++ {
		p := NewWorkerPool(workers)
		f.Cleanup(p.Close)
		pools = append(pools, p)
		workspaces = append(workspaces, &Workspace{})
	}
	f.Fuzz(func(t *testing.T, data []byte, root byte, rootBytes []byte) {
		// Past 1024 edges an input buys time, not shapes; past three wave
		// groups a batch adds no new one.
		if len(data) > 1+2*1024 {
			data = data[:1+2*1024]
		}
		if len(rootBytes) > 3*64 {
			rootBytes = rootBytes[:3*64]
		}
		g := fuzzGraph(data)
		n := g.NumVertices()
		var src uint32
		var roots []uint32
		want := map[uint32][]uint32{}
		if n > 0 {
			src = uint32(int(root) % n)
			roots = make([]uint32, len(rootBytes))
			for i, b := range rootBytes {
				roots[i] = uint32(int(b) % n)
			}
			for _, r := range append([]uint32{src}, roots...) {
				if want[r] == nil {
					want[r], _ = bfs.TopDownBranchBased(g, r)
				}
			}
		}
		for _, v := range variants {
			for p, pool := range pools {
				for _, sched := range []Schedule{ScheduleStatic, ScheduleStealing} {
					for _, relabel := range []bool{false, true} {
						for _, ws := range []*Workspace{nil, workspaces[p]} {
							name := fmt.Sprintf("%s/w%d/%s/relabel=%v/ws=%v", v.name, pool.Workers(), sched, relabel, ws != nil)
							req := v.req
							req.Root, req.Roots, req.Schedule, req.Relabel, req.Workspace = src, roots, sched, relabel, ws
							res, err := pool.Run(context.Background(), g, req)
							if req.Kind == KindBFS && n == 0 {
								if err == nil {
									t.Fatalf("%s: root 0 of the empty graph accepted", name)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if req.Kind == KindBFS {
								testutil.MustEqualDists(t, name, res.Hops, want[src])
								continue
							}
							if len(res.HopsBatch) != len(roots) {
								t.Fatalf("%s: %d arrays for %d roots", name, len(res.HopsBatch), len(roots))
							}
							for i, r := range roots {
								testutil.MustEqualDists(t, fmt.Sprintf("%s/root%d=%d", name, i, r), res.HopsBatch[i], want[r])
							}
						}
					}
				}
			}
		}
	})
}

// fuzzWeight maps one fuzz byte to an edge weight: mostly small values
// (0 included), with the top of the byte range reaching far beyond any
// bucket width — 2^27..2^31, and 0xff for math.MaxUint32 itself.
func fuzzWeight(b byte) uint32 {
	switch {
	case b == 0xff:
		return math.MaxUint32
	case b >= 0xf0:
		return uint32(b&0x0f+1) << 27
	default:
		return uint32(b)
	}
}

// fuzzWeighted decodes the same bytes as fuzzGraph into a weighted
// graph, taking edge i's weight from ws[i mod len(ws)] (weight 1 when
// ws is empty). Parallel edges collapse to their minimum weight and
// self-loops are dropped, as in NewWeightedGraph.
func fuzzWeighted(data, ws []byte) *WeightedGraph {
	if len(data) == 0 {
		return graph.MustBuildWeighted(0, nil, "")
	}
	n := int(data[0]) + 1
	var edges []WeightedEdge
	for i := 1; i+1 < len(data); i += 2 {
		w := uint32(1)
		if len(ws) > 0 {
			w = fuzzWeight(ws[(i/2)%len(ws)])
		}
		edges = append(edges, WeightedEdge{U: uint32(int(data[i]) % n), V: uint32(int(data[i+1]) % n), W: w})
	}
	return graph.MustBuildWeighted(n, edges, "")
}

// FuzzSSSP is the shortest-paths slice of the differential Run fuzzer:
// the three parallel delta-stepping variants, at every worker count
// from 1 to 4, under both schedules, at the default bucket width, at
// width 1 and at a fuzz-chosen power of two, plus the two sequential
// Bellman-Ford kernels and Dijkstra through Run — all must return
// sssp.Dijkstra's distances (computed in fresh memory) from the
// fuzz-chosen source. Every algorithm also runs through one Workspace
// per worker count, shared by every algorithm and input, so
// consecutive graphs of different sizes run in stale distances and
// kernel scratch.
// Weights span 0 to math.MaxUint32, so bucket ids range from a handful
// to about 2^32 apart.
func FuzzSSSP(f *testing.F) {
	f.Add([]byte{0}, []byte{}, byte(0), byte(0)) // one vertex
	f.Add(fuzzCCInput(9), []byte{1}, byte(3), byte(2))
	f.Add(fuzzCCInput(4, [2]byte{0, 1}, [2]byte{1, 2}, [2]byte{0, 2}), []byte{0, 0, 5}, byte(0), byte(0))
	// A path with one MaxUint32 edge in the middle: at width 1 the
	// buckets on either side of it are about 2^32 apart.
	f.Add(fuzzCCInput(8, fuzzPath(0, 7)...), []byte{1, 2, 3, 0xff, 1, 2, 3}, byte(0), byte(0))
	f.Add(fuzzCCInput(8, fuzzPath(0, 7)...), []byte{0xf3, 0, 0xff, 7}, byte(5), byte(31))
	// Parallel edges of different weights, a self-loop, two components.
	f.Add(fuzzCCInput(6, [2]byte{0, 1}, [2]byte{0, 1}, [2]byte{1, 1}, [2]byte{1, 2}, [2]byte{4, 5}),
		[]byte{9, 2, 0, 0xf8, 1}, byte(1), byte(4))
	f.Add(fuzzCCInput(256, fuzzPath(0, 255)...), []byte{0xef, 0, 1, 0xfe}, byte(128), byte(8))

	algos := []struct {
		name     string
		alg      SSSPAlgorithm
		parallel bool
	}{
		{"par-bb", SSSPBellmanFord, true},
		{"par-ba", SSSPBellmanFordBranchAvoiding, true},
		{"par-hybrid", SSSPHybrid, true},
		{"bb", SSSPBellmanFord, false},
		{"ba", SSSPBellmanFordBranchAvoiding, false},
		{"dijkstra", SSSPDijkstra, false},
	}
	var pools []*WorkerPool
	var workspaces []*Workspace
	for workers := 1; workers <= 4; workers++ {
		p := NewWorkerPool(workers)
		f.Cleanup(p.Close)
		pools = append(pools, p)
		workspaces = append(workspaces, &Workspace{})
	}
	f.Fuzz(func(t *testing.T, data, ws []byte, root, deltaLog byte) {
		// Every input runs 192 kernels, hundreds of passes each at width
		// 1 on a dense graph: past 1024 edges an input buys time, not
		// shapes.
		if len(data) > 1+2*1024 {
			data = data[:1+2*1024]
		}
		g := fuzzWeighted(data, ws)
		n := g.NumVertices()
		if n == 0 {
			return
		}
		src := uint32(int(root) % n)
		want := sssp.Dijkstra(g, src)
		deltas := []uint64{0, 1, uint64(1) << (deltaLog % 34)}
		for _, a := range algos {
			// The sequential kernels take no width: one run each.
			widths := deltas
			if !a.parallel {
				widths = widths[:1]
			}
			for p, pool := range pools {
				for _, sched := range []Schedule{ScheduleStatic, ScheduleStealing} {
					for _, delta := range widths {
						for _, ws := range []*Workspace{nil, workspaces[p]} {
							name := fmt.Sprintf("%s/w%d/%s/delta=%d/ws=%v", a.name, pool.Workers(), sched, delta, ws != nil)
							res, err := pool.Run(context.Background(), g, Request{
								Kind: KindSSSP, SSSP: a.alg, Parallel: a.parallel, Root: src,
								Schedule: sched, Delta: delta, Workspace: ws,
							})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							testutil.MustEqualDists(t, name, res.Dists, want)
						}
					}
				}
			}
		}
	})
}
