package bagraph

import (
	"context"
	"fmt"
	"testing"

	"bagraph/internal/cc"
	"bagraph/internal/graph"
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
// cc.UnionFind's labeling for any graph the bytes decode to. The seed
// corpus holds the shapes the parallel kernel's BFS seed special-cases.
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
	}
	var pools []*WorkerPool
	for workers := 1; workers <= 4; workers++ {
		p := NewWorkerPool(workers)
		f.Cleanup(p.Close)
		pools = append(pools, p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		want := cc.UnionFind(g)
		for _, a := range algos {
			for _, pool := range pools {
				for _, sched := range []Schedule{ScheduleStatic, ScheduleStealing} {
					for _, relabel := range []bool{false, true} {
						name := fmt.Sprintf("%s/w%d/%s/relabel=%v", a.name, pool.Workers(), sched, relabel)
						res, err := pool.Run(context.Background(), g, Request{
							Kind: KindCC, CC: a.alg, Parallel: a.parallel, Schedule: sched, Relabel: relabel,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						testutil.MustEqualLabels(t, name, res.Labels, want)
					}
				}
			}
		}
	})
}
