// FEM mesh traversal: the workload class of the paper's matrix graphs
// (audikw1, ldoor). Runs all BFS kernels over a 3-D finite-element mesh,
// prints the frontier profile, and demonstrates the paper's negative
// result — the branch-avoiding BFS pays O(|E|) stores and usually loses.
//
//	go run ./examples/meshlevels
package main

import (
	"context"
	"fmt"
	"log"

	"bagraph"
	"bagraph/internal/bfs"
	"bagraph/internal/gen"
)

// run executes one sequential BFS variant through the unified API.
func run(g *bagraph.Graph, root uint32, variant bagraph.BFSVariant) *bagraph.Result {
	res, err := bagraph.Run(context.Background(), g, bagraph.Request{Kind: bagraph.KindBFS, BFS: variant, Root: root})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	// A 26-point-stencil FEM mesh, the structure class of audikw1/ldoor.
	g := gen.Grid3D(20, 20, 20, 1)
	fmt.Println("mesh:", g)

	root := uint32(0)
	bb := run(g, root, bagraph.BFSBranchBased)
	if err := bfs.Verify(g, root, bb.Hops); err != nil {
		log.Fatal(err)
	}
	st := bb.Stats
	fmt.Printf("levels: %d, reached %d\n", st.Passes, st.Reached)
	fmt.Println("frontier sizes per level:")
	for i, s := range st.LevelSizes {
		bar := ""
		for j := 0; j < s*60/maxOf(st.LevelSizes); j++ {
			bar += "#"
		}
		fmt.Printf("  level %2d %6d %s\n", i, s, bar)
	}

	// Store traffic: the crux of the paper's BFS result.
	bbSt, baSt := bb.Stats, run(g, root, bagraph.BFSBranchAvoiding).Stats
	fmt.Printf("\nstore traffic (distance + queue writes):\n")
	fmt.Printf("  branch-based:    %8d\n", bbSt.DistStores+bbSt.QueueStores)
	fmt.Printf("  branch-avoiding: %8d (%.0fx more — the paper's §6.3 blow-up)\n",
		baSt.DistStores+baSt.QueueStores,
		float64(baSt.DistStores+baSt.QueueStores)/float64(bbSt.DistStores+bbSt.QueueStores))

	// Simulated consequence per platform: branch-avoiding BFS mostly
	// loses; Silvermont (cheap stores) is the exception class.
	fmt.Println("\nsimulated BFS speedup (branch-based / branch-avoiding; <1 = branch-avoiding loses):")
	for _, platform := range bagraph.Platforms() {
		bb, err := bagraph.ProfileBFS(g, root, platform, false)
		if err != nil {
			log.Fatal(err)
		}
		ba, err := bagraph.ProfileBFS(g, root, platform, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %.2fx\n", platform, bb.TotalSeconds()/ba.TotalSeconds())
	}

	// The direction-optimizing baseline sidesteps the issue entirely by
	// shrinking the number of edge traversals.
	doSt := run(g, root, bagraph.BFSDirectionOptimizing).Stats
	fmt.Printf("\ndirection-optimizing baseline: %d levels, %v total\n", doSt.Passes, doSt.Total())
}

func maxOf(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
