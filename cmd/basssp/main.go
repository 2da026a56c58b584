// Command basssp computes single-source shortest paths over a METIS
// graph with a selectable kernel and prints per-pass statistics. Files
// carrying per-edge weights (format code "1") are used as-is;
// unweighted inputs run with unit weights.
//
// Usage:
//
//	basssp -in weighted.metis -root 0 -algo par-hybrid
//	bagen -kind ba -n 20000 -wmax 9 | basssp -algo ba
//	basssp -in graph.metis -algo par-bb -workers 8 -delta 16
//
// The "reached" and "sum" lines are the equivalence digest the daemon
// smoke script compares against baserved's /query/sssp responses.
//
// Kernels run through the unified bagraph.Run API; SIGINT/SIGTERM
// cancels the context, and the kernel stops at its next pass barrier
// with a partial-progress report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"bagraph"
	"bagraph/internal/algoreq"
	"bagraph/internal/metis"
	"bagraph/internal/sssp"
)

func main() {
	in := flag.String("in", "", "input METIS file (default: stdin)")
	root := flag.Uint("root", 0, "source vertex")
	algo := flag.String("algo", "ba",
		"kernel: bb | ba | dijkstra | par-bb | par-ba | par-hybrid")
	workers := flag.Int("workers", 0, "workers for par-* kernels (0 = GOMAXPROCS)")
	delta := flag.Uint64("delta", 0, "bucket width for par-* kernels (0 = auto)")
	schedule := flag.String("schedule", "static", "chunk schedule for par-* kernels: static | steal")
	relabelOn := flag.Bool("relabel", false, "run on a degree-ordered copy (results stay in original ids)")
	flag.Parse()

	sched, err := bagraph.ParseSchedule(*schedule)
	if err != nil {
		fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	g, err := metis.ReadWeighted(r)
	if err != nil {
		fail(err)
	}
	kind := "unit"
	if g.HasWeights {
		kind = "explicit"
	}
	fmt.Printf("graph: %s (%s weights), root %d\n", g.Graph, kind, *root)
	var tgt bagraph.Target = g.Weighted
	if *relabelOn {
		rl, err := bagraph.RelabelDegree(g.Weighted)
		if err != nil {
			fail(err)
		}
		tgt = rl
	}

	src := uint32(*root)
	req, err := algoreq.SSSP(*algo, src, *delta)
	if err != nil {
		fail(err)
	}
	req.Workers = *workers
	req.Schedule = sched
	res, err := bagraph.Run(ctx, tgt, req)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			switch {
			case res != nil && req.Parallel:
				fmt.Fprintf(os.Stderr, "basssp: interrupted after %d completed pass(es) over %d bucket(s) (%v); distances are partial\n",
					res.Stats.Passes, res.Stats.Buckets, res.Stats.Total())
			case res != nil && res.Stats.Passes > 0:
				fmt.Fprintf(os.Stderr, "basssp: interrupted after %d completed pass(es) (%v); distances are partial\n",
					res.Stats.Passes, res.Stats.Total())
			case res != nil:
				// Dijkstra has no pass structure to report.
				fmt.Fprintln(os.Stderr, "basssp: interrupted mid-kernel; distances are partial")
			default:
				fmt.Fprintln(os.Stderr, "basssp: interrupted before the kernel started")
			}
			os.Exit(130)
		}
		fail(err)
	}
	dist, st := res.Dists, res.Stats

	if err := sssp.Verify(g.Weighted, src, dist); err != nil {
		fail(fmt.Errorf("result failed verification: %w", err))
	}

	reached := 0
	sum := uint64(0)
	for _, d := range dist {
		if d != sssp.Inf {
			reached++
			sum += d
		}
	}
	fmt.Printf("reached %d/%d vertices\n", reached, g.NumVertices())
	fmt.Printf("sum %d\n", sum)
	if st.Passes > 0 {
		fmt.Printf("passes: %d, total %v, dist stores %d, cand stores %d, buckets %d\n",
			st.Passes, st.Total(), st.DistStores, st.CandStores, st.Buckets)
		if st.Chunks > 0 {
			fmt.Printf("schedule: %d chunks, %d stolen (%d steal passes)\n",
				st.Chunks, st.Steals, st.StealPasses)
		}
		// Only the parallel kernel counts applied relaxations.
		if st.LightRelaxed > 0 {
			fmt.Printf("relaxations: %d\n", st.LightRelaxed)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "basssp:", err)
	os.Exit(1)
}
