// Command bacc computes connected components of a METIS-format graph
// with a selectable kernel and prints per-pass statistics.
//
// Usage:
//
//	bacc -in graph.metis -algo sv-ba
//	bagen -kind ba -n 20000 | bacc -algo hybrid
//	bagen -kind rmat -scale 17 | bacc -algo par-hybrid -workers 8
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
	"sort"
	"syscall"

	"bagraph"
	"bagraph/internal/algoreq"
	"bagraph/internal/cc"
)

func main() {
	in := flag.String("in", "", "input METIS file (default: stdin)")
	algo := flag.String("algo", "sv-ba",
		"kernel: sv-bb | sv-ba | hybrid | unionfind | par-bb | par-ba | par-hybrid")
	top := flag.Int("top", 5, "print the N largest components")
	workers := flag.Int("workers", 0, "workers for par-* kernels (0 = GOMAXPROCS)")
	schedule := flag.String("schedule", "static", "chunk schedule for par-* kernels: static | steal")
	relabelOn := flag.Bool("relabel", false, "run on a degree-ordered copy (results stay in original ids)")
	flag.Parse()

	sched, err := bagraph.ParseSchedule(*schedule)
	if err != nil {
		fail(err)
	}

	// SIGINT/SIGTERM cancels the kernel at its next pass barrier.
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
	g, err := bagraph.ReadMETIS(r)
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph: %s\n", g)
	var tgt bagraph.Target = g
	if *relabelOn {
		rl, err := bagraph.RelabelDegree(g)
		if err != nil {
			fail(err)
		}
		tgt = rl
	}

	req, err := algoreq.CC(*algo)
	if err != nil {
		fail(err)
	}
	req.Workers = *workers
	req.Schedule = sched
	res, err := bagraph.Run(ctx, tgt, req)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if res != nil {
				fmt.Fprintf(os.Stderr, "bacc: interrupted after %d completed pass(es) (%v, %d label stores); labels are partial\n",
					res.Stats.Passes, res.Stats.Total(), res.Stats.LabelStores)
			} else {
				fmt.Fprintln(os.Stderr, "bacc: interrupted before the kernel started")
			}
			os.Exit(130)
		}
		fail(err)
	}
	labels, st := res.Labels, res.Stats

	if err := cc.Verify(g, labels); err != nil {
		fail(fmt.Errorf("result failed verification: %w", err))
	}

	sizes := cc.ComponentSizes(labels)
	fmt.Printf("components: %d\n", len(sizes))
	if st.Passes > 0 {
		fmt.Printf("passes: %d, total %v, label stores %d\n", st.Passes, st.Total(), st.LabelStores)
		if st.Chunks > 0 {
			fmt.Printf("schedule: %d chunks, %d stolen (%d steal passes)\n",
				st.Chunks, st.Steals, st.StealPasses)
		}
		if levels := st.TopDownLevels + st.BottomUpLevels; levels > 0 {
			fmt.Printf("seed: BFS labeled %d vertices in %d levels (%d bottom-up), passes 1-%d\n",
				st.Reached, levels, st.BottomUpLevels, levels)
		}
		for i := range st.PassDurations {
			fmt.Printf("  pass %2d: %10v  changed %d\n", i+1, st.PassDurations[i], st.PassChanges[i])
		}
	}

	type comp struct {
		label uint32
		size  int
	}
	var cs []comp
	for l, s := range sizes {
		cs = append(cs, comp{l, s})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].size != cs[j].size {
			return cs[i].size > cs[j].size
		}
		return cs[i].label < cs[j].label
	})
	if *top > len(cs) {
		*top = len(cs)
	}
	for _, c := range cs[:*top] {
		fmt.Printf("  component %d: %d vertices\n", c.label, c.size)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bacc:", err)
	os.Exit(1)
}
