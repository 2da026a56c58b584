package exp

// Extension experiments: the algorithm families the paper's §1 predicts
// the findings extend to. Three exhibits:
//
//   - Bellman-Ford (shortest-path family, weighted SV twin): simulated
//     branch/misprediction/time ratios on representative platforms — the
//     SV result transfers;
//   - Brandes betweenness centrality (BFS-family, heavier): native store
//     counters — the BFS store blow-up transfers (and doubles);
//   - APSP by repeated BFS: whole-sweep native timings of both kernels
//     plus the distance summary, the |V|-fold amplification of the BFS
//     trade-off.

import (
	"fmt"
	"io"
	"time"

	"bagraph/internal/apsp"
	"bagraph/internal/bc"
	"bagraph/internal/core"
	"bagraph/internal/corpus"
	"bagraph/internal/graph"
	"bagraph/internal/perfsim"
	"bagraph/internal/report"
	"bagraph/internal/simkern"
	"bagraph/internal/uarch"
	"bagraph/internal/xrand"
)

// weightedStandIn attaches deterministic symmetric weights in [1, 64] to
// a corpus graph.
func weightedStandIn(g *graph.Graph, seed uint64) (*graph.Weighted, error) {
	return graph.AttachWeights(g, xrand.SymmetricWeights(64, seed))
}

// ExtensionSSSP renders the Bellman-Ford extension table.
func ExtensionSSSP(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	ds, err := corpus.Subset(opt.Graphs)
	if err != nil {
		return err
	}
	report.Section(w, "Extension: branch-avoiding Bellman-Ford (weighted SV analogue, paper §1)")
	t := report.NewTable("simulated; speedup = branch-based time / branch-avoiding time",
		"Platform", "Graph", "passes", "branch ratio", "mispred ratio", "store ratio", "speedup")
	platforms := []string{"Haswell", "Bonnell"}
	for _, d := range ds {
		g := d.Generate(opt.Scale, opt.Seed)
		wg, err := weightedStandIn(g, opt.Seed)
		if err != nil {
			return err
		}
		for _, pname := range platforms {
			model, ok := uarch.ByName(pname)
			if !ok {
				return fmt.Errorf("exp: unknown platform %q", pname)
			}
			rBB := simkern.BellmanFordBranchBased(perfsim.NewDefault(model), wg, 0)
			rBA := simkern.BellmanFordBranchAvoiding(perfsim.NewDefault(model), wg, 0)
			bb, ba := rBB.PerPass.Total(), rBA.PerPass.Total()
			t.Add(pname, d.Name, fmt.Sprint(rBB.Passes),
				fmt.Sprintf("%.2f", float64(bb.Branches)/float64(ba.Branches)),
				fmt.Sprintf("%.2f", float64(bb.Mispredicts)/float64(ba.Mispredicts)),
				fmt.Sprintf("%.2f", float64(ba.Stores)/float64(bb.Stores)),
				report.Ratio(model.Seconds(bb)/model.Seconds(ba)))
		}
	}
	t.Render(w)
	return nil
}

// ExtensionBC renders the betweenness-centrality extension table. BC is
// O(|V|·|E|), so it runs on the two smallest corpus graphs regardless of
// the option's graph list.
func ExtensionBC(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	report.Section(w, "Extension: branch-avoiding Brandes betweenness centrality (paper §1)")
	t := report.NewTable("native kernels; the BFS store blow-up transfers to the forward phase",
		"Graph", "|V|", "|E|", "BB stores", "BA stores", "store ratio", "BB time", "BA time")
	for _, name := range []string{"cond-mat-2005", "coAuthorsDBLP"} {
		d, ok := corpus.ByName(name)
		if !ok {
			return fmt.Errorf("exp: missing corpus graph %q", name)
		}
		// Quarter scale: BC is quadratic-ish and this is a demonstration.
		g := d.Generate(opt.Scale/4, opt.Seed)

		start := time.Now()
		bbVals, bbSt := bc.BranchBased(g)
		bbTime := time.Since(start)

		start = time.Now()
		baVals, baSt := bc.BranchAvoiding(g)
		baTime := time.Since(start)

		for v := range bbVals {
			if bbVals[v] != baVals[v] {
				return fmt.Errorf("exp: BC variants disagree on %s at vertex %d", name, v)
			}
		}
		bbStores := bbSt.DistStores + bbSt.SigmaStores + bbSt.QueueStores
		baStores := baSt.DistStores + baSt.SigmaStores + baSt.QueueStores
		t.Add(d.Name, fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()),
			fmt.Sprint(bbStores), fmt.Sprint(baStores),
			fmt.Sprintf("%.1fx", float64(baStores)/float64(bbStores)),
			fmt.Sprint(bbTime.Round(time.Microsecond)),
			fmt.Sprint(baTime.Round(time.Microsecond)))
	}
	t.Render(w)
	return nil
}

// ExtensionAPSP renders the all-pairs extension table.
func ExtensionAPSP(w io.Writer, opt Options) error {
	opt = opt.WithDefaults()
	report.Section(w, "Extension: APSP by repeated BFS (paper §1's APSP family)")
	t := report.NewTable("native kernels; |V| BFS sweeps per cell",
		"Graph", "|V|", "diameter", "radius", "mean dist", "BB sweep", "BA sweep")
	for _, name := range []string{"cond-mat-2005", "auto"} {
		d, ok := corpus.ByName(name)
		if !ok {
			return fmt.Errorf("exp: missing corpus graph %q", name)
		}
		g := d.Generate(opt.Scale/4, opt.Seed)

		start := time.Now()
		rBB := apsp.Summary(g, core.BranchBased)
		bbTime := time.Since(start)

		start = time.Now()
		rBA := apsp.Summary(g, core.BranchAvoiding)
		baTime := time.Since(start)

		if rBB.Diameter != rBA.Diameter || rBB.ReachablePairs != rBA.ReachablePairs {
			return fmt.Errorf("exp: APSP variants disagree on %s", name)
		}
		t.Add(d.Name, fmt.Sprint(g.NumVertices()),
			fmt.Sprint(rBB.Diameter), fmt.Sprint(rBB.Radius),
			fmt.Sprintf("%.2f", rBB.MeanDistance),
			fmt.Sprint(bbTime.Round(time.Microsecond)),
			fmt.Sprint(baTime.Round(time.Microsecond)))
	}
	t.Render(w)
	return nil
}

// Extensions runs all three extension exhibits.
func Extensions(w io.Writer, opt Options) error {
	if err := ExtensionSSSP(w, opt); err != nil {
		return err
	}
	if err := ExtensionBC(w, opt); err != nil {
		return err
	}
	return ExtensionAPSP(w, opt)
}
