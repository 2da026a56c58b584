package tune_test

import (
	"context"
	"math"
	"testing"

	"bagraph"
	"bagraph/internal/algoreq"
	"bagraph/internal/graph"
	"bagraph/internal/sssp"
	"bagraph/internal/testutil"
	"bagraph/internal/tune"
)

func TestMispredictRateShape(t *testing.T) {
	if r := tune.MispredictRate(0); r != 0 {
		t.Fatalf("rate(0) = %v, want 0", r)
	}
	if r := tune.MispredictRate(1); r != 0 {
		t.Fatalf("rate(1) = %v, want 0", r)
	}
	lo, mid := tune.MispredictRate(0.02), tune.MispredictRate(0.5)
	if lo >= 0.1 {
		t.Fatalf("rate(0.02) = %v, want a near-always-predicted branch", lo)
	}
	if mid < 0.25 {
		t.Fatalf("rate(0.5) = %v, want an unpredictable branch", mid)
	}
	if lo >= mid {
		t.Fatalf("rate not increasing toward 0.5: rate(0.02)=%v rate(0.5)=%v", lo, mid)
	}
	// Determinism: the simulation must not depend on call order.
	if a, b := tune.MispredictRate(0.3), tune.MispredictRate(0.3); a != b {
		t.Fatalf("rate(0.3) nondeterministic: %v vs %v", a, b)
	}
}

func TestCutoverFraction(t *testing.T) {
	f := tune.CutoverFraction()
	if f <= 0 || f > 0.5 {
		t.Fatalf("cutover = %v, want in (0, 0.5]", f)
	}
	if c := tune.New().Cutover(); c != f {
		t.Fatalf("controller cutover %v != CutoverFraction %v", c, f)
	}
}

// workload builds a Workload from a graph the way the serving layer
// does.
func workload(g *graph.Graph, kind string, workers int, delta uint64) tune.Workload {
	return tune.Workload{
		Graph:        g.Name(),
		Epoch:        1,
		Kind:         kind,
		Vertices:     g.NumVertices(),
		Arcs:         g.NumArcs(),
		MaxDegree:    g.Degrees().Max,
		Workers:      workers,
		DefaultDelta: delta,
	}
}

func TestInitialScheduleFromSkew(t *testing.T) {
	c := tune.New()
	// Hub graph: vertex 0 owns well over half the arcs — any static
	// partition stalls on its block.
	hub := testutil.Hub(192, 600)
	if d := c.Decide(workload(hub, tune.KindCC, 4, 0)); d.Schedule != bagraph.ScheduleStealing {
		t.Fatalf("hub graph: schedule = %v, want stealing", d.Schedule)
	}
	// A flat path has no skew to steal around.
	path := pathGraph(t, 256)
	if d := c.Decide(workload(path, tune.KindCC, 4, 0)); d.Schedule != bagraph.ScheduleStatic {
		t.Fatalf("path graph: schedule = %v, want static", d.Schedule)
	}
	// One worker never steals.
	if d := c.Decide(workload(hub, tune.KindBFS, 1, 0)); d.Schedule != bagraph.ScheduleStatic {
		t.Fatalf("hub graph, 1 worker: schedule = %v, want static", d.Schedule)
	}
}

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: uint32(i), V: uint32(i + 1)})
	}
	return graph.MustBuild(n, edges, graph.Options{Name: "tunepath"})
}

func TestScheduleFallbackOnIdleStealer(t *testing.T) {
	c := tune.New()
	hub := testutil.Hub(192, 600)
	w := workload(hub, tune.KindCC, 4, 0)
	if d := c.Decide(w); d.Schedule != bagraph.ScheduleStealing {
		t.Fatalf("initial schedule = %v, want stealing", d.Schedule)
	}
	// Feed runs whose steal counters stayed flat: chunks were made but
	// nobody needed to take one.
	for i := 0; i < tune.SettleRuns; i++ {
		c.Observe(w, bagraph.Stats{Passes: 4, Chunks: 64, Steals: 0})
	}
	if d := c.Decide(w); d.Schedule != bagraph.ScheduleStatic {
		t.Fatalf("after %d stealless runs: schedule = %v, want static", tune.SettleRuns, d.Schedule)
	}
	// Hot stealing on a different cell stays stealing.
	w2 := workload(hub, tune.KindSSSP, 4, 16)
	for i := 0; i < tune.SettleRuns; i++ {
		c.Observe(w2, bagraph.Stats{Passes: 4, Chunks: 64, Steals: 40})
	}
	if d := c.Decide(w2); d.Schedule != bagraph.ScheduleStealing {
		t.Fatalf("hot stealer fell back: schedule = %v", d.Schedule)
	}
}

func TestAlgoCutoverFromChangeFractions(t *testing.T) {
	g := pathGraph(t, 1000)
	n := g.NumVertices()
	c := tune.New()
	cut := c.Cutover()
	quiet := int(float64(n)*cut) - 1 // below the cutover
	churn := int(float64(n)*cut) + 1 // at/above the cutover

	// All passes quiet: branch-based is free of mispredictions.
	wBB := workload(g, tune.KindCC, 2, 0)
	for i := 0; i < tune.SettleRuns; i++ {
		c.Observe(wBB, bagraph.Stats{Passes: 3, PassChanges: []int{quiet, quiet, quiet}})
	}
	if d := c.Decide(wBB); d.Algo != "par-bb" {
		t.Fatalf("quiet cell: algo = %q, want par-bb", d.Algo)
	}

	// All passes churning: avoid the branches throughout.
	wBA := workload(g, tune.KindSSSP, 2, 16)
	for i := 0; i < tune.SettleRuns; i++ {
		c.Observe(wBA, bagraph.Stats{Passes: 3, PassChanges: []int{churn, churn, churn}})
	}
	if d := c.Decide(wBA); d.Algo != "par-ba" {
		t.Fatalf("churning cell: algo = %q, want par-ba", d.Algo)
	}

	// Churn then convergence: the hybrid's home ground.
	wHy := workload(g, tune.KindCC, 4, 0)
	for i := 0; i < tune.SettleRuns; i++ {
		c.Observe(wHy, bagraph.Stats{Passes: 3, PassChanges: []int{churn, churn, quiet}})
	}
	if d := c.Decide(wHy); d.Algo != "par-hybrid" {
		t.Fatalf("mixed cell: algo = %q, want par-hybrid", d.Algo)
	}

	// Before SettleRuns the default holds.
	wNew := workload(g, tune.KindCC, 8, 0)
	c.Observe(wNew, bagraph.Stats{Passes: 1, PassChanges: []int{quiet}})
	if d := c.Decide(wNew); d.Algo != "par-hybrid" {
		t.Fatalf("unsettled cell: algo = %q, want the hybrid default", d.Algo)
	}
	// BFS cells never leave the direction-optimizing kernel.
	wBFS := workload(g, tune.KindBFS, 2, 0)
	for i := 0; i < 2*tune.SettleRuns; i++ {
		c.Observe(wBFS, bagraph.Stats{Passes: 5})
	}
	if d := c.Decide(wBFS); d.Algo != "par-do" {
		t.Fatalf("bfs cell: algo = %q, want par-do", d.Algo)
	}
}

func TestDeltaAdaptation(t *testing.T) {
	g := pathGraph(t, 1000)
	c := tune.New()
	w := workload(g, tune.KindSSSP, 2, 32)

	// Too many buckets: the width doubles, once per settle period.
	for i := 0; i < tune.SettleRuns; i++ {
		c.Observe(w, bagraph.Stats{Passes: 2, Buckets: 1000, DistStores: 100, CandStores: 100})
	}
	if d := c.Decide(w); d.Delta != 64 {
		t.Fatalf("bucket-heavy cell: delta = %d, want 64", d.Delta)
	}
	for i := 0; i < tune.SettleRuns; i++ {
		c.Observe(w, bagraph.Stats{Passes: 2, Buckets: 1000, DistStores: 100, CandStores: 100})
	}
	if d := c.Decide(w); d.Delta != 128 {
		t.Fatalf("second settle period: delta = %d, want 128", d.Delta)
	}

	// Few buckets + heavy blow-up: the width halves.
	w2 := tune.Workload{Graph: "other", Epoch: 1, Kind: tune.KindSSSP,
		Vertices: 1000, Arcs: 2000, MaxDegree: 2, Workers: 2, DefaultDelta: 32}
	for i := 0; i < 2*tune.SettleRuns; i++ {
		c.Observe(w2, bagraph.Stats{Passes: 2, Buckets: 2, DistStores: 100, CandStores: 1000})
	}
	d := c.Decide(w2)
	if d.Delta >= 32 {
		t.Fatalf("blown-up cell: delta = %d, want narrower than 32", d.Delta)
	}

	// The shift clamps: pile on bucket-heavy observations and the
	// delta must stop at 2^deltaShiftMax over the default.
	for i := 0; i < 20*tune.SettleRuns; i++ {
		c.Observe(w, bagraph.Stats{Passes: 2, Buckets: 100000, DistStores: 1, CandStores: 1})
	}
	if d := c.Decide(w); d.Delta > 32<<8 {
		t.Fatalf("delta unclamped: %d", d.Delta)
	}
	// A zero default stays zero (kernel default), whatever the shift.
	w3 := workload(g, tune.KindMS, 2, 0)
	if d := c.Decide(w3); d.Delta != 0 {
		t.Fatalf("zero default delta scaled to %d", d.Delta)
	}
}

func TestRunsCounter(t *testing.T) {
	c := tune.New()
	g := pathGraph(t, 10)
	w := workload(g, tune.KindCC, 2, 0)
	if c.Runs(w) != 0 {
		t.Fatal("unseen cell reports runs")
	}
	c.Observe(w, bagraph.Stats{Passes: 1})
	c.Observe(w, bagraph.Stats{Passes: 1})
	if got := c.Runs(w); got != 2 {
		t.Fatalf("runs = %d, want 2", got)
	}
}

// decidedRequest materializes a Decision into the facade Request the
// serving layer would dispatch, through the same algoreq translation
// table.
func decidedRequest(t *testing.T, kind string, d tune.Decision, root uint32) bagraph.Request {
	t.Helper()
	var req bagraph.Request
	var err error
	switch kind {
	case tune.KindCC:
		req, err = algoreq.CC(d.Algo)
	case tune.KindBFS:
		req, err = algoreq.BFS(d.Algo, root)
	case tune.KindSSSP:
		req, err = algoreq.SSSP(d.Algo, root, d.Delta)
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatalf("decision %+v is not a dispatchable algorithm: %v", d, err)
	}
	req.Schedule = d.Schedule
	return req
}

// TestAutotuneByteIdentity is the acceptance property: across the
// corpus and the standard worker sweep, a controller-driven request —
// after the controller has been trained on its own observations —
// returns arrays byte-identical to the static default choice, for
// every kernel family. The tuner may only ever move latency.
func TestAutotuneByteIdentity(t *testing.T) {
	seeds := []uint64{1}
	testutil.ForEachGraph(t, seeds, func(t *testing.T, g *graph.Graph) {
		n := g.NumVertices()
		if n == 0 {
			return
		}
		oracleCC, err := bagraph.Run(context.Background(), g, bagraph.Request{
			Kind: bagraph.KindCC, CC: bagraph.CCHybrid, Parallel: true, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracleBFS, err := bagraph.Run(context.Background(), g, bagraph.Request{
			Kind: bagraph.KindBFS, Parallel: true, Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range testutil.WorkerCounts {
			c := tune.New()
			wCC := workload(g, tune.KindCC, workers, 0)
			wBFS := workload(g, tune.KindBFS, workers, 0)
			// Train across settle boundaries so every knob the cell will
			// ever flip gets exercised, checking identity at each step.
			for round := 0; round < tune.SettleRuns+2; round++ {
				dCC := c.Decide(wCC)
				reqCC := decidedRequest(t, tune.KindCC, dCC, 0)
				reqCC.Workers = workers
				resCC, err := bagraph.Run(context.Background(), g, reqCC)
				if err != nil {
					t.Fatalf("workers=%d round=%d cc %+v: %v", workers, round, dCC, err)
				}
				testutil.MustEqualLabels(t, "tuned cc", resCC.Labels, oracleCC.Labels)
				c.Observe(wCC, resCC.Stats)

				dBFS := c.Decide(wBFS)
				reqBFS := decidedRequest(t, tune.KindBFS, dBFS, 0)
				reqBFS.Workers = workers
				resBFS, err := bagraph.Run(context.Background(), g, reqBFS)
				if err != nil {
					t.Fatalf("workers=%d round=%d bfs %+v: %v", workers, round, dBFS, err)
				}
				testutil.MustEqualDists(t, "tuned bfs", resBFS.Hops, oracleBFS.Hops)
				c.Observe(wBFS, resBFS.Stats)
			}
		}
	})
	testutil.ForEachWeighted(t, seeds, func(t *testing.T, g *graph.Weighted) {
		if g.NumVertices() == 0 {
			return
		}
		delta := sssp.DefaultDelta(g)
		oracle, err := bagraph.Run(context.Background(), g, bagraph.Request{
			Kind: bagraph.KindSSSP, SSSP: bagraph.SSSPHybrid, Parallel: true, Workers: 2, Delta: delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range testutil.WorkerCounts {
			c := tune.New()
			w := tune.Workload{
				Graph: g.Name(), Epoch: 1, Kind: tune.KindSSSP,
				Vertices: g.NumVertices(), Arcs: g.NumArcs(),
				MaxDegree: g.Degrees().Max, Workers: workers, DefaultDelta: delta,
			}
			for round := 0; round < tune.SettleRuns+2; round++ {
				d := c.Decide(w)
				req := decidedRequest(t, tune.KindSSSP, d, 0)
				req.Workers = workers
				res, err := bagraph.Run(context.Background(), g, req)
				if err != nil {
					t.Fatalf("workers=%d round=%d sssp %+v: %v", workers, round, d, err)
				}
				testutil.MustEqualDists(t, "tuned sssp", res.Dists, oracle.Dists)
				c.Observe(w, res.Stats)
			}
		}
	})
}

// TestDecisionsAlwaysDispatchable fuzzes the decision surface lightly:
// whatever counters a cell absorbs, its Decision must always name a
// kernel algoreq can translate and carry a representable delta.
func TestDecisionsAlwaysDispatchable(t *testing.T) {
	c := tune.New()
	g := pathGraph(t, 64)
	for kindIdx, kind := range []string{tune.KindCC, tune.KindBFS, tune.KindSSSP} {
		w := workload(g, kind, 4, 16)
		for i := 0; i < 4*tune.SettleRuns; i++ {
			st := bagraph.Stats{
				Passes:      1 + i%5,
				PassChanges: []int{i % 70, (i * 13) % 70},
				Buckets:     (i * 7) % 3000,
				DistStores:  uint64(1 + i%100),
				CandStores:  uint64((i * 31) % 10000),
				Chunks:      i % 100,
				Steals:      uint64((i * kindIdx) % 50),
			}
			c.Observe(w, st)
			d := c.Decide(w)
			decidedRequest(t, kind, d, 0) // fatals on an untranslatable decision
			if d.Delta != 0 && (d.Delta > math.MaxUint64>>1 || d.Delta < 1) {
				t.Fatalf("delta out of range: %d", d.Delta)
			}
		}
	}
}
