package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"bagraph"
	"bagraph/internal/algoreq"
	"bagraph/internal/bfs"
	"bagraph/internal/cc"
)

// The kernels workload is the paper's experiment: one caller, a resident
// WorkerPool and a warm Workspace, cycling through the same cells in the
// same order until the window closes. Each cell is timed at the
// WorkerPool.Run boundary and its answer compared with the oracle's
// arrays after the clock stops.

const kernelWarmupCycles = 2

// kernelSetup is what set-up leaves behind for the kernels workload.
type kernelSetup struct {
	inputs map[string]*input
	pool   *bagraph.WorkerPool
}

func (s *kernelSetup) close() { s.pool.Close() }

func setupKernels(cfg runConfig) (*kernelSetup, error) {
	s := &kernelSetup{inputs: make(map[string]*input)}
	for _, spec := range []graphSpec{specSocial, specMesh} {
		in, err := generate(spec, cfg.seed, cfg.quick)
		if err != nil {
			return nil, err
		}
		s.inputs[spec.name] = in
	}
	s.pool = bagraph.NewWorkerPool(cfg.procs)
	// The first query a library caller can make: one engine run.
	if _, err := s.pool.Run(context.Background(), s.inputs["social"].g, bagraph.Request{Kind: bagraph.KindBFS, Parallel: true}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// cellRequest builds the Run request of a cell through the same
// translation table the CLIs and the daemon use.
func cellRequest(c kernelCell, in *input, root uint32, batch []uint32) (bagraph.Request, error) {
	algo := c.name[len(c.family)+1:]
	switch {
	case c.name == batchCell.name:
		return bagraph.Request{Kind: bagraph.KindBFSBatch, Roots: batch}, nil
	case c.family == "cc":
		return algoreq.CC(algo)
	case c.family == "bfs":
		return algoreq.BFS(algo, root)
	default:
		return algoreq.SSSP(algo, root, in.delta)
	}
}

// cellRun is one timed execution of a cell.
type cellRun struct {
	ms    float64
	stats bagraph.Stats
}

type kernelRunner struct {
	setup   *kernelSetup
	oracles map[string]*oracle
	ws      bagraph.Workspace
	runs    map[string][]cellRun // by "<cell>.<graph>"
	ops     *opCounter
}

// runCell times one cell and verifies it. Results alias the workspace,
// so verification happens before the next Run.
func (k *kernelRunner) runCell(c kernelCell, graph string, cycle int, record bool) error {
	in, o := k.setup.inputs[graph], k.oracles[graph]
	root := o.roots[cycle%min(kernelRoots, len(o.roots))]
	req, err := cellRequest(c, in, root, o.roots)
	if err != nil {
		return err
	}
	req.Workspace = &k.ws
	var target bagraph.Target = in.g
	if c.family == "sssp" {
		target = in.w
	}
	t0 := time.Now()
	res, err := k.setup.pool.Run(context.Background(), target, req)
	elapsed := time.Since(t0)
	if !record {
		return err
	}
	if err == nil && !verifyCell(c, o, root, res) {
		err = fmt.Errorf("%s on %s root %d: wrong answer", c.name, graph, root)
	}
	k.ops.count(err)
	if err == nil {
		key := c.name + "." + graph
		k.runs[key] = append(k.runs[key], cellRun{ms: ms(elapsed), stats: res.Stats})
	}
	return nil
}

func verifyCell(c kernelCell, o *oracle, root uint32, res *bagraph.Result) bool {
	ro := o.byRoot[root]
	switch {
	case c.name == batchCell.name:
		if len(res.HopsBatch) != len(o.roots) {
			return false
		}
		for i, r := range o.roots {
			if digest32(res.HopsBatch[i]) != o.byRoot[r].hopsDigest {
				return false
			}
		}
		return true
	case c.family == "cc":
		return slices.Equal(res.Labels, o.labels)
	case c.family == "bfs":
		return slices.Equal(res.Hops, ro.hops)
	default:
		return slices.Equal(res.Dists, ro.dists)
	}
}

func (k *kernelRunner) cycle(i int, record bool) error {
	for _, g := range kernelGraphs {
		for _, c := range kernelCells {
			if err := k.runCell(c, g, i, record); err != nil {
				return err
			}
		}
	}
	return k.runCell(batchCell, "social", i, record)
}

// runKernels measures the kernels workload; with probes set it also runs
// the after-window probes that fill the per-layer metrics.
func runKernels(cfg runConfig, probes bool, env *environment) (*metricSet, *opCounter, error) {
	out := newMetricSet()
	var setups []float64
	var setup *kernelSetup
	for i := 0; i < cfg.setupRuns(); i++ {
		if setup != nil {
			setup.close()
		}
		t0 := time.Now()
		s, err := setupKernels(cfg)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setup = s
	}
	defer setup.close()
	out.set("setup_s", median(setups), len(setups))
	social, mesh := setup.inputs["social"], setup.inputs["mesh"]
	env.addGraph(social)
	env.addGraph(mesh)
	out.set("gen.social_s", social.genSeconds, 1)
	out.set("gen.mesh_s", mesh.genSeconds, 1)
	out.set("graph.attach_weights_ms", social.weightsMs, 1)

	k := &kernelRunner{
		setup: setup, runs: make(map[string][]cellRun), ops: &opCounter{},
		oracles: map[string]*oracle{
			"social": buildOracle(social, cfg.seed, nil, kernelRoots, batchRoots-kernelRoots, true, cfg.procs),
			"mesh":   buildOracle(mesh, cfg.seed, nil, kernelRoots, 0, true, cfg.procs),
		},
	}
	for i := 0; i < kernelWarmupCycles; i++ {
		if err := k.cycle(i, false); err != nil {
			return nil, nil, err
		}
	}
	w := startWindow()
	for i := 0; i < 3 || w.elapsed() < cfg.window(); i++ {
		if err := k.cycle(i, true); err != nil {
			return nil, nil, err
		}
	}
	w.stop()
	w.report(out, k.ops)
	k.cellMetrics(out)
	if probes {
		if err := kernelProbes(cfg, setup, out); err != nil {
			return nil, nil, err
		}
		jsonProbes(out, social.g.NumVertices())
	}
	return out, k.ops, nil
}

// cellMetrics turns the recorded runs into the per-cell, per-class and
// per-kind numbers.
func (k *kernelRunner) cellMetrics(out *metricSet) {
	med := make(map[string]float64)
	for key, runs := range k.runs {
		times := make([]float64, len(runs))
		for i, r := range runs {
			times[i] = r.ms
		}
		med[key] = median(times)
		out.set(key+".ms", med[key], len(runs))
	}
	// Counters are exact and the same on every run of a cell with the
	// same root; report the last run's.
	last := func(key string) bagraph.Stats {
		runs := k.runs[key]
		if len(runs) == 0 {
			return bagraph.Stats{}
		}
		return runs[len(runs)-1].stats
	}
	byClass := make(map[string][]float64)
	for _, g := range kernelGraphs {
		arcs := float64(k.setup.inputs[g].g.NumArcs())
		for _, c := range kernelCells {
			key := c.name + "." + g
			byClass[c.class] = append(byClass[c.class], med[key])
			st := last(key)
			if c.family != "bfs" {
				out.set(key+".passes", float64(st.Passes), 0)
			}
			switch c.name {
			case "cc.sv-bb", "cc.sv-ba":
				out.set(key+".ns_per_arc_pass", ratio(med[key]*1e6, arcs*float64(st.Passes)), 0)
				out.set(key+".label_stores", float64(st.LabelStores), 0)
			case "bfs.bb", "bfs.ba":
				out.set(key+".queue_stores", float64(st.QueueStores), 0)
			}
		}
		out.set("ba_over_bb.cc."+g, ratio(med["cc.sv-ba."+g], med["cc.sv-bb."+g]), 0)
		out.set("ba_over_bb.bfs."+g, ratio(med["bfs.ba."+g], med["bfs.bb."+g]), 0)
		out.set("ba_over_bb.sssp."+g, ratio(med["sssp.par-ba."+g], med["sssp.par-bb."+g]), 0)
		out.set("par.speedup.cc."+g, ratio(med["cc.hybrid."+g], med["cc.par-hybrid."+g]), 0)
		out.set("par.speedup.bfs."+g, ratio(med["bfs.dir-opt."+g], med["bfs.par-do."+g]), 0)
	}
	byClass[batchCell.class] = append(byClass[batchCell.class], med[batchCell.name+".social"])
	for _, class := range []string{"bb", "ba", "hybrid", "engine"} {
		out.set(class+"_ms", geomean(byClass[class]), len(byClass[class]))
	}
	// The caller-observed latency per kind at this workload's entry
	// point: the serving defaults on social, the same queries the serve
	// workloads send through one and two more layers.
	out.set("cc_p50_ms", med["cc.par-hybrid.social"], len(k.runs["cc.par-hybrid.social"]))
	out.set("bfs_p50_ms", med["bfs.par-do.social"], len(k.runs["bfs.par-do.social"]))
	out.set("sssp_p50_ms", med["sssp.par-hybrid.social"], len(k.runs["sssp.par-hybrid.social"]))
}

// kernelProbes fills run.overhead_us.*, relabel.* and gen.small_s. They
// run after the measured cycles so they cannot disturb them.
func kernelProbes(cfg runConfig, setup *kernelSetup, out *metricSet) error {
	ctx := context.Background()
	small, err := generate(specSmall, cfg.seed, cfg.quick)
	if err != nil {
		return err
	}
	out.set("gen.small_s", small.genSeconds, 1)

	// Run minus the direct internal call, interleaved so drift cancels.
	reps := 200
	if cfg.quick {
		reps = 20
	}
	var viaRun, direct [2][]float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := setup.pool.Run(ctx, small.g, bagraph.Request{Kind: bagraph.KindCC, CC: bagraph.CCBranchBased}); err != nil {
			return err
		}
		t1 := time.Now()
		cc.SVBranchBased(small.g)
		t2 := time.Now()
		if _, err := setup.pool.Run(ctx, small.g, bagraph.Request{Kind: bagraph.KindBFS, BFS: bagraph.BFSBranchBased}); err != nil {
			return err
		}
		t3 := time.Now()
		bfs.TopDownBranchBased(small.g, 0)
		t4 := time.Now()
		viaRun[0] = append(viaRun[0], ms(t1.Sub(t0)))
		direct[0] = append(direct[0], ms(t2.Sub(t1)))
		viaRun[1] = append(viaRun[1], ms(t3.Sub(t2)))
		direct[1] = append(direct[1], ms(t4.Sub(t3)))
	}
	out.set("run.overhead_us.cc", (median(viaRun[0])-median(direct[0]))*1e3, reps)
	out.set("run.overhead_us.bfs", (median(viaRun[1])-median(direct[1]))*1e3, reps)

	// Request.Relabel on / off for the serving-default CC, each with its
	// own warm workspace so the permuted view is built once.
	relabelReps := 7
	if cfg.quick {
		relabelReps = 3
	}
	for _, g := range kernelGraphs {
		in := setup.inputs[g]
		t0 := time.Now()
		if _, err := bagraph.RelabelDegree(in.g); err != nil {
			return err
		}
		out.set("relabel.build_ms."+g, ms(time.Since(t0)), 1)
		var on, off []float64
		var wsOn, wsOff bagraph.Workspace
		for i := 0; i < relabelReps+1; i++ {
			for _, relabel := range []bool{true, false} {
				req := bagraph.Request{Kind: bagraph.KindCC, CC: bagraph.CCHybrid, Parallel: true, Relabel: relabel, Workspace: &wsOff}
				if relabel {
					req.Workspace = &wsOn
				}
				t0 := time.Now()
				if _, err := setup.pool.Run(ctx, in.g, req); err != nil {
					return err
				}
				if i == 0 {
					continue // builds the view and sizes the buffers
				}
				if relabel {
					on = append(on, ms(time.Since(t0)))
				} else {
					off = append(off, ms(time.Since(t0)))
				}
			}
		}
		out.set("relabel.cc_ratio."+g, ratio(median(on), median(off)), relabelReps)
	}
	return nil
}
