package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bagraph"
	"bagraph/internal/algoreq"
	"bagraph/internal/stats"
)

// The three serve workloads share one runner: set up the topology, let
// two closed-loop clients drive it through a discarded warm-up and a
// measured window, verify every answer.
//
// With tracing off the window runs on the stock stack and yields the
// end-to-end numbers. With tracing on the run is split: a stock pass,
// then the same stack rebuilt with a span at every seam, whose spans
// yield the per-layer numbers; the ratio of the two passes' throughput
// is the tracing overhead.

// buildOracles computes the reference answers of every input. The second
// graph of serve-rollout is asked about the first one's roots: a read
// does not know which epoch will answer it.
func (si *serveInputs) buildOracles(cfg runConfig) {
	oracles := []*oracle{buildOracle(si.ins[0], cfg.seed, nil, rootPoolSize, 0, false, cfg.procs)}
	si.roots = oracles[0].roots
	for _, in := range si.ins[1:] {
		oracles = append(oracles, buildOracle(in, cfg.seed, si.roots, 0, 0, false, cfg.procs))
	}
	si.oracleOf = oracleByEpoch(oracles)
}

// oracleByEpoch maps a response's epoch to the oracle of the graph that
// epoch published. Without replaces only epoch 1 exists; serve-rollout
// alternates its two graphs, starting on the first.
func oracleByEpoch(oracles []*oracle) func(uint64) *oracle {
	return func(epoch uint64) *oracle {
		if epoch == 0 || (len(oracles) == 1 && epoch != 1) {
			return nil
		}
		return oracles[(epoch-1)%uint64(len(oracles))]
	}
}

func runServe(cfg runConfig, env *environment) (*metricSet, *opCounter, error) {
	out := newMetricSet()
	var (
		setups []float64
		si     *serveInputs
		st     *stack
		err    error
	)
	closeStack := func() {
		if st != nil {
			st.close()
			st = nil
		}
	}
	defer closeStack()
	for i := 0; i < cfg.setupRuns(); i++ {
		closeStack()
		t0 := time.Now()
		if si, err = generateServeInputs(cfg); err != nil {
			return nil, nil, err
		}
		if st, err = buildStack(cfg, si, stackOptions{}); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))
	for _, in := range si.ins {
		env.addGraph(in)
	}
	out.set("gen."+si.graph+"_s", si.ins[0].genSeconds, 1)
	out.set("graph.attach_weights_ms", si.ins[0].weightsMs, 1)
	si.buildOracles(cfg)

	if !cfg.trace {
		p := runLoad(cfg, st.entry.url, si, nil, cfg.window()/10, cfg.window(), nil)
		ops := p.ops()
		p.window.report(out, ops)
		clientMetrics(out, p)
		return out, ops, nil
	}

	// Traced run: a stock pass, then the traced stack.
	share := cfg.window() * 4 / 10
	stock := runLoad(cfg, st.entry.url, si, nil, share/8, share, nil)
	ops := stock.ops()
	clientMetrics(out, stock) // the stock pass's per-kind medians, for the result file
	stockRate := ratio(float64(ops.attempted-ops.failed), stock.window.seconds())
	closeStack()

	t := newTracer()
	if st, err = buildStack(cfg, si, stackOptions{tracer: t}); err != nil {
		return nil, nil, err
	}
	var before counters
	traced := runLoad(cfg, st.entry.url, si, t, share/8, share, func() { before = scrape(st.entry.url) })
	after := scrape(st.entry.url)
	spans := t.snapshot()
	tops := traced.ops()
	ops.add(tops)
	traced.window.report(out, tops)
	out.set("trace.overhead_ratio", ratio(out.get("ops_per_s"), stockRate), tops.attempted)
	layerClientMetrics(out, traced)
	spanMetrics(out, cfg.workload, spans, traced)
	histogramGap(out, traced, before, after)
	if cfg.workload == wFleet {
		routerCounters(out, before, after, tops.attempted-tops.failed)
	}
	if err := writeJSONL(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"), spans); err != nil {
		return nil, nil, err
	}

	// Probes, after the windows so they cannot disturb them.
	if err := floorProbe(out, cfg, st.entry.url, si.graph); err != nil {
		return nil, nil, err
	}
	if err := batcherProbe(out, cfg, st, si); err != nil {
		return nil, nil, err
	}
	closeStack()
	if err := poolReplay(out, cfg, si.ins[0], si.roots); err != nil {
		return nil, nil, err
	}
	if cfg.workload == wRollout {
		if err := metisProbe(out, si.files[0]); err != nil {
			return nil, nil, err
		}
	}
	jsonProbes(out, si.ins[0].g.NumVertices())
	for _, kind := range []string{kindBFS, kindSSSP} {
		out.set("batcher."+kind+"_wait_ms", out.get("local."+kind+"_ms")-out.get("pool."+kind+"_ms"), 0)
	}
	return out, ops, nil
}

// clientMetrics sets the per-kind medians the clients observed.
func clientMetrics(out *metricSet, p *loadPhase) {
	for _, kind := range opKinds {
		if xs := p.latencies(kind); len(xs) > 0 {
			out.set(kind+"_p50_ms", median(xs), len(xs))
		}
	}
}

// layerClientMetrics sets the client.*, registry.cc_* and batcher.batch_mean
// numbers: the load generator's view of the traced pass.
func layerClientMetrics(out *metricSet, p *loadPhase) {
	for _, kind := range opKinds {
		xs := p.latencies(kind)
		if len(xs) == 0 {
			continue
		}
		// p95 is the highest percentile with at least ten samples beyond
		// it at these rates; it is reported with its count, not gated.
		out.set("client."+kind+"_p95_ms", percentile(xs, 0.95), len(xs))
		out.set("client."+kind+"_n", float64(len(xs)), 0)
	}
	var hits, ccs, batchSum, batched int
	var fills []float64
	sizes := make(map[string][]float64)
	for _, s := range p.samples {
		if s.err != nil {
			continue
		}
		sizes[s.kind] = append(sizes[s.kind], float64(s.bytes))
		switch s.kind {
		case kindCC:
			ccs++
			if s.cached {
				hits++
			} else {
				fills = append(fills, s.ms)
			}
		case kindBFS, kindSSSP:
			batchSum += s.batch
			batched++
		}
	}
	out.set("registry.cc_hit_ratio", ratio(float64(hits), float64(ccs)), ccs)
	if len(fills) > 0 {
		out.set("registry.cc_fill_ms", median(fills), len(fills))
	}
	out.set("batcher.batch_mean", ratio(float64(batchSum), float64(batched)), batched)
	for _, kind := range queryKinds {
		out.set("server."+kind+"_resp_bytes", median(sizes[kind]), len(sizes[kind]))
	}
}

// spanMetrics attributes the traced pass's time to layers. Only verified
// requests that started inside the measured window count.
func spanMetrics(out *metricSet, workload string, spans []span, p *loadPhase) {
	col := make(map[string][]float64)
	add := func(name string, v float64) { col[name] = append(col[name], v) }
	for _, tree := range groupByRequest(spans) {
		cl, ok := tree.only(spanClient)
		if !ok || cl.Start < p.windowStartNs {
			continue
		}
		kind := cl.Kind
		add("trace.unaccounted_ms", tree.selfMs(cl))
		if ad, ok := tree.only(spanAdmin); ok {
			add("registry.replace_ms", ad.ms())
		}
		// The daemon that holds the graph: the only one, or the shard
		// behind the one round trip (hedged and retried requests have
		// several and are left to router.*_per_op).
		server, ok := tree.only(spanServer)
		if !ok {
			continue
		}
		if local, ok := tree.only(spanLocal); ok {
			add("server."+kind+"_self_ms", tree.selfMs(server))
			add("local."+kind+"_ms", local.ms())
		}
		if workload != wFleet {
			continue
		}
		router, ok1 := tree.only(spanRouter)
		backend, ok2 := tree.only(spanRouterBE)
		trip, ok3 := tree.only(spanRoundTrip)
		if ok1 && ok2 && ok3 {
			add("router."+kind+"_hop_ms", router.ms()-server.ms())
			add("shardclient."+kind+"_decode_ms", backend.ms()-trip.ms())
			add("router."+kind+"_encode_ms", tree.selfMs(router))
		}
	}
	for name, xs := range col {
		out.set(name, median(xs), len(xs))
	}
}

// counters is one scrape of a daemon's /metrics: every series by its
// full name, labels included.
type counters map[string]float64

// family sums a metric family over its label sets.
func (c counters) family(name string) float64 {
	sum := 0.0
	for series, v := range c {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

func scrape(url string) counters {
	c := make(counters)
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return c
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if sp := strings.LastIndexByte(line, ' '); sp > 0 {
			if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
				c[line[:sp]] = v
			}
		}
	}
	return c
}

// histogramGap cross-checks the clients' mean latency against the
// daemon's own baserved_query_seconds histogram over the same window,
// kind by kind (the kinds' latencies differ tenfold, so a pooled mean
// would move with the mix), weighted by the clients' sample counts.
func histogramGap(out *metricSet, p *loadPhase, before, after counters) {
	var gapSum float64
	var n int
	for _, kind := range queryKinds {
		label := `{kind="` + kind + `"}`
		count := after["baserved_query_seconds_count"+label] - before["baserved_query_seconds_count"+label]
		sum := after["baserved_query_seconds_sum"+label] - before["baserved_query_seconds_sum"+label]
		xs := p.latencies(kind)
		if count == 0 || len(xs) == 0 {
			continue
		}
		gapSum += float64(len(xs)) * (stats.Mean(xs) - sum/count*1e3)
		n += len(xs)
	}
	if n > 0 {
		out.set("server.hist_mean_gap_ms", gapSum/float64(n), n)
	}
}

// routerCounters turns the router's own counters into per-op ratios.
func routerCounters(out *metricSet, before, after counters, ops int) {
	delta := func(name string) float64 { return after.family(name) - before.family(name) }
	hedges := delta("baserved_router_hedges_total")
	out.set("router.attempts_per_op", ratio(delta("baserved_router_shard_requests_total"), float64(ops)), ops)
	out.set("router.hedges_per_op", ratio(hedges, float64(ops)), ops)
	out.set("router.hedge_win_ratio", ratio(delta("baserved_router_hedge_wins_total"), hedges), int(hedges))
	out.set("router.retries_per_op", ratio(delta("baserved_router_retries_total"), float64(ops)), ops)
}

// poolReplay runs the serving-default algorithms on a WorkerPool of the
// daemon's size, over the same roots: the kernel's share of local.*_ms.
// What is left of local.*_ms is the batch window, the dispatch and the
// contention of two clients for two cores.
func poolReplay(out *metricSet, cfg runConfig, in *input, roots []uint32) error {
	pool := bagraph.NewWorkerPool(cfg.procs)
	defer pool.Close()
	ctx := context.Background()
	var ws bagraph.Workspace
	times := make(map[string][]float64)
	for i, root := range roots {
		reqs := map[string]bagraph.Request{}
		var err error
		if reqs[kindBFS], err = algoreq.BFS("par-do", root); err != nil {
			return err
		}
		if reqs[kindSSSP], err = algoreq.SSSP("par-hybrid", root, in.delta); err != nil {
			return err
		}
		if i < 8 {
			if reqs[kindCC], err = algoreq.CC("par-hybrid"); err != nil {
				return err
			}
		}
		for _, kind := range queryKinds {
			req, ok := reqs[kind]
			if !ok {
				continue
			}
			req.Workspace = &ws
			var target bagraph.Target = in.g
			if kind == kindSSSP {
				target = in.w
			}
			t0 := time.Now()
			if _, err := pool.Run(ctx, target, req); err != nil {
				return err
			}
			times[kind] = append(times[kind], ms(time.Since(t0)))
		}
	}
	for kind, xs := range times {
		out.set("pool."+kind+"_ms", median(xs), len(xs))
	}
	return nil
}

// floorProbe times the zero-payload request: a cached CC without labels,
// sequentially on one connection.
func floorProbe(out *metricSet, cfg runConfig, url, graph string) error {
	n := 300
	if cfg.quick {
		n = 30
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	body := fmt.Sprintf(`{"graph":%q,"labels":false}`, graph)
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := hc.Post(url+"/query/cc", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // a short read shows as a non-200 or a failed next request
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("floor probe: %s", resp.Status)
		}
		xs = append(xs, ms(time.Since(t0))*1e3)
	}
	out.set("server.floor_us", median(xs), n)
	return nil
}
