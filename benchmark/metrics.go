package main

import (
	"fmt"
	"slices"
	"sort"
)

// The metric catalogue: every name the benchmark prints, with its unit,
// direction, regression bound (end-to-end metrics only), the workloads
// it is measured on, the layer it belongs to and the end-to-end metric
// it is expected to move. BENCHMARK.json and the README table are this
// catalogue written out; a test keeps the former in step.

const (
	wKernels = "kernels"
	wDirect  = "serve-direct"
	wFleet   = "serve-fleet"
	wRollout = "serve-rollout"
)

var workloadNames = []string{wKernels, wDirect, wFleet, wRollout}

var workloadWhy = map[string]string{
	wKernels: "Library only: the kernel layer does all the work and HTTP/JSON/router none, so a kernel change shows undiluted; *-bb cells are the plain single-threaded baseline.",
	wDirect:  "One daemon on the 299k-vertex graph: kernel and JSON encode share a BFS answer, CC is a cache hit that is all encode; a handler or encoder change shows here, a router change must not.",
	wFleet:   "Same clients through the router over two shards: ShardClient decode and router re-encode are most of the latency, the kernel under a fifth; router work shows here and only here.",
	wRollout: "One daemon on the 40k-vertex graph with a client replacing it every 16 ops: epoch bumps, cold CC fills and METIS parse beside reads, so work moved into publish shows its cost.",
}

var (
	allWorkloads   = workloadNames
	serveWorkloads = []string{wDirect, wFleet, wRollout}
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def describes one metric.
type def struct {
	Name      string
	Unit      string
	Better    string   // "lower" or "higher"
	Bound     float64  // end-to-end only: share of the baseline median it may worsen by
	Workloads []string // where it is measured
	Layer     string   // per-layer only: the module it observes
	Moves     string   // per-layer only: the end-to-end metric it should move, and where
}

func (d def) on(workload string) bool { return slices.Contains(d.Workloads, workload) }

// endToEnd is the gated set. fail_ratio is gated on any increase: its
// baseline is 0, so it has no relative bound.
//
// The bounds are set from measurement, not from the sizing pass's hopes:
// over four rounds of ten seeds on the shared 2-vCPU box the
// interquartile spread of single 20 s runs reached 11 % on ops_per_s and
// sssp_p50_ms, 7 % on cc_p50_ms and bfs_p50_ms, 6 % on the class
// geomeans, 4 % on alloc_mb_per_op and replace_p50_ms and 9 % on setup_s,
// and the box's medians drifted by 15 % over four hours. A bound has to
// sit two to three spreads out or it fails at random, hence 20-25 % where
// the issue hoped for 10 %.
var endToEnd = []def{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: allWorkloads},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Workloads: allWorkloads},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Workloads: allWorkloads},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10, Workloads: allWorkloads},
	{Name: "bb_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{wKernels}},
	{Name: "ba_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{wKernels}},
	{Name: "hybrid_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{wKernels}},
	{Name: "engine_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{wKernels}},
	{Name: "cc_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: allWorkloads},
	{Name: "bfs_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20, Workloads: allWorkloads},
	{Name: "sssp_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: allWorkloads},
	{Name: "replace_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: []string{wRollout}},
}

// driverEndToEnd is the part of endToEnd the driver contract can carry:
// it wants every end-to-end metric on every workload and never zero, so
// metrics measured on one workload only, and fail_ratio (0 on a healthy
// run, carried by the result line's failed/attempted instead), are
// listed for the driver as per-layer metrics and gated by `compare`.
func driverEndToEnd() (e2e, demoted []def) {
	for _, d := range endToEnd {
		switch {
		case d.Name == "fail_ratio":
		case len(d.Workloads) == len(allWorkloads):
			e2e = append(e2e, d)
		default:
			demoted = append(demoted, d)
		}
	}
	return e2e, demoted
}

// kernelCell is one (algorithm, class) column of the kernels workload.
type kernelCell struct {
	name   string // cc.sv-bb, bfs.par-do, ...
	family string // cc, bfs, sssp
	class  string // bb, ba, hybrid, engine
}

var kernelCells = []kernelCell{
	{"cc.sv-bb", "cc", "bb"},
	{"cc.sv-ba", "cc", "ba"},
	{"cc.hybrid", "cc", "hybrid"},
	{"cc.par-hybrid", "cc", "engine"},
	{"bfs.bb", "bfs", "bb"},
	{"bfs.ba", "bfs", "ba"},
	{"bfs.dir-opt", "bfs", "hybrid"},
	{"bfs.par-do", "bfs", "engine"},
	{"sssp.par-bb", "sssp", "bb"},
	{"sssp.par-ba", "sssp", "ba"},
	{"sssp.par-hybrid", "sssp", "engine"},
}

// batchCell runs on social only.
var batchCell = kernelCell{"bfs.ms64", "bfs", "engine"}

var kernelGraphs = []string{"social", "mesh"}

func perLayer() []def {
	var ds []def
	add := func(layer, moves string, workloads []string, unit, better string, names ...string) {
		for _, n := range names {
			ds = append(ds, def{Name: n, Unit: unit, Better: better, Workloads: workloads, Layer: layer, Moves: moves})
		}
	}
	k := []string{wKernels}

	// Kernel cells, timed at the WorkerPool.Run boundary.
	for _, g := range kernelGraphs {
		for _, c := range kernelCells {
			moves := c.class + "_ms on kernels"
			if c.class == "engine" && g == "social" && c.family != "cc" {
				moves += "; about half of " + c.family + "_p50_ms on serve-direct, barely serve-fleet"
			}
			add(c.family, moves, k, "ms", "lower", c.name+"."+g+".ms")
		}
	}
	add("bfs", "engine_ms on kernels", k, "ms", "lower", batchCell.name+".social.ms")
	for _, g := range kernelGraphs {
		for _, c := range kernelCells {
			if c.family != "bfs" {
				add(c.family, "explains "+c.name+"."+g+".ms (exact count)", k, "count", "lower", c.name+"."+g+".passes")
			}
		}
	}
	for _, g := range kernelGraphs {
		for _, v := range []string{"cc.sv-bb", "cc.sv-ba"} {
			add("cc", "the paper's Fig. 3 unit; L3-resident, not DRAM-bandwidth", k, "ns", "lower", v+"."+g+".ns_per_arc_pass")
		}
	}
	for _, g := range kernelGraphs {
		for _, v := range []string{"cc.sv-bb", "cc.sv-ba"} {
			add("cc", "the paper's store blow-up (exact count)", k, "count", "lower", v+"."+g+".label_stores")
		}
	}
	for _, g := range kernelGraphs {
		for _, v := range []string{"bfs.bb", "bfs.ba"} {
			add("bfs", "the paper's store blow-up (exact count)", k, "count", "lower", v+"."+g+".queue_stores")
		}
	}
	for _, g := range kernelGraphs {
		for _, f := range []string{"cc", "bfs", "sssp"} {
			add(f, "the paper's headline ratio; informational, never gated", k, "ratio", "lower", "ba_over_bb."+f+"."+g)
		}
	}
	for _, g := range kernelGraphs {
		for _, f := range []string{"cc", "bfs"} {
			add("par", "engine_ms on kernels", k, "ratio", "higher", "par.speedup."+f+"."+g)
		}
	}
	add("run", "engine_ms on kernels", k, "us", "lower", "run.overhead_us.cc", "run.overhead_us.bfs")
	for _, g := range kernelGraphs {
		add("relabel", "setup_s if relabeling is made the default", k, "ms", "lower", "relabel.build_ms."+g)
	}
	for _, g := range kernelGraphs {
		add("relabel", "engine_ms on kernels", k, "ratio", "lower", "relabel.cc_ratio."+g)
	}

	// Generators.
	add("gen", "setup_s", []string{wKernels, wDirect, wFleet}, "s", "lower", "gen.social_s")
	add("gen", "setup_s", k, "s", "lower", "gen.mesh_s")
	add("gen", "setup_s", []string{wKernels, wRollout}, "s", "lower", "gen.small_s")
	add("graph", "setup_s", allWorkloads, "ms", "lower", "graph.attach_weights_ms")

	// The load generator's view.
	s := serveWorkloads
	r := []string{wRollout}
	add("client", "tail of cc_p50_ms; measured, not gated", s, "ms", "lower", "client.cc_p95_ms")
	add("client", "tail of bfs_p50_ms; measured, not gated", s, "ms", "lower", "client.bfs_p95_ms")
	add("client", "tail of sssp_p50_ms; measured, not gated", s, "ms", "lower", "client.sssp_p95_ms")
	add("client", "tail of replace_p50_ms; measured, not gated", r, "ms", "lower", "client.replace_p95_ms")
	add("client", "sample count behind the cc percentiles", s, "count", "higher", "client.cc_n")
	add("client", "sample count behind the bfs percentiles", s, "count", "higher", "client.bfs_n")
	add("client", "sample count behind the sssp percentiles", s, "count", "higher", "client.sssp_n")
	add("client", "sample count behind the replace percentiles", r, "count", "higher", "client.replace_n")

	// serve.Server: HTTP decode, encode, write.
	for _, kind := range queryKinds {
		add("serve.Server", kind+"_p50_ms on serve-direct and the shard leg of serve-fleet", s, "ms", "lower", "server."+kind+"_self_ms")
	}
	for _, kind := range queryKinds {
		add("serve.Server", "server."+kind+"_self_ms (exact count)", s, "B", "lower", "server."+kind+"_resp_bytes")
	}
	add("serve.Server", "*_p50_ms on every serve workload: the zero-payload request cost", s, "us", "lower", "server.floor_us")
	add("serve.Server", "cross-check: client mean minus the daemon's own histogram mean", s, "ms", "lower", "server.hist_mean_gap_ms")

	// serve.Local, serve.Batcher and the pool.
	for _, kind := range queryKinds {
		add("serve.Local", kind+"_p50_ms on every serve workload", s, "ms", "lower", "local."+kind+"_ms")
	}
	for _, kind := range queryKinds {
		add("pool", kind+"_p50_ms on serve-direct (about half), barely serve-fleet", s, "ms", "lower", "pool."+kind+"_ms")
	}
	add("serve.Batcher", "bfs_p50_ms on serve-rollout far more than serve-direct", s, "ms", "lower", "batcher.bfs_wait_ms")
	add("serve.Batcher", "sssp_p50_ms on serve-rollout far more than serve-direct", s, "ms", "lower", "batcher.sssp_wait_ms")
	add("serve.Batcher", "batcher.*_wait_ms: two closed-loop clients rarely coalesce", s, "count", "higher", "batcher.batch_mean")
	add("serve.Batcher", "probe: 32 in-process submitters, the coalescing depth two connections cannot reach", s, "us", "lower", "batcher.ms32_us_per_query")
	add("serve.Batcher", "probe: batch size the 32 submitters reach", s, "count", "higher", "batcher.ms32_batch_mean")

	// serve.Registry and metis.
	add("serve.Registry", "cc_p50_ms: 1.0 without replaces, below 1 on serve-rollout", s, "ratio", "higher", "registry.cc_hit_ratio")
	add("serve.Registry", "cc_p50_ms on serve-rollout only", r, "ms", "lower", "registry.cc_fill_ms")
	add("serve.Registry", "replace_p50_ms on serve-rollout", r, "ms", "lower", "registry.replace_ms")
	add("metis", "replace_p50_ms on serve-rollout", r, "MB/s", "higher", "metis.read_mb_per_s")

	// fleet.Router and serve.ShardClient.
	f := []string{wFleet}
	for _, kind := range queryKinds {
		add("fleet.Router", kind+"_p50_ms and ops_per_s on serve-fleet; no change elsewhere", f, "ms", "lower", "router."+kind+"_hop_ms")
	}
	for _, kind := range queryKinds {
		add("serve.ShardClient", kind+"_p50_ms and ops_per_s on serve-fleet; no change elsewhere", f, "ms", "lower", "shardclient."+kind+"_decode_ms")
	}
	for _, kind := range queryKinds {
		add("fleet.Router", kind+"_p50_ms and ops_per_s on serve-fleet; no change elsewhere", f, "ms", "lower", "router."+kind+"_encode_ms")
	}
	add("fleet.Router", "ops_per_s on serve-fleet: a hedge duplicates a kernel on a 2-core box", f, "ratio", "lower",
		"router.attempts_per_op", "router.hedges_per_op")
	add("fleet.Router", "ops_per_s on serve-fleet: share of hedges that paid off", f, "ratio", "higher", "router.hedge_win_ratio")
	add("fleet.Router", "ops_per_s on serve-fleet", f, "ratio", "lower", "router.retries_per_op")

	// The encoding/json floor an append-based encoder is measured against.
	add("encoding/json", "server.*_self_ms, router.*_encode_ms", allWorkloads, "ns", "lower",
		"json.encode_ns_per_elem_u32", "json.encode_ns_per_elem_u64")
	add("encoding/json", "shardclient.*_decode_ms", allWorkloads, "ns", "lower",
		"json.decode_ns_per_elem_u32", "json.decode_ns_per_elem_u64")

	// Process.
	add("process", "alloc_mb_per_op", allWorkloads, "MB", "lower", "proc.peak_rss_mb")
	add("process", "ops_per_s", allWorkloads, "ms/s", "lower", "proc.gc_pause_ms_per_s")
	add("process", "alloc_mb_per_op", allWorkloads, "count", "lower", "proc.allocs_per_op")

	// Tracing itself.
	add("trace", "validity of the per-layer numbers: traced / untraced ops_per_s", s, "ratio", "higher", "trace.overhead_ratio")
	add("trace", "validity of the attribution: client time no span accounts for", s, "ms", "lower", "trace.unaccounted_ms")
	return ds
}

var queryKinds = []string{"cc", "bfs", "sssp"}

// driverPerLayer is the per-layer list as the driver sees it: the
// catalogue's per-layer metrics plus the demoted end-to-end ones.
func driverPerLayer() []def {
	_, demoted := driverEndToEnd()
	return append(perLayer(), demoted...)
}

// metricSet collects values and the sample counts behind them.
type metricSet struct {
	values  map[string]value
	samples map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{values: make(map[string]value), samples: make(map[string]int)}
}

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer() {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a catalogue metric; an unknown name is a programming error.
func (m *metricSet) set(name string, v float64, samples int) {
	unit, ok := unitOf[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the catalogue", name))
	}
	m.values[name] = value{Value: v, Unit: unit}
	if samples > 0 {
		m.samples[name] = samples
	}
}

func (m *metricSet) get(name string) float64 { return m.values[name].Value }

// project returns the values of defs, in catalogue order, 0 where the
// workload does not measure the metric.
func (m *metricSet) project(defs []def) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m.values[d.Name]
		if !ok {
			v = value{Value: 0, Unit: d.Unit}
		}
		out[d.Name] = v
	}
	return out
}

func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
