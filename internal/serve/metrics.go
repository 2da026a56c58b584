package serve

// The daemon's aggregation plane: every query, batch dispatch, kernel
// run and cache event feeds the instruments below, and GET /metrics
// renders them in the Prometheus text exposition format. A nil
// *Metrics disables the whole plane — every observe method is a
// nil-receiver no-op — so bare Batchers (library users, benchmarks
// measuring uninstrumented dispatch) pay nothing.

import (
	"net/http"
	"strconv"

	"bagraph"
	"bagraph/internal/metrics"
)

// Metrics is the serving layer's instrument set over one
// metrics.Registry. Construct with NewMetrics; the zero value is not
// usable, but a nil *Metrics is a valid "observability off" plane.
type Metrics struct {
	reg *metrics.Registry

	// HTTP plane.
	queries      *metrics.CounterVec   // baserved_queries_total{kind,status}
	querySeconds *metrics.HistogramVec // baserved_query_seconds{kind}

	// Dispatch plane.
	batchSize   *metrics.HistogramVec // baserved_batch_size{kind}
	msOccupancy *metrics.Histogram    // baserved_ms_wave_occupancy
	ccEvents    *metrics.CounterVec   // baserved_cc_cache_events_total{event}

	// Kernel plane, per query kind.
	stealsPerPass *metrics.Histogram
	passes        *metrics.CounterVec
	chunks        *metrics.CounterVec
	steals        *metrics.CounterVec
	words         *metrics.CounterVec
	light         *metrics.CounterVec
	cand          *metrics.CounterVec
	dist          *metrics.CounterVec

	// Autotune plane.
	autotune *metrics.CounterVec // baserved_autotune_decisions_total{kind,param,choice}

	// Memory plane: the batcher's workspaces.
	workspaces     *metrics.Gauge // baserved_workspaces
	workspaceBytes *metrics.Gauge // baserved_workspace_bytes
}

// NewMetrics builds the full instrument set on a fresh registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry()
	batchBounds := []float64{1, 2, 4, 8, 16, 32, 64}
	return &Metrics{
		reg: r,
		queries: r.CounterVec("baserved_queries_total",
			"Queries served, by kind and outcome.", "kind", "status"),
		querySeconds: r.HistogramVec("baserved_query_seconds",
			"End-to-end query latency in seconds, by kind.",
			metrics.ExponentialBuckets(0.0001, 4, 9), "kind"),
		batchSize: r.HistogramVec("baserved_batch_size",
			"Requests coalesced per dispatch, by kind.", batchBounds, "kind"),
		msOccupancy: r.Histogram("baserved_ms_wave_occupancy",
			"Sources sharing one multi-source BFS wave group (<=64).", batchBounds),
		ccEvents: r.CounterVec("baserved_cc_cache_events_total",
			"CC cache path taken per query: hit, miss (became the filler), retry (fill's cohort died).",
			"event"),
		stealsPerPass: r.Histogram("baserved_steals_per_pass",
			"Chunks stolen per kernel pass (stealing-schedule runs with chunks).",
			[]float64{0.5, 1, 2, 4, 8, 16, 32}),
		passes: r.CounterVec("baserved_kernel_passes_total",
			"Kernel passes (SV sweeps, BFS levels, delta phases), by kind.", "kind"),
		chunks: r.CounterVec("baserved_kernel_chunks_total",
			"Scheduler chunks executed by parallel kernels, by kind.", "kind"),
		steals: r.CounterVec("baserved_kernel_steals_total",
			"Chunks run by a non-owning worker, by kind.", "kind"),
		words: r.CounterVec("baserved_kernel_words_scanned_total",
			"Non-empty vertex-set words swept by parallel BFS levels (unvisited words for single-source BFS and the CC seed, active words for multi-source BFS), by kind.", "kind"),
		light: r.CounterVec("baserved_kernel_light_relaxed_total",
			"Relaxations applied by SSSP kernels, by kind.", "kind"),
		cand: r.CounterVec("baserved_kernel_cand_stores_total",
			"Delta-stepping candidate stores, by kind.", "kind"),
		dist: r.CounterVec("baserved_kernel_dist_stores_total",
			"Distance/queue-array stores applied, by kind.", "kind"),
		autotune: r.CounterVec("baserved_autotune_decisions_total",
			"Autotuner knob picks applied to dispatches.", "kind", "param", "choice"),
		workspaces: r.Gauge("baserved_workspaces",
			"Query workspaces the batcher holds, free and checked out."),
		workspaceBytes: r.Gauge("baserved_workspace_bytes",
			"Capacity of the held query workspaces in bytes, as of their last return."),
	}
}

// Registry exposes the underlying instrument registry so co-resident
// planes (the fleet router's series) land in the same /metrics scrape.
func (m *Metrics) Registry() *metrics.Registry { return m.reg }

// Handler serves the registry in the text exposition format.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.reg.WritePrometheus(w)
	})
}

// ObserveQuery records one finished HTTP query: its outcome class and
// wall-clock seconds.
func (m *Metrics) ObserveQuery(kind, status string, seconds float64) {
	if m == nil {
		return
	}
	m.queries.With(kind, status).Inc()
	m.querySeconds.With(kind).Observe(seconds)
}

// ObserveBatch records one dispatch's coalesced size.
func (m *Metrics) ObserveBatch(kind string, size int) {
	if m == nil {
		return
	}
	m.batchSize.With(kind).Observe(float64(size))
}

// ObserveWaveOccupancy records how many sources one multi-source run
// packed per wave group.
func (m *Metrics) ObserveWaveOccupancy(sources, waves int) {
	if m == nil || waves <= 0 {
		return
	}
	m.msOccupancy.Observe(float64(sources) / float64(waves))
}

// ObserveCC records which CC cache path a query took: "hit", "miss",
// or "retry".
func (m *Metrics) ObserveCC(event string) {
	if m == nil {
		return
	}
	m.ccEvents.With(event).Inc()
}

// ObserveRun folds one kernel run's counters into the per-kind totals.
func (m *Metrics) ObserveRun(kind string, st bagraph.Stats) {
	if m == nil {
		return
	}
	m.passes.With(kind).Add(uint64(st.Passes))
	if st.Chunks > 0 {
		m.chunks.With(kind).Add(uint64(st.Chunks))
		m.steals.With(kind).Add(st.Steals)
		m.stealsPerPass.Observe(st.StealsPerPass())
	}
	if st.WordsScanned > 0 {
		m.words.With(kind).Add(st.WordsScanned)
	}
	if st.LightRelaxed > 0 {
		m.light.With(kind).Add(st.LightRelaxed)
	}
	if st.CandStores > 0 {
		m.cand.With(kind).Add(st.CandStores)
	}
	if st.DistStores > 0 {
		m.dist.With(kind).Add(st.DistStores)
	}
}

// ObserveAutotune records one autotuner knob pick.
func (m *Metrics) ObserveAutotune(kind, param, choice string) {
	if m == nil {
		return
	}
	m.autotune.With(kind, param, choice).Inc()
}

// ObserveWorkspaces publishes the batcher's workspace count and bytes.
func (m *Metrics) ObserveWorkspaces(held int, bytes int64) {
	if m == nil {
		return
	}
	m.workspaces.Set(float64(held))
	m.workspaceBytes.Set(float64(bytes))
}

// formatDelta renders a delta decision as a metric label choice.
func formatDelta(d uint64) string { return strconv.FormatUint(d, 10) }
