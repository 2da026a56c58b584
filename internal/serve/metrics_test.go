package serve_test

// Black-box coverage for the aggregation plane: loaded daemons must
// expose parseable Prometheus text with the series the smoke script
// asserts on, the "auto" algorithm must answer byte-identically to the
// static defaults, and the per-query "stats" object must survive the
// HTTP round-trip for every family including the cached-CC replay.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bagraph"
	"bagraph/internal/serve"
)

// scrape GETs /metrics and returns every sample line as series → value,
// failing on any line that does not match the exposition grammar.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*(?:\{[^{}]*\})?) (-?[0-9.]+(?:[eE][-+]?[0-9]+)?|\+Inf|NaN)$`)
	out := make(map[string]float64)
	for _, l := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", l)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", l, err)
		}
		out[m[1]] = v
	}
	return out
}

// sumSeries totals every sample whose series name starts with prefix.
func sumSeries(samples map[string]float64, prefix string) float64 {
	total := 0.0
	for series, v := range samples {
		if strings.HasPrefix(series, prefix) {
			total += v
		}
	}
	return total
}

func TestMetricsEndpoint(t *testing.T) {
	ts, g := newTestServer(t)

	// Load the daemon: two identical CC queries (fill then cache hit),
	// a parallel BFS, a multi-source BFS, and an SSSP.
	for i := 0; i < 2; i++ {
		if code, _ := post[ccResp](t, ts.URL+"/query/cc",
			map[string]any{"graph": "cm", "algo": "par-hybrid"}); code != http.StatusOK {
			t.Fatalf("cc query %d: status %d", i, code)
		}
	}
	post[travResp](t, ts.URL+"/query/bfs", map[string]any{"graph": "cm", "root": 0, "algo": "par-do"})
	post[travResp](t, ts.URL+"/query/bfs", map[string]any{"graph": "cm", "root": 1, "algo": "ms"})
	post[ssspResp](t, ts.URL+"/query/sssp", map[string]any{"graph": "cm", "root": 0, "algo": "par-hybrid"})
	// One rejected query feeds the bad_request class.
	post[errResp](t, ts.URL+"/query/bfs", map[string]any{"graph": "cm", "root": 0, "algo": "nope"})

	samples := scrape(t, ts.URL)
	atLeast := func(series string, min float64) {
		t.Helper()
		if got := samples[series]; got < min {
			t.Fatalf("%s = %v, want >= %v\n(have %d series)", series, got, min, len(samples))
		}
	}
	atLeast(`baserved_queries_total{kind="cc",status="ok"}`, 2)
	atLeast(`baserved_queries_total{kind="bfs",status="ok"}`, 2)
	atLeast(`baserved_queries_total{kind="sssp",status="ok"}`, 1)
	atLeast(`baserved_queries_total{kind="bfs",status="bad_request"}`, 1)
	atLeast(`baserved_query_seconds_count{kind="cc"}`, 2)
	atLeast(`baserved_cc_cache_events_total{event="miss"}`, 1)
	atLeast(`baserved_cc_cache_events_total{event="hit"}`, 1)
	atLeast(`baserved_batch_size_count{kind="bfs"}`, 1)
	atLeast(`baserved_batch_size_count{kind="ms"}`, 1)
	atLeast(`baserved_batch_size_count{kind="sssp"}`, 1)
	atLeast(`baserved_ms_wave_occupancy_count`, 1)
	atLeast(`baserved_kernel_passes_total{kind="cc"}`, 1)
	atLeast(`baserved_kernel_passes_total{kind="bfs"}`, 1)
	atLeast(`baserved_kernel_passes_total{kind="sssp"}`, 1)
	atLeast(`baserved_kernel_chunks_total{kind="bfs"}`, 1)
	atLeast(`baserved_kernel_dist_stores_total{kind="sssp"}`, 1)
	atLeast(`baserved_kernel_light_relaxed_total{kind="sssp"}`, 1)
	atLeast(`baserved_kernel_words_scanned_total{kind="ms"}`, 1)
	if sumSeries(samples, "baserved_steals_per_pass_count") < 1 {
		t.Fatal("no steals_per_pass observations from chunked runs")
	}
	// The cached CC replay must not rerun the kernel: one fill's passes.
	if cc2 := samples[`baserved_query_seconds_count{kind="cc"}`]; cc2 < 2 {
		t.Fatalf("cc latency histogram count = %v, want 2", cc2)
	}
	// The BFS and the SSSP ran one after the other, so the second reused
	// the workspace the first returned, which now holds the answers of
	// both kinds.
	if got := samples["baserved_workspaces"]; got != 1 {
		t.Fatalf("baserved_workspaces = %v, want 1", got)
	}
	if got, want := samples["baserved_workspace_bytes"], float64(12*g.NumVertices()); got < want {
		t.Fatalf("baserved_workspace_bytes = %v, want >= %v (hops and distances)", got, want)
	}
}

// TestWorkspaceGaugesBounded: concurrent queries check out as many
// workspaces as run at once, but once they are written the batcher
// keeps at most one per worker, and the gauges say so.
func TestWorkspaceGaugesBounded(t *testing.T) {
	ts, g := newTestServer(t) // 2 workers
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path, algo := "/query/bfs", "par-do"
			if i%2 == 1 {
				path, algo = "/query/sssp", "par-hybrid"
			}
			body, err := json.Marshal(map[string]any{"graph": "cm", "root": i, "algo": algo})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s root %d: %s", path, i, resp.Status)
			}
		}(i)
	}
	wg.Wait()
	samples := scrape(t, ts.URL)
	held, bytes := samples["baserved_workspaces"], samples["baserved_workspace_bytes"]
	if held < 1 || held > 2 {
		t.Fatalf("baserved_workspaces = %v after the queries finished, want 1 or 2", held)
	}
	// Every kept workspace holds at least one answer array.
	if floor := held * float64(4*g.NumVertices()); bytes < floor {
		t.Fatalf("baserved_workspace_bytes = %v for %v workspaces, want >= %v", bytes, held, floor)
	}
}

// autotuneServer publishes the same graph behind an autotuning core.
func autotuneServer(t *testing.T, g *bagraph.Graph, schedule bagraph.Schedule) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	if _, err := reg.Add("cm", g); err != nil {
		t.Fatal(err)
	}
	core := serve.New(reg, serve.Config{Workers: 2, BatchWindow: -1, Schedule: schedule, Autotune: true})
	ts := httptest.NewServer(core.Handler())
	t.Cleanup(func() {
		ts.Close()
		core.Close()
	})
	return ts
}

// TestAutotuneAuto: with -autotune, algorithm "auto" (and the empty
// default) must answer byte-identically to the static defaults while
// the decisions counter records the picks — across enough rounds that
// the cells pass their settle boundaries and may switch kernels.
func TestAutotuneAuto(t *testing.T) {
	tsStatic, g := newTestServer(t)
	tsAuto := autotuneServer(t, g, bagraph.ScheduleStatic)

	_, wantCC := post[ccResp](t, tsStatic.URL+"/query/cc",
		map[string]any{"graph": "cm", "algo": "par-hybrid", "labels": true})
	_, wantBFS := post[travResp](t, tsStatic.URL+"/query/bfs",
		map[string]any{"graph": "cm", "root": 0})
	_, wantSSSP := post[ssspResp](t, tsStatic.URL+"/query/sssp",
		map[string]any{"graph": "cm", "root": 0})

	for round := 0; round < 12; round++ {
		algo := "auto"
		if round%2 == 1 {
			algo = "" // empty defaults to auto when the flag is on
		}
		code, cc := post[ccResp](t, tsAuto.URL+"/query/cc",
			map[string]any{"graph": "cm", "algo": algo, "labels": true})
		if code != http.StatusOK {
			t.Fatalf("round %d: cc status %d", round, code)
		}
		if cc.Components != wantCC.Components {
			t.Fatalf("round %d: auto cc %d components, static %d", round, cc.Components, wantCC.Components)
		}
		if cc.Algo == "auto" || cc.Algo == "" {
			t.Fatalf("round %d: response algo %q not resolved", round, cc.Algo)
		}
		// A fresh algo pick starts a fresh cache fill; labels must
		// nevertheless be identical arrays.
		for i, l := range cc.Labels {
			if l != wantCC.Labels[i] {
				t.Fatalf("round %d: auto cc labels diverge at %d: %d != %d", round, i, l, wantCC.Labels[i])
			}
		}
		_, bfsRes := post[travResp](t, tsAuto.URL+"/query/bfs",
			map[string]any{"graph": "cm", "root": 0, "algo": algo})
		for i, d := range bfsRes.Dist {
			if d != wantBFS.Dist[i] {
				t.Fatalf("round %d: auto bfs dist diverges at %d", round, i)
			}
		}
		_, ssspRes := post[ssspResp](t, tsAuto.URL+"/query/sssp",
			map[string]any{"graph": "cm", "root": 0, "algo": algo})
		if ssspRes.Sum != wantSSSP.Sum || ssspRes.Reached != wantSSSP.Reached {
			t.Fatalf("round %d: auto sssp sum %d/%d, static %d/%d",
				round, ssspRes.Sum, ssspRes.Reached, wantSSSP.Sum, wantSSSP.Reached)
		}
		for i, d := range ssspRes.Dist {
			if d != wantSSSP.Dist[i] {
				t.Fatalf("round %d: auto sssp dist diverges at %d", round, i)
			}
		}
	}

	samples := scrape(t, tsAuto.URL)
	for _, prefix := range []string{
		`baserved_autotune_decisions_total{kind="cc",param="algo"`,
		`baserved_autotune_decisions_total{kind="sssp",param="delta"`,
		`baserved_autotune_decisions_total{kind="sssp",param="schedule"`,
	} {
		if sumSeries(samples, prefix) < 1 {
			t.Fatalf("no autotune decisions recorded under %s", prefix)
		}
	}
}

// TestServerStatsRoundTrip: the per-query "stats" object carries the
// scheduler and relaxation counters end-to-end for every family, and
// the cached-CC replay repeats the fill's stats verbatim.
func TestServerStatsRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)

	_, fresh := post[ccResp](t, ts.URL+"/query/cc",
		map[string]any{"graph": "cm", "algo": "par-hybrid"})
	if fresh.Stats.Passes == 0 || fresh.Stats.LabelStores == 0 {
		t.Fatalf("fresh cc stats empty: %+v", fresh.Stats)
	}
	if fresh.Stats.Chunks == 0 {
		t.Fatalf("parallel cc reported no scheduler chunks: %+v", fresh.Stats)
	}
	_, cached := post[ccResp](t, ts.URL+"/query/cc",
		map[string]any{"graph": "cm", "algo": "par-hybrid"})
	if !cached.Cached {
		t.Fatal("second identical cc query not served from cache")
	}
	if cached.Stats != fresh.Stats {
		t.Fatalf("cached cc replayed different stats:\nfill:   %+v\nreplay: %+v", fresh.Stats, cached.Stats)
	}

	_, bfsRes := post[travResp](t, ts.URL+"/query/bfs",
		map[string]any{"graph": "cm", "root": 0, "algo": "par-do"})
	if bfsRes.Stats.Chunks == 0 || bfsRes.Stats.DistStores == 0 {
		t.Fatalf("bfs stats missing scheduler/store counters: %+v", bfsRes.Stats)
	}
	// Root 0 on this graph flips the direction optimizer bottom-up, so
	// the bitset sweep counter must survive the JSON round trip (it was
	// silently dropped from the wire payload before words_scanned).
	if bfsRes.Stats.BottomUpLevels == 0 {
		t.Fatalf("par-do never went bottom-up; pick a denser root: %+v", bfsRes.Stats)
	}
	if bfsRes.Stats.WordsScanned == 0 {
		t.Fatalf("bfs words_scanned dropped from the wire payload: %+v", bfsRes.Stats)
	}

	_, msRes := post[travResp](t, ts.URL+"/query/bfs",
		map[string]any{"graph": "cm", "root": 0, "algo": "ms"})
	if msRes.Stats.WordsScanned == 0 {
		t.Fatalf("ms words_scanned dropped from the wire payload: %+v", msRes.Stats)
	}

	_, ssspRes := post[ssspResp](t, ts.URL+"/query/sssp",
		map[string]any{"graph": "cm", "root": 0, "algo": "par-hybrid"})
	st := ssspRes.Stats
	if st.Buckets == 0 || st.CandStores == 0 || st.DistStores == 0 {
		t.Fatalf("sssp stats missing delta counters: %+v", st)
	}
	if st.LightRelaxed == 0 {
		t.Fatalf("sssp stats missing relaxation counter: %+v", st)
	}
	if st.Chunks == 0 {
		t.Fatalf("parallel sssp reported no scheduler chunks: %+v", st)
	}
}
