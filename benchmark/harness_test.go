package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"bagraph/internal/serve"
)

func quickConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	return runConfig{workload: workload, seed: 3, seconds: 6 * raceSlowdown, trace: trace, quick: true, procs: pinnedProcs(), outDir: t.TempDir()}
}

// Every workload's wiring — fleet join and warm, replace alternation,
// verification, both passes — runs in quick mode without a long run.
func TestQuickModeCoversEveryWorkload(t *testing.T) {
	e2e, _ := driverEndToEnd()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := quickConfig(t, w, trace)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", w, trace, res.Correct, res.Attempted, res.Failed, res.FirstErr)
			}
			if res.Env.GOMAXPROCS != pinnedProcs() || len(res.Env.ArrayBytes) == 0 || math.Abs(res.Env.WindowS-0.3*raceSlowdown) > 1e-9 {
				t.Errorf("%s: environment block %+v", w, res.Env)
			}
			line := driverMetrics(res)
			if !trace {
				// The driver wants every end-to-end metric on every
				// workload, and never zero.
				if len(line) != len(e2e) {
					t.Errorf("%s: %d end-to-end metrics, want %d", w, len(line), len(e2e))
				}
				for name, v := range line {
					if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: %s = %v", w, name, v.Value)
					}
				}
				continue
			}
			if len(line) != len(driverPerLayer()) {
				t.Errorf("%s: %d per-layer metrics, want %d", w, len(line), len(driverPerLayer()))
			}
			// Every per-layer metric the catalogue places on this
			// workload was measured (a few are legitimately 0 or
			// negative: ratios of nothing, differences of medians).
			for _, d := range perLayer() {
				if _, ok := res.Metrics[d.Name]; d.on(w) && !ok {
					t.Errorf("%s: %s was not measured", w, d.Name)
				}
			}
			switch w {
			case wRollout:
				if hit := res.Metrics["registry.cc_hit_ratio"].Value; hit <= 0 || hit >= 1 {
					t.Errorf("serve-rollout: cc hit ratio %v, want inside (0, 1): replaces must retire the cache", hit)
				}
				if n := res.Metrics["client.replace_n"].Value; n < 2 {
					t.Errorf("serve-rollout: %v replaces, want both files published", n)
				}
			case wFleet:
				if a := res.Metrics["router.attempts_per_op"].Value; a < 1 {
					t.Errorf("serve-fleet: %v shard attempts per op, want at least 1", a)
				}
			case wDirect:
				if hit := res.Metrics["registry.cc_hit_ratio"].Value; hit != 1 {
					t.Errorf("serve-direct: cc hit ratio %v, want 1", hit)
				}
			}
			if w != wKernels {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w+".jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
}

// slowBackend delays every BFS by a fixed time: a layer that got slower.
type slowBackend struct {
	serve.Backend
	delay time.Duration
}

func (b slowBackend) BFS(ctx context.Context, graph string, root uint32, algo string) (*serve.BFSResponse, error) {
	time.Sleep(b.delay)
	return b.Backend.BFS(ctx, graph, root, algo)
}

// The attribution test: time added under the shard's handler, inside the
// local-backend span, must show up in local.bfs_ms and nowhere else.
func TestAttributionNamesTheSlowLayer(t *testing.T) {
	const delay = 5 * time.Millisecond
	cfg := quickConfig(t, wFleet, true)
	si, err := generateServeInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	si.buildOracles(cfg)
	measure := func(wrap func(serve.Backend) serve.Backend) *metricSet {
		tr := newTracer()
		st, err := buildStack(cfg, si, stackOptions{tracer: tr, wrapLocal: wrap})
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		p := runLoad(cfg, st.entry.url, si, tr, 50*time.Millisecond, 600*time.Millisecond, nil)
		if ops := p.ops(); ops.failed != 0 || ops.attempted < 20 {
			t.Fatalf("attempted %d, failed %d: %v", ops.attempted, ops.failed, ops.firstErr)
		}
		out := newMetricSet()
		spanMetrics(out, cfg.workload, tr.snapshot(), p)
		return out
	}
	base := measure(nil)
	slow := measure(func(b serve.Backend) serve.Backend { return slowBackend{b, delay} })
	moved := func(name string) float64 { return slow.get(name) - base.get(name) }
	if d := moved("local.bfs_ms"); math.Abs(d-ms(delay)) > 1 {
		t.Errorf("local.bfs_ms moved by %.2f ms, want %.0f ± 1", d, ms(delay))
	}
	for _, name := range []string{"server.bfs_self_ms", "router.bfs_hop_ms", "router.bfs_encode_ms", "shardclient.bfs_decode_ms"} {
		if d := moved(name); math.Abs(d) > 1 {
			t.Errorf("%s moved by %.2f ms; the delay is not in that layer", name, d)
		}
	}
}

func TestManifestMatchesCatalogue(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is not what `go run ./benchmark manifest` prints; regenerate it")
	}
	// The driver's limits.
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || (u != "" && !unit.MatchString(u)) {
			t.Errorf("metric %q unit %q breaks the driver's naming rules", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", e.Name, e.Bound)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	for _, p := range m.PerLayer {
		check(p.Name, p.Unit)
	}
	if !hasSetup || len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("manifest shape: setup_s=%v, %d workloads, %d end-to-end, %d per-layer", hasSetup, len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if got := len(perLayer()); got != 122 {
		t.Errorf("%d per-layer metrics in the catalogue, want the 122 the issue names", got)
	}
}

func resultFile(t *testing.T, env environment, runs ...map[string]float64) string {
	t.Helper()
	rs := &resultSet{}
	for _, metrics := range runs {
		wr := &workloadResult{Env: env, Correct: true, Attempted: 100, EndToEnd: make(map[string]value)}
		for _, d := range endToEnd {
			if d.on(wDirect) {
				wr.EndToEnd[d.Name] = value{Value: 10, Unit: d.Unit}
			}
		}
		wr.EndToEnd["fail_ratio"] = value{Value: 0, Unit: "ratio"}
		for name, v := range metrics {
			wr.EndToEnd[name] = value{Value: v, Unit: unitOf[name]}
		}
		rs.Runs = append(rs.Runs, map[string]*workloadResult{wDirect: wr})
	}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := writeJSONFile(path, rs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	env := newEnvironment(runConfig{seed: 1, seconds: 20, procs: 2})
	env.Commit = "aaaa"
	other := env
	other.Commit = "bbbb"
	base := resultFile(t, env, map[string]float64{"bfs_p50_ms": 10, "ops_per_s": 100})

	status := func(out string, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == wDirect && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "missing"
	}
	for _, c := range []struct {
		name   string
		runs   []map[string]float64
		code   int
		metric string
		want   string
	}{
		// bfs_p50_ms is bounded at 20 %, ops_per_s at 25 %.
		{"same", []map[string]float64{{"bfs_p50_ms": 11, "ops_per_s": 95}}, 0, "bfs_p50_ms", "ok"},
		{"latency breach", []map[string]float64{{"bfs_p50_ms": 12.5, "ops_per_s": 100}}, 1, "bfs_p50_ms", "BREACH"},
		{"throughput breach", []map[string]float64{{"bfs_p50_ms": 10, "ops_per_s": 60}}, 1, "ops_per_s", "BREACH"},
		{"better is fine", []map[string]float64{{"bfs_p50_ms": 5, "ops_per_s": 200}}, 0, "ops_per_s", "ok"},
		{"any failure", []map[string]float64{{"bfs_p50_ms": 10, "ops_per_s": 100, "fail_ratio": 0.01}}, 1, "fail_ratio", "BREACH"},
		// The candidate's own runs disagree by more than the bound: the
		// median looks fine, but the pair is not shown unchanged.
		{"unresolved", []map[string]float64{{"bfs_p50_ms": 7, "ops_per_s": 100}, {"bfs_p50_ms": 10.2, "ops_per_s": 100}, {"bfs_p50_ms": 15, "ops_per_s": 100}}, 0, "bfs_p50_ms", "unresolved"},
		// Noisy, but every run is worse than the baseline's: a breach.
		{"noisy breach", []map[string]float64{{"bfs_p50_ms": 13, "ops_per_s": 100}, {"bfs_p50_ms": 30, "ops_per_s": 100}}, 1, "bfs_p50_ms", "BREACH"},
	} {
		var out bytes.Buffer
		code := runCompare(&out, base, resultFile(t, other, c.runs...))
		if code != c.code || status(out.String(), c.metric) != c.want {
			t.Errorf("%s: exit %d, %s is %s; want exit %d, %s\n%s", c.name, code, c.metric, status(out.String(), c.metric), c.code, c.want, out.String())
		}
	}

	// Anything but the commit differing makes the files incomparable.
	for name, change := range map[string]func(*environment){
		"seed":       func(e *environment) { e.Seed = 2 },
		"gomaxprocs": func(e *environment) { e.GOMAXPROCS = 1 },
		"window":     func(e *environment) { e.WindowS = 30 },
		"cpu":        func(e *environment) { e.CPUModel = "another" },
		"arrays":     func(e *environment) { e.ArrayBytes = map[string]int64{"social": 1} },
	} {
		changed := env
		change(&changed)
		var out bytes.Buffer
		if code := runCompare(&out, base, resultFile(t, changed, map[string]float64{})); code != 2 || !strings.Contains(out.String(), "environment") {
			t.Errorf("%s differs: exit %d: %s", name, code, out.String())
		}
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	env := newEnvironment(runConfig{seed: 9, seconds: 20, procs: 2})
	path := resultFile(t, env, map[string]float64{"bfs_p50_ms": 1.25})
	rs, err := readResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.series(wDirect, "bfs_p50_ms"); len(got) != 1 || got[0] != 1.25 {
		t.Errorf("series = %v", got)
	}
	if e, ok := rs.env(wDirect); !ok || !e.comparable(env) {
		t.Errorf("environment did not survive the file: %+v", e)
	}
}
