package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runConfig is one workload run: what the flags and the fixed settings
// resolve to.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // the measured window, before quick mode shortens it
	trace    bool    // false: end-to-end numbers on the stock stack; true: per-layer numbers
	quick    bool
	procs    int // GOMAXPROCS and every pool: min(nproc, 2)
	outDir   string
}

// defaultSeconds is the measured window when --seconds is not given. The
// driver's run budget caps it below the 30 s the sizing pass used; every
// workload shrinks alike.
const defaultSeconds = 20

// window is the measured window; quick mode runs a twentieth of it.
func (c runConfig) window() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.quick {
		d /= 20
	}
	return d
}

// setupRuns is how often set-up is performed: it is sub-second and
// timer-quantised, so the gated run reports the median of three.
func (c runConfig) setupRuns() int {
	if c.trace || c.quick {
		return 1
	}
	return 3
}

// pinnedProcs is the fixed parallelism: Go before 1.25 ignores container
// CPU quotas, so the benchmark pins instead of trusting GOMAXPROCS.
func pinnedProcs() int { return min(runtime.NumCPU(), 2) }

// opCounter counts verified and failed operations.
type opCounter struct {
	attempted, failed int
	firstErr          error
}

// count records one operation; a non-nil err is a failed one.
func (o *opCounter) count(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// add folds another counter's operations into o.
func (o *opCounter) add(other *opCounter) {
	o.attempted += other.attempted
	o.failed += other.failed
	if o.firstErr == nil {
		o.firstErr = other.firstErr
	}
}

// window brackets the measured part of a run with the process counters.
type window struct {
	t0, t1 time.Time
	m0, m1 runtime.MemStats
}

func startWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.m0)
	w.t0 = time.Now()
	return w
}

func (w *window) elapsed() time.Duration { return time.Since(w.t0) }

func (w *window) stop() {
	w.t1 = time.Now()
	runtime.ReadMemStats(&w.m1)
}

func (w *window) seconds() float64 { return w.t1.Sub(w.t0).Seconds() }

// report sets the metrics every workload derives from its window.
func (w *window) report(out *metricSet, ops *opCounter) {
	verified := ops.attempted - ops.failed
	perOp := func(x uint64) float64 { return ratio(float64(x), float64(verified)) }
	out.set("ops_per_s", ratio(float64(verified), w.seconds()), verified)
	out.set("fail_ratio", ratio(float64(ops.failed), float64(ops.attempted)), ops.attempted)
	out.set("alloc_mb_per_op", perOp(w.m1.TotalAlloc-w.m0.TotalAlloc)/1e6, verified)
	out.set("proc.allocs_per_op", perOp(w.m1.Mallocs-w.m0.Mallocs), verified)
	out.set("proc.gc_pause_ms_per_s", ratio(float64(w.m1.PauseTotalNs-w.m0.PauseTotalNs)/1e6, w.seconds()), int(w.m1.NumGC-w.m0.NumGC))
	out.set("proc.peak_rss_mb", peakRSSMB(), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runResult is what one workload run leaves behind: the file a later
// `compare` or the all-workloads parent reads.
type runResult struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FirstErr  string           `json:"first_error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Samples   map[string]int   `json:"samples"`
	Env       environment      `json:"env"`
}

// driverLine is the last line of standard output, in the driver's shape.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload measures one workload in this process.
func runWorkload(cfg runConfig) (*runResult, error) {
	runtime.GOMAXPROCS(cfg.procs)
	var (
		out *metricSet
		ops *opCounter
		env environment
		err error
	)
	env = newEnvironment(cfg)
	if cfg.workload == wKernels {
		out, ops, err = runKernels(cfg, cfg.trace, &env)
	} else {
		out, ops, err = runServe(cfg, &env)
	}
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: cfg.workload, Trace: cfg.trace,
		Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed,
		Metrics: out.values, Samples: out.samples, Env: env,
	}
	if ops.firstErr != nil {
		res.FirstErr = ops.firstErr.Error()
	}
	return res, nil
}

func resultPath(dir, workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("run-%s-trace%d.json", workload, t))
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printMetrics prints every measured metric by name with its unit.
func printMetrics(res *runResult) {
	for _, name := range sortedNames(res.Metrics) {
		v := res.Metrics[name]
		n := ""
		if s, ok := res.Samples[name]; ok {
			n = fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Printf("%-14s %-40s %16.6g %s%s\n", res.Workload, name, v.Value, v.Unit, n)
	}
}

// driverMetrics selects what the driver's result line carries: with
// tracing off every end-to-end metric, with tracing on every per-layer
// metric (0 where this workload has no such layer).
func driverMetrics(res *runResult) map[string]value {
	m := &metricSet{values: res.Metrics}
	if res.Trace {
		return m.project(driverPerLayer())
	}
	e2e, _ := driverEndToEnd()
	return m.project(e2e)
}
