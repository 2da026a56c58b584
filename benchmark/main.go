// Command benchmark is the repository's benchmark: four workloads that
// drive the unchanged program through its public entry points, verify
// every answer against an independent oracle, and report client-observed
// end-to-end metrics plus an outside-in attribution of that time to the
// layers between the kernel and the router. See README.md.
//
//	go run ./benchmark                         all workloads, both passes, results appended to -out/results.json
//	go run ./benchmark -workload serve-fleet   one workload
//	go run ./benchmark -quick                  1/20 windows on the small graph: a wiring check
//	go run ./benchmark compare A.json B.json   judge B against A with the bounds fixed here
//	go run ./benchmark manifest                print BENCHMARK.json from the metric catalogue
//
// The driver's form runs one pass of one workload in this process and
// prints its result line last:
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if len(os.Args) != 4 {
				fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
				os.Exit(2)
			}
			os.Exit(runCompare(os.Stdout, os.Args[2], os.Args[3]))
		case "manifest":
			raw, err := manifestJSON()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(raw)
			return
		}
	}
	var (
		seed     = flag.Uint64("seed", 1, "seed of the graph generators, edge weights, root pools and op order")
		workload = flag.String("workload", "", "run only this workload: "+strings.Join(workloadNames, ", "))
		outDir   = flag.String("out", ".bench_out", "directory for results, traces and the serve-rollout METIS files")
		quick    = flag.Bool("quick", false, "1/20 windows on the small graph everywhere: checks the wiring, not the numbers")
		seconds  = flag.Float64("seconds", defaultSeconds, "driver: length of the measured window")
		trace    = flag.Int("trace", -1, "driver: run one pass in this process, 0 = end-to-end on the stock stack, 1 = per-layer")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fatal(fmt.Errorf("unknown workload %q (known: %s)", *workload, strings.Join(workloadNames, ", ")))
	}
	if *seconds < 1 || *seconds > 600 {
		fatal(fmt.Errorf("-seconds %v out of [1, 600]", *seconds))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, quick: *quick, procs: pinnedProcs(), outDir: *outDir}
	if *trace >= 0 {
		if *workload == "" {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		cfg.trace = *trace == 1
		if err := runPass(cfg); err != nil {
			fatal(err)
		}
		return
	}
	if err := runAll(cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runPass measures one pass of one workload in this process, leaves its
// result file in the out directory and prints the driver's line last.
func runPass(cfg runConfig) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printMetrics(res)
	if res.FirstErr != "" {
		fmt.Printf("first failure: %s\n", res.FirstErr)
	}
	if err := writeJSONFile(resultPath(cfg.outDir, cfg.workload, cfg.trace), res); err != nil {
		return err
	}
	line, err := json.Marshal(driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: driverMetrics(res)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs the workloads one after another, each pass in a fresh
// re-exec of this binary so heap and GC state do not leak between them,
// and appends the merged run to results.json.
func runAll(cfg runConfig) error {
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	run := make(map[string]*workloadResult)
	for _, name := range names {
		wr := &workloadResult{Correct: true, Samples: make(map[string]int)}
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = name, trace
			res, err := execPass(self, c)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			wr.Correct = wr.Correct && res.Correct
			for k, n := range res.Samples {
				wr.Samples[k] = n
			}
			m := &metricSet{values: res.Metrics}
			if trace {
				wr.PerLayer = measuredOn(m, perLayer(), name)
			} else {
				// The gated numbers come from the stock stack alone.
				wr.Env, wr.Attempted, wr.Failed = res.Env, res.Attempted, res.Failed
				wr.EndToEnd = measuredOn(m, endToEnd, name)
			}
		}
		run[name] = wr
	}
	path := filepath.Join(cfg.outDir, "results.json")
	rs := &resultSet{}
	if prev, err := readResultSet(path); err == nil {
		for name, wr := range run {
			if env, ok := prev.env(name); ok && (!env.comparable(wr.Env) || env.Commit != wr.Env.Commit) {
				return fmt.Errorf("%s holds runs from another environment or commit; use another -out", path)
			}
		}
		rs = prev
	}
	rs.Runs = append(rs.Runs, run)
	if err := writeJSONFile(path, rs); err != nil {
		return err
	}
	fmt.Printf("run %d appended to %s\n", len(rs.Runs), path)
	for _, wr := range run {
		if !wr.Correct {
			return fmt.Errorf("a workload returned wrong answers; see first failure above")
		}
	}
	return nil
}

// measuredOn keeps the defs the workload measures.
func measuredOn(m *metricSet, defs []def, workload string) map[string]value {
	var on []def
	for _, d := range defs {
		if d.on(workload) {
			on = append(on, d)
		}
	}
	return m.project(on)
}

// execPass re-executes this binary for one pass and reads back the
// result file it leaves.
func execPass(self string, cfg runConfig) (*runResult, error) {
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-out", cfg.outDir,
		"-trace", trace, "-seconds", fmt.Sprint(cfg.seconds)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Pass the child's metric lines through; its last line is the
	// driver's JSON, which the result file repeats in full.
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") {
			fmt.Println(line)
		}
	}
	_, _ = io.Copy(io.Discard, stdout) // a line past the scanner's limit must not block the child
	if err := cmd.Wait(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(resultPath(cfg.outDir, cfg.workload, cfg.trace))
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
