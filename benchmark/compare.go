package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// A result set is the file `go run ./benchmark` writes: one entry per
// full run of the workloads. Running again with the same -out appends a
// run, so a set can carry the spread of its own measurements.

type workloadResult struct {
	Env       environment      `json:"env"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
	Samples   map[string]int   `json:"samples"`
}

type resultSet struct {
	Runs []map[string]*workloadResult `json:"runs"` // each: workload name → result
}

func readResultSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &rs, nil
}

// series collects one end-to-end metric's values over a set's runs.
func (rs *resultSet) series(workload, metric string) []float64 {
	var xs []float64
	for _, run := range rs.Runs {
		if w := run[workload]; w != nil {
			if v, ok := w.EndToEnd[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

func (rs *resultSet) env(workload string) (environment, bool) {
	for _, run := range rs.Runs {
		if w := run[workload]; w != nil {
			return w.Env, true
		}
	}
	return environment{}, false
}

// spread is the run-to-run spread of a series as a share of its median:
// the interquartile range, which for two or three runs is close to the
// full range. One run has no spread to show.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return ratio(percentile(xs, 0.75)-percentile(xs, 0.25), median(xs))
}

// verdict is the comparison of one (workload, metric) pair.
type verdict struct {
	workload, metric string
	a, b             float64 // medians
	worse            float64 // how much worse b is than a, as a share of a; negative when better
	bound, spread    float64
	status           string // ok, unresolved, BREACH
}

// judge compares the candidate series b with the baseline series a.
func judge(d def, workload string, a, b []float64) verdict {
	v := verdict{workload: workload, metric: d.Name, a: median(a), b: median(b), bound: d.Bound}
	v.spread = max(spread(a), spread(b))
	switch {
	case v.a == 0:
		// fail_ratio: the baseline is 0 and any increase is a regression.
		v.worse = v.b
	case d.Better == "higher":
		v.worse = (v.a - v.b) / v.a
	default:
		v.worse = (v.b - v.a) / v.a
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	// allWorse / allBetter: every run of one side beats every run of the other.
	allWorse, allBetter := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allWorse = false
			}
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case v.worse <= v.bound && v.spread <= v.bound:
		v.status = "ok"
	case allBetter:
		v.status = "ok"
	case v.spread > v.bound && !allWorse:
		// The runs of one commit disagree by more than the bound: the
		// pair cannot be called unchanged or regressed.
		v.status = "unresolved"
	case v.worse > v.bound:
		v.status = "BREACH"
	default:
		v.status = "ok"
	}
	return v
}

// compareSets judges every (workload, end-to-end metric) pair of b
// against a. It refuses sets measured in different environments.
func compareSets(a, b *resultSet) ([]verdict, error) {
	var out []verdict
	for _, w := range workloadNames {
		ea, okA := a.env(w)
		eb, okB := b.env(w)
		if !okA && !okB {
			continue
		}
		if okA != okB {
			return nil, fmt.Errorf("workload %s is in one file only", w)
		}
		if !ea.comparable(eb) {
			return nil, fmt.Errorf("workload %s: the files' environment blocks differ in more than the commit:\n  %+v\n  %+v", w, ea, eb)
		}
		for _, d := range endToEnd {
			if !d.on(w) {
				continue
			}
			sa, sb := a.series(w, d.Name), b.series(w, d.Name)
			if len(sa) == 0 || len(sb) == 0 {
				return nil, fmt.Errorf("workload %s: metric %s is missing from a file", w, d.Name)
			}
			out = append(out, judge(d, w, sa, sb))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the files share no workload")
	}
	return out, nil
}

// runCompare is `benchmark compare A.json B.json`; the exit code is 1 on
// a breach, 2 when the files cannot be compared.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readResultSet(pathA)
	if err == nil {
		var b *resultSet
		if b, err = readResultSet(pathB); err == nil {
			var vs []verdict
			if vs, err = compareSets(a, b); err == nil {
				return printVerdicts(w, vs, len(a.Runs), len(b.Runs))
			}
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return 2
}

func printVerdicts(w io.Writer, vs []verdict, runsA, runsB int) int {
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].workload < vs[j].workload })
	fmt.Fprintf(w, "A: %d run(s), B: %d run(s); medians; worse = how much worse B is than A\n", runsA, runsB)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "A", "B", "worse", "spread", "bound", "status")
	code := 0
	for _, v := range vs {
		fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
			v.workload, v.metric, v.a, v.b, v.worse*100, v.spread*100, v.bound*100, v.status)
		if v.status == "BREACH" {
			code = 1
		}
	}
	return code
}
