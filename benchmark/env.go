package main

import (
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
)

// environment is the block every result file carries. Two files are
// comparable only when their blocks agree in everything but the commit.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	CPUModel   string  `json:"cpu_model"`
	L2         string  `json:"l2_per_core"`
	L3         string  `json:"l3_shared"`
	Seed       uint64  `json:"seed"`
	Quick      bool    `json:"quick"`
	WindowS    float64 `json:"window_s"`
	// ArrayBytes is the CSR + weights + one label and one distance array
	// of each graph the workload ran on. They exceed the per-core L2 and
	// fit the shared L3: ns-per-arc numbers are L3-resident numbers, not
	// DRAM-bandwidth numbers.
	ArrayBytes map[string]int64 `json:"array_bytes"`
	Vertices   map[string]int   `json:"vertices"`
	Arcs       map[string]int64 `json:"arcs"`
}

func newEnvironment(cfg runConfig) environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: cfg.procs,
		Clients:    numClients,
		CPUModel:   cpuModel(),
		L2:         sysfsCache("index2"),
		L3:         sysfsCache("index3"),
		Seed:       cfg.seed,
		Quick:      cfg.quick,
		WindowS:    cfg.window().Seconds(),
		ArrayBytes: make(map[string]int64),
		Vertices:   make(map[string]int),
		Arcs:       make(map[string]int64),
	}
}

func (e *environment) addGraph(in *input) {
	e.ArrayBytes[in.spec.name] = in.arrayBytes()
	e.Vertices[in.spec.name] = in.g.NumVertices()
	e.Arcs[in.spec.name] = in.g.NumArcs()
}

// comparable reports whether two blocks differ in nothing but the commit.
func (e environment) comparable(o environment) bool {
	e.Commit, o.Commit = "", ""
	return reflect.DeepEqual(e, o)
}

// commit names the checkout when it is a git repository; the driver's
// checkouts are not.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func sysfsCache(index string) string {
	raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + index + "/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}
