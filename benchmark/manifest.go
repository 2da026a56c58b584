package main

import (
	"bytes"
	"encoding/json"
)

// The driver's manifest, BENCHMARK.json at the repository root, is the
// catalogue written out in the driver's shape.

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestEndToEnd `json:"end_to_end"`
	PerLayer   []manifestPerLayer `json:"per_layer"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadNames {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w, Why: workloadWhy[w]})
	}
	e2e, _ := driverEndToEnd()
	for _, d := range e2e {
		m.EndToEnd = append(m.EndToEnd, manifestEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range driverPerLayer() {
		m.PerLayer = append(m.PerLayer, manifestPerLayer{d.Name, d.Unit, d.Better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
