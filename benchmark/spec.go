package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units and
// regression bounds are written down. The harness computes values by name
// and refuses to print a set that differs from these lists.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	root string // directory holding BENCHMARK.json
}

// loadSpec finds BENCHMARK.json in the working directory (go run from
// the repo root) or its parent (go test runs inside benchmark/).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if s.root, err = filepath.Abs(dir); err != nil {
			return nil, err
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}

// outDir is where runs leave their reports and span files.
func (s *benchSpec) outDir() string { return filepath.Join(s.root, "benchmark", "out") }

func (s *benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
