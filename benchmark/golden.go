package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

//go:embed golden_seed1.json
var goldenSeed1 []byte

// goldenPath is where -update-golden writes, relative to the repo root.
const goldenPath = "benchmark/golden_seed1.json"

// golden pins, for seed 1, one string per early op of each workload (an
// objective and status, an output hash, a drill's restored capacity).
// Other seeds run without pins and rely on the self-checks alone.
type golden struct {
	pins    map[string][]string
	updated map[string][]string
}

func loadGolden() (*golden, error) {
	g := &golden{pins: map[string][]string{}, updated: map[string][]string{}}
	if err := json.Unmarshal(goldenSeed1, &g.pins); err != nil {
		return nil, fmt.Errorf("golden_seed1.json: %w", err)
	}
	return g, nil
}

// check compares op i of the workload against its pin and returns a
// description of the mismatch, or "" when it matches, is not pinned, or
// the run is not at seed 1. Every value seen is kept for -update-golden.
func (g *golden) check(workload string, i int, got string) string {
	if g == nil {
		return ""
	}
	for len(g.updated[workload]) <= i {
		g.updated[workload] = append(g.updated[workload], "")
	}
	g.updated[workload][i] = got
	if pins := g.pins[workload]; i < len(pins) && pins[i] != got {
		return fmt.Sprintf("%s op %d: got %q, golden %q", workload, i, got, pins[i])
	}
	return ""
}

// save rewrites the file on disk (not the embedded copy, which is as old
// as the build) with the entries of the workloads this run touched
// replaced by what it saw.
func (g *golden) save() error {
	if g == nil {
		return fmt.Errorf("-update-golden needs -seed 1")
	}
	pins := map[string][]string{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			return fmt.Errorf("%s: %w", goldenPath, err)
		}
	}
	for w, vals := range g.updated {
		pins[w] = vals
	}
	data, err := json.MarshalIndent(pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
