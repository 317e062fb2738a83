package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultSet is what all-workloads mode writes and -compare reads: the
// machine it was taken on and every run of every workload.
type resultSet struct {
	Machine machine   `json:"machine"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
}

// runAll runs every workload in a child process of its own (so peak
// memory is per workload), untraced first and then, if asked, traced.
func runAll(seed int64, seconds float64, traced bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Machine: machineInfo(), Seed: seed, Seconds: seconds}
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, def := range workloadDefs {
		for run := 0; run < runs; run++ {
			for _, tr := range modes {
				res, err := runChild(self, def.Name, seed, seconds, tr)
				if err != nil {
					return err
				}
				set.Runs = append(set.Runs, res)
			}
		}
	}
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", seed))
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result set: %s\n", out)
	for _, r := range set.Runs {
		if !r.Correct || r.Failed > 0 {
			return fmt.Errorf("%s: correct=%v failed=%d of %d", r.Workload, r.Correct, r.Failed, r.Attempted)
		}
	}
	return nil
}

// runChild runs one workload in a child process, passes its report
// through and parses the result line.
func runChild(self, name string, seed int64, seconds float64, traced bool) (*result, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	os.Stdout.Write(stdout.Bytes())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := &result{Workload: name, Seed: seed, Traced: traced}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}
