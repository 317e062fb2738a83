// Command flexwan-experiments regenerates every table and figure of the
// FlexWAN paper's motivation and evaluation sections from this
// reproduction. Output is the same rows/series the paper plots; compare
// shapes against EXPERIMENTS.md.
//
// Usage:
//
//	flexwan-experiments                 # run everything
//	flexwan-experiments -fig 12,16      # selected figures
//	flexwan-experiments -seed 7         # different synthetic T-backbone
//	flexwan-experiments -workers 8      # sweep parallelism
//	                                      (0 = all cores, 1 = sequential)
//	flexwan-experiments -fig 12 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                    # profile any run with pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"flexwan/internal/eval"
	"flexwan/internal/workload"
)

// figNames are the valid -fig names, in the order -h lists them: 11 is
// Table 2's figure number, 13 selects both halves of Fig 13, and 12 also
// prints the headline savings.
var figNames = []string{"2a", "2b", "3", "table2", "11", "gn", "12", "headline", "13", "13a", "13b", "14", "15a", "15b", "16", "prob", "all"}

// parseFigs splits a -fig value into the set of names to run, refusing
// any name outside figNames — an unknown name would otherwise run nothing
// and exit 0.
func parseFigs(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(strings.ToLower(f))
		if !slices.Contains(figNames, name) {
			return nil, fmt.Errorf("unknown -fig name %q (valid: %s)", name, strings.Join(figNames, ", "))
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	figFlag := flag.String("fig", "all", "comma-separated figures to run: "+strings.Join(figNames, ","))
	seed := flag.Int64("seed", 1, "random seed for the synthetic T-backbone")
	csvDir := flag.String("csv", "", "also write plotting-ready CSV files into this directory")
	workers := flag.Int("workers", 0, "concurrent scenario/plan solves per sweep (0 = all cores, 1 = sequential)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (captured at exit, after a GC) to this file")
	flag.Parse()

	want, err := parseFigs(*figFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
		os.Exit(2)
	}
	all := want["all"]
	run := func(name string) bool { return all || want[name] }

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	tb := workload.TBackbone(*seed)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
		stopProfiles()
		os.Exit(1)
	}
	writeCSV := func(name string, data eval.CSVData) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fail(err)
		}
		if err := eval.WriteCSV(f, data); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	if run("2a") {
		f := eval.Fig2aPathLengthDistribution(tb)
		fmt.Println(f)
		writeCSV("fig2a.csv", f)
	}
	if run("2b") {
		f := eval.Fig2bMaxRateVsDistance()
		fmt.Println(f)
		writeCSV("fig2b.csv", f)
	}
	if run("3") {
		f := eval.Fig3Provision800G()
		fmt.Println(f)
		writeCSV("fig3.csv", f)
	}
	if run("table2") || run("11") {
		rows := eval.Table2TestbedSweep()
		fmt.Println(eval.Table2String(rows))
		writeCSV("table2.csv", eval.Table2CSV(rows))
	}
	if run("gn") {
		rows := eval.GNCrossCheck()
		fmt.Println(eval.GNCheckString(rows))
		writeCSV("gncheck.csv", eval.GNCheckCSV(rows))
		r, err := eval.ReachSensitivityStudy(tb)
		if err != nil {
			fail(err)
		}
		fmt.Println(r)
	}
	if run("12") {
		f, err := eval.Fig12HardwareVsScale(tb, []float64{1, 2, 3, 4, 5, 6, 7, 8}, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig12.csv", f)
	}
	if run("headline") || run("12") {
		s, err := eval.HeadlineSavings(tb, 1)
		if err != nil {
			fail(err)
		}
		fmt.Println(s)
	}
	if run("13a") || run("13b") || run("13") {
		ce := workload.Cernet(*seed)
		if run("13a") || run("13") {
			f := eval.Fig13aWeightedPathLengths(tb, ce)
			fmt.Println(f)
			writeCSV("fig13a.csv", f)
		}
		if run("13b") || run("13") {
			f, err := eval.Fig13bTopologyGains(tb, ce)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
		}
	}
	if run("14") {
		f, err := eval.Fig14WavelengthDistributions(tb)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig14.csv", f)
	}
	if run("15a") {
		f, err := eval.Fig15aRestoredPathGaps(tb, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig15a.csv", f)
	}
	if run("15b") {
		f, err := eval.Fig15bRestorationVsScale(tb, []float64{1, 2, 3, 4, 5}, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
		writeCSV("fig15b.csv", f)
	}
	if run("16") {
		for _, scale := range []float64{1, 5} {
			f, err := eval.Fig16RestorationCDF(tb, scale, *workers)
			if err != nil {
				fail(err)
			}
			fmt.Println(f)
			writeCSV(fmt.Sprintf("fig16_scale%g.csv", scale), f)
		}
	}
	if run("prob") {
		f, err := eval.ProbabilisticRestorationSweep(tb, 1, *seed, 40, 0.3, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(f)
	}
}

// startProfiles begins CPU profiling (when cpuPath is set) and returns a
// stop function that flushes the CPU profile and writes the heap profile
// (when memPath is set). The stop function is idempotent and runs on both
// the normal and the fail exit path — os.Exit skips deferred calls, so an
// aborted run would otherwise leave a truncated, unusable CPU profile.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
				}
			}
			if memPath == "" {
				return
			}
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows live allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "flexwan-experiments:", err)
			}
		})
	}
}
