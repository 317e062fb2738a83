// Command benchmark is the repo's one yardstick: five seeded workloads
// over the two end-to-end paths (HTTP submit → scheduler → plan cache →
// solve → render, and fiber cut → detect → restore → push → audit) plus
// the exact solver and the paper's figure pipeline. It drives the system
// only through exported functions of internal/* and real loopback
// TCP/HTTP, checks every output, and prints every metric by name.
//
//	go run ./benchmark -seed 1                  # all workloads, end-to-end numbers
//	go run ./benchmark -seed 1 -trace 1         # plus the traced per-layer runs
//	go run ./benchmark -workload service -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -compare a.json b.json   # regression verdict per metric × workload
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics when
// untraced, the per-layer metrics when traced. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// outDir is where traces and result sets go, relative to the repo root;
// nothing else is written.
var outDir = "benchmark/out"

// defaultSetupReps is how often set-up is repeated in one run; setup_s is
// the median, so neither the first, cold repetition nor one slow
// page-fault storm reads as a regression.
const (
	defaultSetupReps = 5
	setupGap         = 400 * time.Millisecond
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload: plan-exact | figures | failover-clean | failover-faulty | service (default: all, one child process each)")
		seed         = flag.Int64("seed", 1, "derives every input: instances, networks, cut fibers, arrivals, cold keys, retry jitter")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace        = flag.Int("trace", 0, "1 = traced run: spans around every call into a layer, per-layer metrics, trace file in "+outDir)
		runs         = flag.Int("runs", 1, "all-workloads mode: runs per workload in the result set (>= 4 lets -compare judge spread)")
		out          = flag.String("out", "", "all-workloads mode: result-set file (default "+outDir+"/results-seed<seed>.json)")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json as the metric definitions imply it")
		updateGolden = flag.Bool("update-golden", false, "with -workload and -seed 1: rewrite that workload's entry in golden_seed1.json from this run")
	)
	flag.Parse()

	switch {
	case *printMan:
		os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result-set files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workloadName == "":
		if err := runAll(*seed, *seconds, *trace == 1, *runs, *out); err != nil {
			fatal(err)
		}
	default:
		w, err := newRunner(*workloadName)
		if err != nil {
			fatal(err)
		}
		res, err := runOne(w, runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, updateGolden: *updateGolden})
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runner is one of the five workloads. The harness calls setup several times
// (each call replaces what the previous one built), then run once, then —
// traced runs only — probes, then close.
type runner interface {
	name() string
	// setup does everything before the first timed op: inputs, first
	// testbed or server, warm-up. It warms up on inputs that do not
	// depend on the seed where it can: set-up time should not measure
	// which instance a seed put first.
	setup(c *runCtx) error
	// run executes ops until c.expired(), recording each with c.op.
	run(c *runCtx) error
	// probes replay inputs against layers the ops reached only
	// indirectly and fill per-layer metrics; spans are flagged probe.
	probes(c *runCtx) error
	// layerMetrics turns what run recorded into per-layer values.
	layerMetrics(c *runCtx)
	close()
}

func newRunner(name string) (runner, error) {
	switch name {
	case "plan-exact":
		return &planExact{}, nil
	case "figures":
		return &figures{}, nil
	case "failover-clean":
		return &failover{faulty: false}, nil
	case "failover-faulty":
		return &failover{faulty: true}, nil
	case "service":
		return &service{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type runConfig struct {
	seed         int64
	seconds      float64
	traced       bool
	updateGolden bool
	setupReps    int // 0 means defaultSetupReps
}

// runCtx is what a workload sees of one run: its inputs and where it
// records results.
type runCtx struct {
	runConfig
	nproc  int
	tr     *tracer // nil when untraced
	golden *golden // nil unless seed 1

	deadline time.Time
	lat      sample // op latency, ms
	cpuOp    sample // CPU per op, ms: see cpuMark
	cpuAt    time.Duration
	attempts int
	failed   int
	wrong    []string // outputs that failed a correctness check
	notes    []string // recorded, not failures: skipped networks, infeasible instances
	layer    map[string]float64
	awakeCPU time.Duration // CPU keepAwake burned: the harness's, not the system's
}

func (c *runCtx) expired() bool { return !time.Now().Before(c.deadline) }

// keepAwake spins on every core until the given time, in place of
// sleeping until then. A workload whose op count is fixed by something
// other than speed (failover-*: sockets) has to wait between ops, and an
// op that starts after an idle wait finds the cores clocked down and
// parked; its latency then measures how fast they come back. The CPU
// burned here is left out of cpu_ms_per_op.
func (c *runCtx) keepAwake(until time.Time) {
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for i := 0; i < c.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
			}
		}()
	}
	wg.Wait()
	c.awakeCPU += cpuTime() - cpu0
}

// op records one completed op. A non-empty failure counts it as failed;
// a wrong output is a failure that also clears the run's correct flag.
func (c *runCtx) op(latency time.Duration, failure string, wrongOutput bool) {
	c.attempts++
	c.lat = append(c.lat, float64(latency)/1e6)
	if failure != "" {
		c.failed++
		if wrongOutput {
			c.wrong = append(c.wrong, failure)
		} else {
			c.notes = append(c.notes, "failed: "+failure)
		}
	}
}

// cpuMark records the CPU consumed since the previous mark, per op, for
// the ops done since then. A serial workload marks after every op; the
// open-loop one marks once a second with the jobs that second completed.
// cpu_ms_per_op is the median of the marks, not total CPU ÷ ops: on this
// class of host a stretch of seconds at two thirds of the speed is common,
// and it moves a run's mean by what it leaves a median.
func (c *runCtx) cpuMark(ops int) {
	if ops == 0 {
		return // carry the CPU over to the next mark
	}
	now := cpuTime() - c.awakeCPU
	c.cpuOp = append(c.cpuOp, float64(now-c.cpuAt)/1e6/float64(ops))
	c.cpuAt = now
}

func (c *runCtx) note(format string, args ...interface{}) {
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the contract's last line plus what the
// human-readable lines and the result set need.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	Wrong     []string               `json:"wrong,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`

	order []metricDef // print order
}

func (r *result) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v\n", r.Workload, r.Seed, r.Traced)
	m := machineInfo()
	fmt.Fprintf(w, "machine  nproc %d  GOMAXPROCS %d  %s  kernel %s  commit %s\n", m.Nproc, m.GoMaxProcs, m.GoVersion, m.Kernel, m.Commit)
	for _, d := range r.order {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	printCapped(w, "note", r.Notes)
	printCapped(w, "WRONG", r.Wrong)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printCapped prints the first lines of a possibly long list.
func printCapped(w *os.File, label string, lines []string) {
	const most = 20
	for i, l := range lines {
		if i == most {
			fmt.Fprintf(w, "  %s: ... and %d more\n", label, len(lines)-most)
			return
		}
		fmt.Fprintf(w, "  %s: %s\n", label, l)
	}
}

// runOne runs one workload in this process and computes its metrics.
func runOne(w runner, cfg runConfig) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	c := &runCtx{runConfig: cfg, nproc: runtime.NumCPU(), layer: map[string]float64{}}
	if err := checkWorkers("GOMAXPROCS", runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	if cfg.traced {
		c.tr = newTracer()
	}
	if cfg.seed == 1 {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		c.golden = g
	}
	defer w.close()

	if cfg.setupReps <= 0 {
		cfg.setupReps = defaultSetupReps
	}
	var setups sample
	for i := 0; i < cfg.setupReps; i++ {
		if i > 0 {
			// Spread the repetitions over a couple of seconds, so that
			// their median is not that of one stretch of the host's speed.
			c.keepAwake(time.Now().Add(setupGap))
		}
		t0 := time.Now()
		if err := w.setup(c); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Start every timed phase from a collected heap, so where the last
	// set-up left the collector does not leak into the first ops.
	runtime.GC()
	mem0, cpu0, t0 := readMem(), cpuTime(), time.Now()
	c.cpuAt, c.awakeCPU = cpu0, 0
	c.deadline = t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	rs := startRSSSampler()
	if err := w.run(c); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	rss := rs.finish()
	wall, cpu, mem1 := time.Since(t0), cpuTime()-cpu0-c.awakeCPU, readMem()
	if len(c.cpuOp) == 0 {
		c.cpuMark(c.attempts) // a run too short for the workload's own marks
	}
	if c.attempts == 0 {
		return nil, fmt.Errorf("%s: no op completed in %.1f s", w.name(), cfg.seconds)
	}

	r := &result{
		Workload: w.name(), Seed: cfg.seed, Traced: cfg.traced,
		Attempted: c.attempts, Failed: c.failed, Metrics: map[string]metricValue{},
	}
	ops := float64(c.attempts)
	if !cfg.traced {
		r.order = endToEnd
		c.layer["op_p50_ms"] = c.lat.median()
		c.layer["cpu_ms_per_op"] = c.cpuOp.median()
		c.layer["rss_p90_mb"] = rss.quantile(0.9)
		c.layer["setup_s"] = setups.median()
	} else {
		r.order = perLayer()
		spans := c.tr.count()
		c.layer["bench.ops"] = ops
		c.layer["bench.run_s"] = wall.Seconds()
		c.layer["bench.op_p50_ms"] = c.lat.median()
		c.layer["bench.op_mean_ms"] = c.lat.mean()
		c.layer["bench.op_p90_ms"] = c.lat.percentile(90)
		c.layer["bench.op_p99_ms"] = c.lat.percentile(99)
		c.layer["bench.spans"] = float64(spans)
		c.layer["bench.trace_overhead_share"] = bookkeepingCost(spans).Seconds() / wall.Seconds()
		c.layer["proc.alloc_mb_per_op"] = float64(mem1.totalAlloc-mem0.totalAlloc) / (1 << 20) / ops
		c.layer["proc.gc_cycles"] = float64(mem1.numGC - mem0.numGC)
		c.layer["proc.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
		c.layer["proc.cpu_util"] = cpu.Seconds() / (wall.Seconds() * float64(c.nproc))
		c.layer["proc.peak_rss_mb"] = peakRSSMB()
		c.layer["workload.generate_ms_p50"] = c.tr.durationsMs("workload.generate").median()
		w.layerMetrics(c)
		if err := w.probes(c); err != nil {
			return nil, fmt.Errorf("%s probes: %w", w.name(), err)
		}
		path, err := c.tr.write(outDir, w.name(), cfg.seed)
		if err != nil {
			return nil, err
		}
		r.TraceFile = path
	}
	for _, d := range r.order {
		r.Metrics[d.Name] = metricValue{Value: c.layer[d.Name], Unit: d.Unit}
	}
	if cfg.updateGolden {
		if err := c.golden.save(); err != nil {
			return nil, err
		}
	}
	sort.Strings(c.wrong)
	r.Correct, r.Wrong, r.Notes = len(c.wrong) == 0, c.wrong, c.notes
	return r, nil
}
