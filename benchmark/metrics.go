package main

import (
	"bytes"
	"encoding/json"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures. 114 driver runs of about
// runSeconds + 5 set-ups spread over 2 s + a build check (~2 800 s in
// all) fit the 3 420 s budget with room for two cold builds.
const runSeconds = 20

// warmupSeed opens the input streams the set-ups warm up on.
const warmupSeed = 0

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, so each is defined — and steady — on all five: the
// median op latency, CPU per op, resident memory and set-up time. The rest
// of the latency distribution is per-layer (bench.op_mean_ms, _p90,
// _p99): the mean moves with one host stall on the open-loop service, and
// no percentile above the median has ten samples beyond it on every
// workload. There is no ops-per-second metric either: three of the five
// workloads run on a schedule (open-loop arrivals, drills at a fixed
// rate), where it would only echo the clock.
//
// Bounds are the share of the parent's median a metric may worsen by.
// They are wide because this class of host is: one of its two cores runs
// at 0.6× to 1× of its speed, for seconds or for minutes at a time.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "rss_p90_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// commonLayer is reported by every workload's traced run.
var commonLayer = []metricDef{
	{Name: "bench.ops", Unit: "count", Better: higher},
	{Name: "bench.run_s", Unit: "s", Better: lower},
	{Name: "bench.op_p50_ms", Unit: "ms", Better: lower},
	{Name: "bench.op_mean_ms", Unit: "ms", Better: lower},
	{Name: "bench.op_p90_ms", Unit: "ms", Better: lower},
	{Name: "bench.op_p99_ms", Unit: "ms", Better: lower},
	{Name: "bench.spans", Unit: "count", Better: lower},
	{Name: "bench.trace_overhead_share", Unit: "share", Better: lower},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: lower},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "proc.cpu_util", Unit: "share", Better: lower},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "workload.generate_ms_p50", Unit: "ms", Better: lower},
}

// perLayer is every per-layer metric, in the order BENCHMARK.json lists
// them. A traced run prints all of them; a metric the workload does not
// measure reads 0.
func perLayer() []metricDef {
	var out []metricDef
	for _, group := range [][]metricDef{commonLayer, planExactLayer, figuresLayer, failoverLayer, serviceLayer} {
		out = append(out, group...)
	}
	return out
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"plan-exact", "serial exact MILP planning solves to proven optimum: solver (presolve, dual simplex, LU, B&B) does >95% of the work, every other layer idles"},
	{"figures", "the paper's own pipeline (headline savings, Fig 12/15b/16): plan/restore heuristics, KSP, MinProvision, spectrum allocator, parallel; solver/api/controller do nothing"},
	{"failover-clean", "fault-free CERNET fiber-cut drill over loopback agents: telemetry detect, restore solve, controller push, netconf happy path; CPU-bound"},
	{"failover-faulty", "same drill with 10% dropped RPCs and a crashed transponder: retry/backoff, call timeouts, degraded push, repair; timer-bound, bypasses the happy path"},
	{"service", "open-loop Poisson jobs over real HTTP, connections ~20% busy: api scheduler, plan cache (95% hot restore, 5% cold plan miss), JSON render, long-poll wake"},
}

// manifest renders BENCHMARK.json from the definitions above; a test
// keeps the committed file equal to it.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // static data: cannot fail
	}
	return buf.Bytes()
}
