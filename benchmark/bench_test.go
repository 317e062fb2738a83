package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true}, {999, 99, false}, {1000, 99, true}, {19, 50, false}, {20, 50, true},
	} {
		if got := seq(tc.n).supports(tc.p); got != tc.want {
			t.Errorf("n=%d p%v: supports = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	if got := seq(50).percentile(90); got != 0 {
		t.Errorf("unsupported percentile reads %v, want 0", got)
	}
	if got := seq(101).percentile(90); math.Abs(got-91) > 1e-9 {
		t.Errorf("p90 of 1..101 = %v, want 91", got)
	}
	if got := seq(5).median(); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// the rule the benchmark is accepted by.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	got, ok := quartileSpread(seq(10))
	if !ok || math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, %v", got, ok)
	}
	// quantiles([10, 12, 11, 15], n=4) = [10.25, 11.5, 14.25]
	got, ok = quartileSpread([]float64{10, 12, 11, 15})
	if !ok || math.Abs(got-4.0/11.5) > 1e-12 {
		t.Errorf("spread of 4 values = %v, %v", got, ok)
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("one value has no spread")
	}
}

// Self time is duration minus what direct children cover: overlapping
// children merge, a child running past its parent is clipped, and a
// grandchild is its parent's business.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "a.root", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "b.first", StartNs: 10, EndNs: 40, Parent: 0},
		{Name: "b.overlap", StartNs: 30, EndNs: 60, Parent: 0},
		{Name: "b.late", StartNs: 90, EndNs: 120, Parent: 0},
		{Name: "c.grandchild", StartNs: 15, EndNs: 35, Parent: 1},
		{Name: "d.probe", StartNs: 0, EndNs: 50, Parent: -1, Op: -1, Probe: true},
	}
	want := []int64{40, 10, 30, 30, 20, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	totals := layerTotals(spans)
	if totals["b"].Calls != 3 || totals["b"].SelfNs != 70 || totals["b"].BusyNs != 90 {
		t.Errorf("layer b = %+v", totals["b"])
	}
	if totals["d"] != nil {
		t.Error("probe spans must stay out of layer totals")
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.start("x.y", -1, 0, false)
	if id != -1 || tr.end(id) != 0 || tr.count() != 0 || tr.durationsMs("x.y") != nil {
		t.Error("nil tracer must record nothing")
	}
	tr.add("x.z", time.Now(), time.Now(), -1, 0)
}

func TestArrivalScheduleSeeded(t *testing.T) {
	a := poissonSchedule(42, 400, 5*time.Second)
	b := poissonSchedule(42, 400, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds must give equal schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(43, 400, 5*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 5 s at 400/s", n)
	}
	for i, d := range a {
		if d >= 5*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v: out of order or past the horizon", i, d)
		}
	}
}

// Latency runs from the due time, not the send time, so generator
// lateness is charged to the job and reported separately.
func TestLatenessAccounting(t *testing.T) {
	ms := time.Millisecond
	job := timing{due: 10 * ms, sent: 12 * ms, done: 15 * ms}
	if job.latency() != 5*ms || job.late() != 2*ms {
		t.Errorf("latency %v late %v, want 5ms and 2ms", job.latency(), job.late())
	}
	ts := []timing{
		{due: 1 * ms, done: 2 * ms},
		{due: 2 * ms, done: 30 * ms}, // still running when the last job falls due
		{due: 20 * ms, done: 21 * ms},
	}
	if got := backlogAtEnd(ts); got != 1 {
		t.Errorf("backlog at end = %d, want 1", got)
	}
}

func TestWorkerGuard(t *testing.T) {
	if err := checkWorkers("workers", runtime.NumCPU()); err != nil {
		t.Errorf("nproc workers refused: %v", err)
	}
	if err := checkWorkers("workers", runtime.NumCPU()+1); err == nil {
		t.Error("more workers than cores must be refused")
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "ops_per_s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lat, steady, steady, unchanged},
		{"slower", lat, steady, []float64{120, 121, 119, 120, 122}, regressed},
		{"faster", lat, steady, []float64{80, 81, 79, 80, 82}, improved},
		{"rate down", rate, steady, []float64{80, 81, 79, 80, 82}, regressed},
		{"rate up", rate, steady, []float64{120, 121, 119, 120, 122}, improved},
		{"noisy", lat, steady, []float64{60, 150, 90, 130, 100}, unresolved},
		{"noisy but separated", lat, steady, []float64{150, 300, 200, 260, 180}, regressed},
		{"single runs", lat, []float64{100}, []float64{105}, unchanged},
	} {
		if got, _ := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
		}
	}
}

// BENCHMARK.json is rendered from the metric definitions; this keeps the
// committed file in step and inside the format's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloadDefs) < 2 || len(workloadDefs) > 8 {
		t.Errorf("%d workloads", len(workloadDefs))
	}
	for _, w := range workloadDefs {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if _, err := newRunner(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer()) < 1 || len(perLayer()) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer()))
	}
	hasSetup := false
	for _, d := range endToEnd {
		checkName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer() {
		checkName(d.Name)
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(committed))
	}
}

// Every workload end to end at a fraction of its size: set-up, a short
// timed phase, the probes, every metric present, every output correct.
// Latency-limit failures are not asserted on — the test shares the
// machine with the rest of `go test ./...`.
func TestSmokeAllWorkloads(t *testing.T) {
	outDir = t.TempDir()
	for _, def := range workloadDefs {
		for _, traced := range []bool{false, true} {
			w, err := newRunner(def.Name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runOne(w, runConfig{seed: 1, seconds: 0.4, traced: traced, setupReps: 1})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d wrong=%v", def.Name, traced, res.Correct, res.Attempted, res.Wrong)
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", def.Name, traced, d.Name, m)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, d.Name, m.Value)
				}
			}
			if traced {
				data, err := os.ReadFile(res.TraceFile)
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || tf.Workload != def.Name {
					t.Errorf("%s: trace file: %v, %d spans", def.Name, err, len(tf.Spans))
				}
			}
		}
	}
}
