package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. The layer is the
// part of Name before the first dot ("plan.SolveExact" → plan). Parent is
// the index of the enclosing span or -1; Op is the workload op the span
// belongs to or -1 for set-up and probes. Probe spans replay an op's
// inputs against a layer the op reached only indirectly; they are
// excluded from self-time sums.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Probe   bool   `json:"probe,omitempty"`
}

func (s span) durNs() int64 { return s.EndNs - s.StartNs }

// tracer appends spans to an in-memory slice. A nil tracer records
// nothing: untraced runs go through the same code paths and pay one nil
// check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index (-1 when untraced).
func (t *tracer) start(name string, parent, op int, probe bool) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: now, Parent: parent, Op: op, Probe: probe})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	d := now - t.spans[id].StartNs
	t.mu.Unlock()
	return time.Duration(d)
}

// add records a span whose interval was measured elsewhere (a server-side
// timestamp pair, say), relative to the tracer's origin.
func (t *tracer) add(name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span, its duration minus the part of its
// interval its direct children cover. Overlapping children (parallel
// calls) are merged first, and children are clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, curEnd := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < curEnd {
				lo = curEnd
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				curEnd = hi
			}
		}
		out[i] = s.durNs() - covered
	}
	return out
}

// layerTotal sums calls, busy time and self time of one layer over the
// timed phase: set-up and probe spans (no op) are left out.
type layerTotal struct {
	Calls  int   `json:"calls"`
	BusyNs int64 `json:"busy_ns"`
	SelfNs int64 `json:"self_ns"`
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

func layerTotals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i, s := range spans {
		if s.Probe || s.Op < 0 {
			continue
		}
		lt := out[layerOf(s.Name)]
		if lt == nil {
			lt = &layerTotal{}
			out[layerOf(s.Name)] = lt
		}
		lt.Calls++
		lt.BusyNs += s.durNs()
		lt.SelfNs += self[i]
	}
	return out
}

// durationsMs collects the durations of every timed-phase span with the
// name (set-up and probe spans carry no op), in milliseconds.
func (t *tracer) durationsMs(name string) sample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out sample
	for _, s := range t.spans {
		if s.Name == name && s.Op >= 0 {
			out = append(out, float64(s.durNs())/1e6)
		}
	}
	return out
}

// bookkeepingCost times n start/end pairs on a scratch tracer: what
// recording this run's spans cost, measured rather than assumed.
func bookkeepingCost(n int) time.Duration {
	scratch := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.start("bench.calibrate", -1, -1, false))
	}
	return time.Since(t0)
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Machine  machine                `json:"machine"`
	Layers   map[string]*layerTotal `json:"layers"`
	Spans    []span                 `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Machine: machineInfo(),
		Layers: layerTotals(spans), Spans: spans,
	})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
