package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's judgement of one end-to-end metric on one
// workload.
type verdict string

const (
	unchanged  verdict = "ok"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge compares the medians of a (parent) and b (change) for one metric.
// The change regresses when its median is worse than the parent's by more
// than the bound. When either side's run-to-run spread (quartile distance
// over median, needs >= 4 runs) is wider than the bound, the pair is
// unresolved — unless every run of one side beats every run of the other,
// which no spread can explain away.
func judge(d metricDef, a, b []float64) (verdict, float64) {
	ma, mb := sample(a).median(), sample(b).median()
	if ma == 0 {
		return unresolved, 0
	}
	worse := (mb - ma) / ma // share by which b is worse, for "lower is better"
	if d.Better == higher {
		worse = (ma - mb) / ma
	}
	noisy := false
	for _, side := range [][]float64{a, b} {
		if s, ok := quartileSpread(side); ok && len(side) >= 4 && s > d.Bound {
			noisy = true
		}
	}
	if noisy && !separated(a, b) {
		return unresolved, worse
	}
	switch {
	case worse > d.Bound:
		return regressed, worse
	case worse < -d.Bound:
		return improved, worse
	}
	return unchanged, worse
}

// separated reports whether every run of one side is better than every
// run of the other.
func separated(a, b []float64) bool {
	sa, sb := sample(a).sorted(), sample(b).sorted()
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects a metric over a workload's untraced runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var vals []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// failedShare is failed ÷ attempted ops over a workload's untraced runs;
// a run flagged incorrect counts at least one failure.
func (s *resultSet) failedShare(workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range s.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		attempted += r.Attempted
		failed += r.Failed
		if !r.Correct && r.Failed == 0 {
			failed++
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints one row per end-to-end metric × workload and
// reports whether anything regressed: a metric past its bound, or any
// rise in the share of failed ops.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  nproc %d  %s\n", pathA, a.Machine.Commit, a.Machine.Nproc, a.Machine.GoVersion)
	fmt.Fprintf(w, "b: %s  commit %s  nproc %d  %s\n", pathB, b.Machine.Commit, b.Machine.Nproc, b.Machine.GoVersion)
	if a.Machine.Nproc != b.Machine.Nproc || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: the two sets differ in cores or run length; timings do not compare\n")
	}
	bad := false
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse", "bound", "verdict")
	for _, def := range workloadDefs {
		for _, d := range endToEnd {
			va, vb := a.values(def.Name, d.Name), b.values(def.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := judge(d, va, vb)
			if v == regressed {
				bad = true
			}
			fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", def.Name, d.Name,
				sample(va).median(), sample(vb).median(), worse*100, d.Bound*100, v)
		}
		fa, fb := a.failedShare(def.Name), b.failedShare(def.Name)
		v := unchanged
		if fb > fa {
			v, bad = regressed, true
		}
		fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %8s %6s  %s\n", def.Name, "failed_share", fa, fb, "", "any", v)
	}
	return bad, nil
}
