package solver

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sameBits reports whether a and b hold the same floats bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPooledWorkspaceIsolation: the simplex workspaces pass from solve to
// solve through a pool, so solves of differently sized models interleaved
// on several goroutines hand each other workspaces sized, filled and left
// behind by another model. Every answer must still be bit for bit the
// model's solo answer, every field of the Solution included — planning
// MIPs at 16, 32 and 64 pixels with and without a MIP start, two branching
// MIPs, a pure LP — and the Values of a returned Solution must not change
// under later solves.
func TestPooledWorkspaceIsolation(t *testing.T) {
	type job struct {
		name string
		m    *Model
		lp   bool
	}
	var jobs []job
	for _, px := range []int{16, 32, 64} {
		cold := tightPlanningModel(t, 1, px, 1, 12)
		warm := tightPlanningModel(t, 1, px, 1, 12)
		warm.SetStart(mustSolveOpts(t, cold, Options{}).Values)
		jobs = append(jobs,
			job{name: fmt.Sprintf("plan %d px", px), m: cold},
			job{name: fmt.Sprintf("plan %d px from its optimum", px), m: warm})
	}
	jobs = append(jobs,
		job{name: "branchy", m: branchyMIP()},
		job{name: "knapsack", m: hardKnapsack(t)},
		job{name: "LP of plan 64 px", m: tightPlanningModel(t, 1, 64, 1, 12), lp: true})
	solve := func(j job) Solution {
		if j.lp {
			return j.m.SolveLP()
		}
		sol, err := j.m.SolveWithOptions(Options{})
		if err != nil {
			t.Error(err)
		}
		return sol
	}
	solo := make([]Solution, len(jobs))
	for i, j := range jobs {
		solo[i] = solve(j)
		if solo[i].Status != Optimal || solo[i].Values == nil {
			t.Fatalf("%s: solo %v", j.name, solo[i].Status)
		}
	}
	if solo[len(jobs)-3].Nodes < 2 || solo[len(jobs)-2].Nodes < 2 {
		t.Fatal("the branching MIPs did not branch")
	}

	type kept struct {
		job    int
		sol    Solution
		values []float64 // copied when the solve returned
	}
	const goroutines, rounds = 4, 3
	results := make([][]kept, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range jobs {
					i := (k*(g+1) + r + g) % len(jobs) // each goroutine its own order
					sol := solve(jobs[i])
					results[g] = append(results[g], kept{job: i, sol: sol, values: append([]float64(nil), sol.Values...)})
				}
			}
		}(g)
	}
	wg.Wait()
	for _, rs := range results {
		for _, r := range rs {
			j, want := jobs[r.job], solo[r.job]
			got := r.sol
			if !sameBits(r.values, want.Values) || got.Status != want.Status ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || got.Gap != want.Gap {
				t.Errorf("%s: %v at %v differs from the solo solve's %v at %v", j.name, got.Status, got.Objective, want.Status, want.Objective)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: interleaved solve differs from the solo solve:\n got %+v\nwant %+v", j.name, got, want)
			}
			if !sameBits(got.Values, r.values) {
				t.Errorf("%s: Values changed after the solve returned", j.name)
			}
		}
	}
}

// TestUnnamedModelDiagnostics: a model built without names, as the
// planning and restoration builders build theirs, is still diagnosable —
// a dropped MIP start names a bad column x<id> and a violated row
// r<index>, and AddConstraint's unknown-variable error names the row it
// was adding the same way.
func TestUnnamedModelDiagnostics(t *testing.T) {
	build := func() *Model {
		m := NewModel("", Maximize)
		x := m.AddBinVar("", 3)
		y := m.AddIntVar("", 0, 4, 2)
		mustCon(t, m, "", []Term{{x, 1}, {y, 1}}, LE, 4)
		mustCon(t, m, "", []Term{{x, 2}, {y, 1}}, LE, 3)
		return m
	}
	for _, tc := range []struct {
		start []float64
		want  string
	}{
		{[]float64{0, 5}, "x1 = 5 outside [0, 4]"},
		{[]float64{0.5, 0}, "x0 = 0.5 is not integral"},
		{[]float64{1, 2}, "row r1 activity 4 violates <= 3"},
	} {
		m := build()
		m.SetStart(tc.start)
		var logged []string
		if _, err := m.SolveWithOptions(Options{Logf: func(format string, args ...interface{}) {
			logged = append(logged, fmt.Sprintf(format, args...))
		}}); err != nil {
			t.Fatal(err)
		}
		if len(logged) == 0 || !strings.Contains(logged[0], "MIP start dropped: "+tc.want) {
			t.Errorf("start %v: log %q, want the drop reported as %q", tc.start, logged, tc.want)
		}
	}
	m := build()
	err := m.AddConstraint("", []Term{{VarID(0), 1}, {VarID(7), 1}}, LE, 1)
	if err == nil || !strings.Contains(err.Error(), "constraint r2 references unknown variable 7") {
		t.Errorf("AddConstraint error %v, want it to name row r2", err)
	}
}
