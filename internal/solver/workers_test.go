package solver

import (
	"context"
	"math"
	"strings"
	"testing"
)

// hardKnapsack builds a MIP with enough branching to exercise the search:
// a 2-constraint knapsack over 14 binaries with correlated weights, whose
// LP relaxation is fractional almost everywhere. The profits are
// deliberately non-integral and non-uniform so the objective bound
// rounding cannot lift the LP bounds — the limit tests below need the full
// tree, not the shortcut.
func hardKnapsack(t *testing.T) *Model {
	t.Helper()
	m := NewModel("hard-knapsack", Maximize)
	profits := []float64{9.1, 11.4, 13.2, 15.3, 8.6, 12.1, 6.3, 7.2, 14.6, 10.3, 5.1, 16.4, 4.2, 3.1}
	w1 := []float64{6, 7, 8, 9, 5, 7, 4, 5, 9, 6, 3, 10, 3, 2}
	w2 := []float64{3, 5, 4, 7, 6, 2, 5, 3, 4, 7, 2, 6, 4, 1}
	vars := make([]VarID, len(profits))
	for i, p := range profits {
		vars[i] = m.AddBinVar("x", p)
	}
	t1 := make([]Term, len(vars))
	t2 := make([]Term, len(vars))
	for i, v := range vars {
		t1[i] = Term{Var: v, Coef: w1[i]}
		t2[i] = Term{Var: v, Coef: w2[i]}
	}
	mustCon(t, m, "cap1", t1, LE, 40)
	mustCon(t, m, "cap2", t2, LE, 28)
	return m
}

// TestWorkersCancellation: a context cancelled mid-search, here the moment
// the first incumbent is found, stops the search at the next node
// boundary: LimitReached with that incumbent and a finite proven gap, and
// no node expanded after the cancel — whatever the deprecated
// Options.Workers asks for. (A context cancelled before the solve stops
// the root LP: TestMIPCancellationMidLP.)
func TestWorkersCancellation(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		atNode := -1
		s := mustSolveOpts(t, hardKnapsack(t), Options{Workers: w, Context: ctx, Logf: func(format string, args ...interface{}) {
			if atNode < 0 && strings.HasPrefix(format, "solver: incumbent") {
				atNode = args[1].(int)
				cancel()
			}
		}})
		cancel()
		if atNode < 0 {
			t.Fatalf("Workers=%d: no incumbent logged; status %v after %d nodes", w, s.Status, s.Nodes)
		}
		if s.Status != LimitReached || s.Nodes != atNode {
			t.Errorf("Workers=%d: %v after %d nodes, want limit-reached after the %d that found the incumbent", w, s.Status, s.Nodes, atNode)
		}
		if s.Values == nil || !(s.Gap > 0) || math.IsInf(s.Gap, 0) {
			t.Errorf("Workers=%d: values %v at gap %v, want the incumbent with a finite proven gap", w, s.Values, s.Gap)
		}
	}
}

// TestWorkersNodeLimit: MaxNodes is exact — the search stops with
// LimitReached after expanding exactly MaxNodes nodes, with no in-flight
// slack whatever the deprecated Options.Workers asks for.
func TestWorkersNodeLimit(t *testing.T) {
	for _, w := range []int{1, 4} {
		s := mustSolveOpts(t, hardKnapsack(t), Options{Workers: w, MaxNodes: 5})
		if s.Status != LimitReached || s.Nodes != 5 {
			t.Errorf("Workers=%d: %v after %d nodes, want limit-reached after 5", w, s.Status, s.Nodes)
		}
	}
}
