package solver

import (
	"context"
	"math"
	"testing"
)

// hardKnapsack builds a MIP with enough branching to keep several workers
// busy: a 2-constraint knapsack over 14 binaries with correlated weights,
// whose LP relaxation is fractional almost everywhere. The profits are
// deliberately non-integral and non-uniform so the objective bound
// rounding cannot lift the LP bounds — the limit and concurrency tests
// below need the full tree, not the shortcut.
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

// TestWorkersDeterministicObjective asserts identical Objective and Status
// for Workers ∈ {1, 2, 8} when the search runs to proven optimality. Run
// under -race in CI, this also exercises the shared-frontier locking.
func TestWorkersDeterministicObjective(t *testing.T) {
	ref := mustSolveOpts(t, hardKnapsack(t), Options{Workers: 1})
	if ref.Status != Optimal {
		t.Fatalf("reference solve status = %v, want optimal", ref.Status)
	}
	if ref.Workers != 1 {
		t.Errorf("reference Solution.Workers = %d, want 1", ref.Workers)
	}
	if ref.Nodes <= 1 {
		t.Fatalf("reference solve explored %d nodes; instance too easy to exercise concurrency", ref.Nodes)
	}
	for _, w := range []int{2, 8} {
		s := mustSolveOpts(t, hardKnapsack(t), Options{Workers: w})
		if s.Status != ref.Status {
			t.Errorf("Workers=%d status = %v, want %v", w, s.Status, ref.Status)
		}
		if s.Objective != ref.Objective {
			t.Errorf("Workers=%d objective = %v, want %v", w, s.Objective, ref.Objective)
		}
		if s.Workers != w {
			t.Errorf("Workers=%d Solution.Workers = %d", w, s.Workers)
		}
		if s.Gap != 0 {
			t.Errorf("Workers=%d proven-optimal Gap = %v, want 0", w, s.Gap)
		}
	}
}

// TestWorkersCanonicalTieBreak: when two workers discover equal-objective
// incumbents in either order, the canonical rule (lexicographically
// smaller Values) picks the same winner, so the reported point does not
// depend on which worker got there first.
func TestWorkersCanonicalTieBreak(t *testing.T) {
	a := Solution{Status: Optimal, Objective: 1, Values: []float64{0, 1}}
	b := Solution{Status: Optimal, Objective: 1, Values: []float64{1, 0}}
	for name, order := range map[string][2]Solution{"a-first": {a, b}, "b-first": {b, a}} {
		s := &bbSearch{m: NewModel("tie", Maximize), min: false}
		s.acceptIncumbentLocked(order[0])
		s.acceptIncumbentLocked(order[1])
		if got := s.incumbent.Values; got[0] != 0 || got[1] != 1 {
			t.Errorf("%s: incumbent values = %v, want canonical [0 1]", name, got)
		}
	}
	// A strictly better objective always displaces the incumbent, lex
	// order notwithstanding.
	s := &bbSearch{m: NewModel("tie", Maximize), min: false}
	s.acceptIncumbentLocked(a)
	if !s.acceptIncumbentLocked(Solution{Status: Optimal, Objective: 2, Values: []float64{1, 1}}) {
		t.Error("strictly better incumbent rejected")
	}
	if s.incumbent.Objective != 2 {
		t.Errorf("incumbent objective = %v, want 2", s.incumbent.Objective)
	}
}

// TestWorkersCancellation: a pre-cancelled context stops the search at the
// first node boundary with LimitReached and no nodes expanded.
func TestWorkersCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		s := mustSolveOpts(t, hardKnapsack(t), Options{Workers: w, Context: ctx})
		if s.Status != LimitReached {
			t.Errorf("Workers=%d cancelled status = %v, want limit-reached", w, s.Status)
		}
		if s.Nodes != 0 {
			t.Errorf("Workers=%d cancelled search expanded %d nodes, want 0", w, s.Nodes)
		}
	}
}

// TestWorkersNodeLimit: MaxNodes stops a parallel search with LimitReached
// and a finite proven gap when an incumbent exists, without exceeding the
// budget by more than the number of in-flight workers.
func TestWorkersNodeLimit(t *testing.T) {
	for _, w := range []int{1, 4} {
		s := mustSolveOpts(t, hardKnapsack(t), Options{Workers: w, MaxNodes: 5})
		if s.Status != LimitReached {
			t.Errorf("Workers=%d status = %v, want limit-reached", w, s.Status)
		}
		// The budget check happens before each pop, so at most (w-1)
		// already-in-flight nodes can push the count past MaxNodes.
		if s.Nodes < 1 || s.Nodes > 5+w-1 {
			t.Errorf("Workers=%d nodes = %d, want within [1, %d]", w, s.Nodes, 5+w-1)
		}
		if s.Values != nil && math.IsNaN(s.Gap) {
			t.Errorf("Workers=%d incumbent with NaN gap", w)
		}
	}
}

// TestWorkersDefault: Workers ≤ 0 resolves to GOMAXPROCS and is reported
// on the solution.
func TestWorkersDefault(t *testing.T) {
	s := mustSolveOpts(t, hardKnapsack(t), Options{})
	if s.Workers < 1 {
		t.Errorf("default Solution.Workers = %d, want ≥ 1", s.Workers)
	}
	if s.Status != Optimal {
		t.Errorf("status = %v, want optimal", s.Status)
	}
}

// TestWorkersTBackboneObjective solves a T-backbone planning instance — the
// model family the sparsity-aware kernels serve — at 1 and 2 workers and
// requires the same proven optimum. Under -race this is the check that the
// row-wise PRICE reads only the shared immutable model rows and that every
// kernel work vector (position queue, paired-BTRAN scratch) is per-worker.
func TestWorkersTBackboneObjective(t *testing.T) {
	ref := mustSolveOpts(t, planningModel(t, 1, 32, 1, 24), Options{Workers: 1, noStart: true})
	if ref.Status != Optimal {
		t.Fatalf("Workers=1 status = %v, want optimal", ref.Status)
	}
	if ref.PresolveCols == 0 || ref.SimplexIters == 0 {
		t.Fatalf("instance exercised no duplicate merge (%d cols) or no pivots (%d)", ref.PresolveCols, ref.SimplexIters)
	}
	two := mustSolveOpts(t, planningModel(t, 1, 32, 1, 24), Options{Workers: 2, noStart: true})
	if two.Status != Optimal {
		t.Fatalf("Workers=2 status = %v, want optimal", two.Status)
	}
	if math.Abs(two.Objective-ref.Objective) > 1e-9 {
		t.Errorf("Workers=2 objective = %v, Workers=1 = %v", two.Objective, ref.Objective)
	}
}
