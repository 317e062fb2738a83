package solver

import (
	"math"
	"math/rand"
	"testing"
)

// presolveOn and presolveOff are the paired configurations the ablation
// tests compare: identical search settings, presolve toggled.
var (
	presolveOn  = Options{Workers: 1}
	presolveOff = Options{Workers: 1, noPresolve: true}
)

// TestPresolveSingletonFold: a one-term row folds into the variable's
// bound and disappears; the optimum and reported value are unchanged.
func TestPresolveSingletonFold(t *testing.T) {
	m := NewModel("singleton", Maximize)
	x := m.AddIntVar("x", 0, 10, 1)
	mustCon(t, m, "cap", []Term{{x, 1}}, LE, 4)
	sol := mustSolveOpts(t, m, presolveOn)
	if sol.Status != Optimal || sol.Objective != 4 {
		t.Fatalf("status=%v obj=%v, want optimal 4", sol.Status, sol.Objective)
	}
	if sol.Value(x) != 4 {
		t.Errorf("x = %v, want 4", sol.Value(x))
	}
	if sol.PresolveRows != 1 {
		t.Errorf("PresolveRows = %d, want 1 (singleton row folded)", sol.PresolveRows)
	}
}

// TestPresolveRedundantRow: a row satisfied by the bounds alone is
// removed; the feasible set and optimum are untouched.
func TestPresolveRedundantRow(t *testing.T) {
	m := NewModel("redundant", Maximize)
	x := m.AddIntVar("x", 0, 3, 2)
	y := m.AddIntVar("y", 0, 3, 1)
	mustCon(t, m, "slack", []Term{{x, 1}, {y, 1}}, LE, 100)
	mustCon(t, m, "tight", []Term{{x, 1}, {y, 2}}, LE, 7)
	sol := mustSolveOpts(t, m, presolveOn)
	ref := mustSolveOpts(t, m, presolveOff)
	if sol.Status != Optimal || sol.Objective != ref.Objective {
		t.Fatalf("presolve obj=%v status=%v, no-presolve obj=%v", sol.Objective, sol.Status, ref.Objective)
	}
	if sol.PresolveRows < 1 {
		t.Errorf("PresolveRows = %d, want ≥ 1 (redundant row dropped)", sol.PresolveRows)
	}
	if ref.PresolveRows != 0 || ref.PresolveCols != 0 {
		t.Errorf("noPresolve counters = %d/%d, want 0/0", ref.PresolveRows, ref.PresolveCols)
	}
}

// TestPresolveDominatedRow: with continuous variables (so bound
// propagation cannot shrink the box first), x+2y ≤ 9 is dominated by
// x+y ≤ 3 over [0,5]² — satisfied by every point the tighter row admits
// — and is removed even though its own max activity (15) exceeds 9.
func TestPresolveDominatedRow(t *testing.T) {
	m := NewModel("dominated", Maximize)
	x := m.AddVar("x", 0, 5, 2)
	y := m.AddVar("y", 0, 5, 1)
	mustCon(t, m, "tight", []Term{{x, 1}, {y, 1}}, LE, 3)
	mustCon(t, m, "loose", []Term{{x, 1}, {y, 2}}, LE, 9)
	sol := mustSolveOpts(t, m, presolveOn)
	ref := mustSolveOpts(t, m, presolveOff)
	if sol.Status != Optimal || sol.Objective != ref.Objective {
		t.Fatalf("presolve obj=%v status=%v, no-presolve obj=%v", sol.Objective, sol.Status, ref.Objective)
	}
	if sol.PresolveRows != 1 {
		t.Errorf("PresolveRows = %d, want 1 (dominated row dropped)", sol.PresolveRows)
	}
}

// TestPresolveIntegerBoundRounding: fractional bounds on integer
// variables snap to the integer grid in presolve, and the optimum
// matches the branch-and-bound answer without presolve.
func TestPresolveIntegerBoundRounding(t *testing.T) {
	m := NewModel("rounding", Maximize)
	m.AddIntVar("x", 0.4, 2.6, 1)
	sol := mustSolveOpts(t, m, presolveOn)
	ref := mustSolveOpts(t, m, presolveOff)
	if sol.Status != Optimal || sol.Objective != 2 {
		t.Fatalf("status=%v obj=%v, want optimal 2", sol.Status, sol.Objective)
	}
	if ref.Objective != sol.Objective || ref.Status != sol.Status {
		t.Errorf("no-presolve disagrees: obj=%v status=%v", ref.Objective, ref.Status)
	}
}

// TestPresolveDualFix: a minimized variable with positive cost and no
// constraint pushing it up sits at its lower bound; presolve fixes and
// removes it before any simplex runs.
func TestPresolveDualFix(t *testing.T) {
	m := NewModel("dualfix", Minimize)
	x := m.AddVar("x", 1, 5, 3)
	y := m.AddIntVar("y", 0, 4, 1)
	mustCon(t, m, "need", []Term{{y, 1}}, GE, 2)
	sol := mustSolveOpts(t, m, presolveOn)
	if sol.Status != Optimal || sol.Objective != 5 { // 3·1 + 1·2
		t.Fatalf("status=%v obj=%v, want optimal 5", sol.Status, sol.Objective)
	}
	if sol.Value(x) != 1 {
		t.Errorf("x = %v, want fixed at lower bound 1", sol.Value(x))
	}
	if sol.PresolveCols < 1 {
		t.Errorf("PresolveCols = %d, want ≥ 1 (dual fix)", sol.PresolveCols)
	}
}

// TestPresolveFixedSubstitution: a variable with collapsed bounds is
// substituted out of every row, and postsolve reports its forced value
// at the original index.
func TestPresolveFixedSubstitution(t *testing.T) {
	m := NewModel("fixed", Maximize)
	x := m.AddVar("x", 2, 2, 1)
	y := m.AddIntVar("y", 0, 10, 1)
	mustCon(t, m, "cap", []Term{{x, 1}, {y, 1}}, LE, 5)
	sol := mustSolveOpts(t, m, presolveOn)
	if sol.Status != Optimal || sol.Objective != 5 { // x=2, y=3
		t.Fatalf("status=%v obj=%v, want optimal 5", sol.Status, sol.Objective)
	}
	if sol.Value(x) != 2 || sol.Value(y) != 3 {
		t.Errorf("values x=%v y=%v, want 2 and 3", sol.Value(x), sol.Value(y))
	}
	if sol.PresolveCols < 1 {
		t.Errorf("PresolveCols = %d, want ≥ 1 (fixed variable removed)", sol.PresolveCols)
	}
}

// TestPresolveDuplicateColumnMerge: two columns identical in every row,
// the objective, and integrality merge into one variable over summed
// bounds; postsolve splits the merged value back lexicographically
// minimally against the original bounds.
func TestPresolveDuplicateColumnMerge(t *testing.T) {
	m := NewModel("dupcol", Maximize)
	x := m.AddIntVar("x", 0, 3, 1)
	y := m.AddIntVar("y", 0, 3, 1)
	mustCon(t, m, "cap", []Term{{x, 1}, {y, 1}}, LE, 4)
	sol := mustSolveOpts(t, m, presolveOn)
	if sol.Status != Optimal || sol.Objective != 4 {
		t.Fatalf("status=%v obj=%v, want optimal 4", sol.Status, sol.Objective)
	}
	// Lex-min split of the merged value 4: x takes max(0, 4−3) = 1, y
	// takes the rest.
	if sol.Value(x) != 1 || sol.Value(y) != 3 {
		t.Errorf("split x=%v y=%v, want lex-min 1 and 3", sol.Value(x), sol.Value(y))
	}
	if sol.PresolveCols < 1 {
		t.Errorf("PresolveCols = %d, want ≥ 1 (duplicate column merged)", sol.PresolveCols)
	}
}

// TestPresolveDetectsInfeasible: contradictory bound implications are
// caught in presolve — Infeasible with zero nodes and zero pivots, no
// search ever launched.
func TestPresolveDetectsInfeasible(t *testing.T) {
	m := NewModel("infeasible", Maximize)
	x := m.AddIntVar("x", 0, 5, 1)
	mustCon(t, m, "need", []Term{{x, 1}}, GE, 7)
	sol := mustSolveOpts(t, m, presolveOn)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	if sol.Nodes != 0 || sol.SimplexIters != 0 {
		t.Errorf("nodes=%d pivots=%d, want 0/0 (detected before any solve)", sol.Nodes, sol.SimplexIters)
	}
	ref := mustSolveOpts(t, m, presolveOff)
	if ref.Status != Infeasible {
		t.Errorf("no-presolve status = %v, want infeasible", ref.Status)
	}
}

// TestPresolveUnboundedPreserved: dual fixing must not fix a variable at
// an infinite bound — an unbounded model stays visibly unbounded.
func TestPresolveUnboundedPreserved(t *testing.T) {
	m := NewModel("unbounded", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, 4, 1)
	mustCon(t, m, "cap", []Term{{y, 1}}, LE, 3)
	sol := mustSolveOpts(t, m, presolveOn)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded (x has no upper bound)", sol.Status)
	}
	_ = x
}

// checkFeasible verifies a solution's values against the ORIGINAL model:
// within bounds, integral where required, and satisfying every
// constraint. This is the postsolve rehydration contract.
func checkFeasible(t *testing.T, m *Model, sol Solution, label string) {
	t.Helper()
	if len(sol.Values) != len(m.vars) {
		t.Fatalf("%s: %d values for %d original variables", label, len(sol.Values), len(m.vars))
	}
	const tol = 1e-6
	for i, v := range m.vars {
		x := sol.Values[i]
		if x < v.lb-tol || x > v.ub+tol {
			t.Errorf("%s: %s = %v outside [%v, %v]", label, v.name, x, v.lb, v.ub)
		}
		if v.integer && math.Abs(x-math.Round(x)) > tol {
			t.Errorf("%s: %s = %v not integral", label, v.name, x)
		}
	}
	for _, c := range m.cons {
		act := 0.0
		for _, term := range c.terms {
			act += term.Coef * sol.Values[term.Var]
		}
		rtol := tol * math.Max(1, math.Abs(c.rhs))
		switch c.rel {
		case LE:
			if act > c.rhs+rtol {
				t.Errorf("%s: row %s activity %v > rhs %v", label, c.name, act, c.rhs)
			}
		case GE:
			if act < c.rhs-rtol {
				t.Errorf("%s: row %s activity %v < rhs %v", label, c.name, act, c.rhs)
			}
		case EQ:
			if math.Abs(act-c.rhs) > rtol {
				t.Errorf("%s: row %s activity %v ≠ rhs %v", label, c.name, act, c.rhs)
			}
		}
	}
}

// TestPresolveMatchesNoPresolveProperty is the presolve correctness
// property: on randomized pure-integer programs, presolve on and off
// agree exactly on status and objective (integer data makes the optimum
// exactly representable), and the rehydrated values are feasible for the
// original constraints. Run under -race in CI.
func TestPresolveMatchesNoPresolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 40; trial++ {
		m := randomMILP(rng, false)
		on := mustSolveOpts(t, m, presolveOn)
		off := mustSolveOpts(t, m, presolveOff)
		if on.Status != off.Status {
			t.Fatalf("trial %d: presolve status %v, no-presolve %v", trial, on.Status, off.Status)
		}
		if on.Status != Optimal {
			continue
		}
		if on.Objective != off.Objective {
			t.Fatalf("trial %d: presolve objective %v != no-presolve %v (diff %g)",
				trial, on.Objective, off.Objective, on.Objective-off.Objective)
		}
		checkFeasible(t, m, on, "presolve on")
		checkFeasible(t, m, off, "presolve off")
	}
}

// TestPresolveMatchesNoPresolveMixedProperty is the same sweep on models
// with continuous variables, compared within a 1e-9 relative tolerance
// (alternate optimal vertices differ in ulps on the continuous part).
func TestPresolveMatchesNoPresolveMixedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := randomMILP(rng, true)
		on := mustSolveOpts(t, m, presolveOn)
		off := mustSolveOpts(t, m, presolveOff)
		if on.Status != off.Status {
			t.Fatalf("trial %d: presolve status %v, no-presolve %v", trial, on.Status, off.Status)
		}
		if on.Status != Optimal {
			continue
		}
		diff := math.Abs(on.Objective - off.Objective)
		if diff > 1e-9*math.Max(1, math.Abs(off.Objective)) {
			t.Fatalf("trial %d: presolve objective %v != no-presolve %v (diff %g)",
				trial, on.Objective, off.Objective, diff)
		}
		checkFeasible(t, m, on, "presolve on")
	}
}
