package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDenseVsRevisedMILPProperty is the engine differential property: the
// dense tableau and the revised simplex must agree on status and (when
// optimal) objective for random MILPs, and both incumbents must be
// feasible in the original model. Swept across presolve on/off and worker
// counts so the warm-start and dive paths of both engines are exercised.
// Feasibility of both incumbents is checked against the original model
// with checkFeasible (shared with the presolve rehydration tests).
func TestDenseVsRevisedMILPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng, trial%2 == 0)
		for _, noPresolve := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				base := Options{Workers: workers, noPresolve: noPresolve}
				dOpts, rOpts := base, base
				dOpts.denseSimplex = true
				dense := mustSolveOpts(t, m, dOpts)
				revised := mustSolveOpts(t, m, rOpts)
				label := fmt.Sprintf("trial %d presolve=%v workers=%d", trial, !noPresolve, workers)
				if dense.Status != revised.Status {
					t.Fatalf("%s: dense status %v, revised status %v", label, dense.Status, revised.Status)
				}
				if dense.Status != Optimal {
					continue
				}
				diff := math.Abs(dense.Objective - revised.Objective)
				if diff > 1e-6*math.Max(1, math.Abs(dense.Objective)) {
					t.Fatalf("%s: dense objective %v, revised %v (diff %g)",
						label, dense.Objective, revised.Objective, diff)
				}
				checkFeasible(t, m, dense, label+" dense")
				checkFeasible(t, m, revised, label+" revised")
			}
		}
	}
}

// TestDenseVsRevisedLPProperty runs the same differential on pure LP
// relaxations (SolveLP path, no branching): status, objective, and
// feasibility of the returned point.
func TestDenseVsRevisedLPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 150
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng, true)
		dense := m.solveRelaxation(Options{denseSimplex: true})
		revised := m.solveRelaxation(Options{})
		label := fmt.Sprintf("trial %d", trial)
		if dense.Status != revised.Status {
			t.Fatalf("%s: dense LP status %v, revised %v", label, dense.Status, revised.Status)
		}
		if dense.Status != Optimal {
			continue
		}
		diff := math.Abs(dense.Objective - revised.Objective)
		if diff > 1e-6*math.Max(1, math.Abs(dense.Objective)) {
			t.Fatalf("%s: dense LP objective %v, revised %v (diff %g)",
				label, dense.Objective, revised.Objective, diff)
		}
		// LP relaxation: bounds and rows must hold; skip integrality.
		for i, v := range m.vars {
			for _, sol := range []Solution{dense, revised} {
				x := sol.Values[i]
				if x < v.lb-1e-6 || x > v.ub+1e-6 {
					t.Fatalf("%s: var %s = %v outside [%v, %v]", label, v.name, x, v.lb, v.ub)
				}
			}
		}
	}
}

// TestRevisedUnboundedFallsBackToDense: the revised engine never declares
// Unbounded itself (artificial boxes make that certificate unsound); the
// dense fallback must still surface the correct status.
func TestRevisedUnboundedFallsBackToDense(t *testing.T) {
	m := NewModel("unbounded", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	if err := m.AddConstraint("c", []Term{{x, 1}, {y, -1}}, LE, 5); err != nil {
		t.Fatal(err)
	}
	sol := m.SolveLP()
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want %v", sol.Status, Unbounded)
	}
}

// TestRevisedFreeVariables: free (two-sided infinite) variables go through
// the artificial-box machinery; the optimum here is finite and must be
// found exactly.
func TestRevisedFreeVariables(t *testing.T) {
	// min x + 2y with x + y = 4 and x − y = −2: the equality rows pin the
	// unique point (1, 3), objective 7, with both variables free.
	m := NewModel("free", Minimize)
	x := m.AddVar("x", math.Inf(-1), math.Inf(1), 1)
	y := m.AddVar("y", math.Inf(-1), math.Inf(1), 2)
	if err := m.AddConstraint("e1", []Term{{x, 1}, {y, 1}}, EQ, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint("e2", []Term{{x, 1}, {y, -1}}, EQ, -2); err != nil {
		t.Fatal(err)
	}
	sol := m.SolveLP()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Unique point x=1, y=3 → objective 7.
	if math.Abs(sol.Objective-7) > 1e-6 {
		t.Fatalf("objective = %v, want 7", sol.Objective)
	}
	if math.Abs(sol.Values[x]-1) > 1e-6 || math.Abs(sol.Values[y]-3) > 1e-6 {
		t.Fatalf("point = (%v, %v), want (1, 3)", sol.Values[x], sol.Values[y])
	}
}

// TestMaxLPIterSurfacesIterLimit: a tiny per-LP pivot budget must surface
// IterLimit instead of silently reporting Optimal — the bug this PR fixes.
func TestMaxLPIterSurfacesIterLimit(t *testing.T) {
	m := branchyMIP()
	sol, err := m.SolveWithOptions(Options{MaxLPIter: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want %v", sol.Status, IterLimit)
	}
	// Both engines must agree on the surfaced status.
	sol, err = m.SolveWithOptions(Options{MaxLPIter: 1, Workers: 1, denseSimplex: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("dense status = %v, want %v", sol.Status, IterLimit)
	}
}

// TestRevisedRefactorization forces enough pivots on a single LP to cross
// the eta-file refactorization threshold (luMaxEtas) so the periodic
// refactor path runs, and checks the optimum against the dense engine.
func TestRevisedRefactorization(t *testing.T) {
	// A staircase LP with ~3·luMaxEtas rows: each dual pivot adds an eta,
	// so the solve must refactor at least twice.
	n := 3 * luMaxEtas
	m := NewModel("staircase", Minimize)
	vars := make([]VarID, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddVar(fmt.Sprintf("x%d", i), 0, 100, 1)
	}
	for i := 0; i < n; i++ {
		terms := []Term{{vars[i], 1}}
		if i > 0 {
			terms = append(terms, Term{vars[i-1], 0.5})
		}
		if err := m.AddConstraint(fmt.Sprintf("r%d", i), terms, GE, float64(1+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	revised := m.solveRelaxation(Options{})
	dense := m.solveRelaxation(Options{denseSimplex: true})
	if revised.Status != Optimal || dense.Status != Optimal {
		t.Fatalf("status: revised %v, dense %v", revised.Status, dense.Status)
	}
	if math.Abs(revised.Objective-dense.Objective) > 1e-6*math.Max(1, math.Abs(dense.Objective)) {
		t.Fatalf("objective: revised %v, dense %v", revised.Objective, dense.Objective)
	}
	if revised.SimplexIters < luMaxEtas {
		t.Fatalf("SimplexIters = %d, want >= %d (refactor path not exercised)", revised.SimplexIters, luMaxEtas)
	}
}
