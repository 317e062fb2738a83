package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomMILP builds a small random integer program with integer data: a
// mix of knapsack-style (≤) and covering-style (≥) rows over bounded
// integer variables — plus, when allowCont is set, an occasional
// continuous variable. With pure integer variables and integer
// coefficients the optimal objective is exactly representable, so solver
// variants can be compared with ==; continuous variables inject LP
// roundoff (alternate optimal bases differ in ulps), so mixed models are
// compared within tolerance instead.
func randomMILP(rng *rand.Rand, allowCont bool) *Model {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	m := NewModel("prop", sense)
	n := 4 + rng.Intn(9) // 4..12 variables
	vars := make([]VarID, n)
	for i := 0; i < n; i++ {
		obj := float64(rng.Intn(19) - 9)
		ub := float64(1 + rng.Intn(4))
		if allowCont && rng.Intn(5) == 0 {
			vars[i] = m.AddVar(fmt.Sprintf("c%d", i), 0, ub, obj)
		} else {
			vars[i] = m.AddIntVar(fmt.Sprintf("x%d", i), 0, ub, obj)
		}
	}
	rows := 2 + rng.Intn(4) // 2..5 constraints
	for r := 0; r < rows; r++ {
		terms := make([]Term, 0, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			c := float64(rng.Intn(7) - 2) // -2..4, zeros dropped by AddConstraint
			if c != 0 {
				terms = append(terms, Term{Var: vars[i], Coef: c})
				sum += c
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := LE
		// Keep ≥ rows satisfiable at reasonable levels and ≤ rows binding.
		rhs := float64(rng.Intn(10) + 1)
		if rng.Intn(3) == 0 && sum > 0 {
			rel = GE
			rhs = float64(rng.Intn(int(sum) + 1))
		}
		if err := m.AddConstraint(fmt.Sprintf("r%d", r), terms, rel, rhs); err != nil {
			panic(err)
		}
	}
	return m
}

// TestWarmStartMatchesColdProperty is the warm-start correctness property:
// on randomized small pure-integer programs, every (worker count × warm vs
// cold) configuration must return the exact status and the bit-identical
// objective of the exact reference — incumbent objectives are recomputed
// from integer-snapped values, so with integer data they are exact. Run
// with -race to also exercise the shared pseudocost bookkeeping.
func TestWarmStartMatchesColdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 25; trial++ {
		m := randomMILP(rng, false)
		warmVsColdProperty(t, m, trial, 0)
	}
}

// TestWarmStartMatchesColdMixedProperty is the same sweep on models with
// continuous variables. The continuous part of the objective is subject
// to LP roundoff (warm and cold solves can land on different but
// equal-objective vertices), so objectives are compared within a 1e-9
// relative tolerance instead of bitwise.
func TestWarmStartMatchesColdMixedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := randomMILP(rng, true)
		warmVsColdProperty(t, m, trial, 1e-9)
	}
}

func warmVsColdProperty(t *testing.T, m *Model, trial int, tol float64) {
	t.Helper()
	ref := refSolve(m)
	for _, workers := range []int{1, 3} {
		for _, noWarm := range []bool{false, true} {
			got := mustSolveOpts(t, m, Options{Workers: workers, noWarmStart: noWarm})
			if got.Status != ref.status {
				t.Fatalf("trial %d workers=%d noWarm=%v: status %v, reference %v",
					trial, workers, noWarm, got.Status, ref.status)
			}
			if ref.status != Optimal {
				continue
			}
			want := ref.float()
			if diff := math.Abs(got.Objective - want); diff > tol*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d workers=%d noWarm=%v: objective %v != reference %v (diff %g)",
					trial, workers, noWarm, got.Objective, want, diff)
			}
		}
	}
}

// branchyMIP is a knapsack-style model that forces real branching, so the
// warm-start and pseudocost paths are actually exercised.
func branchyMIP() *Model {
	m := NewModel("branchy", Maximize)
	weights := []float64{5, 7, 9, 11, 13, 15, 17, 19, 21, 23}
	values := []float64{8, 11, 13, 16, 19, 21, 24, 27, 29, 32}
	terms := make([]Term, len(weights))
	for i := range weights {
		v := m.AddIntVar(fmt.Sprintf("x%d", i), 0, 3, values[i])
		terms[i] = Term{Var: v, Coef: weights[i]}
	}
	if err := m.AddConstraint("cap", terms, LE, 67); err != nil {
		panic(err)
	}
	return m
}

func TestWarmStartStatsRecorded(t *testing.T) {
	m := branchyMIP()
	sol := mustSolveOpts(t, m, Options{Workers: 1})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Nodes <= 1 {
		t.Fatalf("expected real branching, got %d nodes", sol.Nodes)
	}
	if sol.SimplexIters <= 0 {
		t.Errorf("SimplexIters = %d, want > 0", sol.SimplexIters)
	}
	if sol.WarmStartHits <= 0 {
		t.Errorf("WarmStartHits = %d, want > 0 on a branching MIP", sol.WarmStartHits)
	}
	if sol.WarmStartHits >= sol.Nodes {
		t.Errorf("WarmStartHits = %d not below Nodes = %d (root is always cold)",
			sol.WarmStartHits, sol.Nodes)
	}

	cold := mustSolveOpts(t, m, Options{Workers: 1, noWarmStart: true})
	if cold.WarmStartHits != 0 {
		t.Errorf("noWarmStart WarmStartHits = %d, want 0", cold.WarmStartHits)
	}
	if cold.Objective != sol.Objective {
		t.Errorf("noWarmStart objective %v != warm objective %v", cold.Objective, sol.Objective)
	}
}

// TestBranchingRulesAgreeOnObjective: pseudocost branching and the exact
// reference's first-fractional depth-first search prove the same optimum
// on a model that needs real branching.
func TestBranchingRulesAgreeOnObjective(t *testing.T) {
	m := branchyMIP()
	pc := mustSolveOpts(t, m, Options{Workers: 1})
	ref := refSolve(m)
	if pc.Status != Optimal || ref.status != Optimal {
		t.Fatalf("statuses: pseudocost %v, reference %v", pc.Status, ref.status)
	}
	if pc.Objective != ref.float() {
		t.Fatalf("rules disagree: pseudocost %v, reference %v", pc.Objective, ref.obj)
	}
}

func TestLPReportsSimplexIters(t *testing.T) {
	m := NewModel("lp", Maximize)
	x := m.AddVar("x", 0, 10, 3)
	y := m.AddVar("y", 0, 10, 5)
	if err := m.AddConstraint("c", []Term{{x, 1}, {y, 2}}, LE, 14); err != nil {
		t.Fatal(err)
	}
	sol := m.SolveLP()
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.SimplexIters <= 0 {
		t.Errorf("SimplexIters = %d, want > 0", sol.SimplexIters)
	}
	if sol.WarmStartHits != 0 {
		t.Errorf("WarmStartHits = %d on an LP, want 0", sol.WarmStartHits)
	}
}
