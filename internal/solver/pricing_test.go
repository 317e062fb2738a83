package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPricingRuleObjectiveIdentity is the pricing differential property:
// Dantzig, devex, and steepest-edge row selection must agree on status
// and (when optimal) objective for random MILPs, with the dense tableau
// as the arbiter — the pricing rule chooses the pivot ORDER, never the
// answer. Incumbents are checked feasible in the original model.
func TestPricingRuleObjectiveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 200
	if testing.Short() {
		trials = 50
	}
	rules := []PricingRule{PricingDantzig, PricingDevex, PricingSteepestEdge}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng, true)
		dense := mustSolveOpts(t, m, Options{Workers: 1, DenseSimplex: true})
		for _, rule := range rules {
			sol := mustSolveOpts(t, m, Options{Workers: 1, Pricing: rule})
			label := fmt.Sprintf("trial %d pricing=%s", trial, rule)
			if sol.Status != dense.Status {
				t.Fatalf("%s: status %v, dense arbiter %v", label, sol.Status, dense.Status)
			}
			if sol.Pricing != rule {
				t.Fatalf("%s: Solution.Pricing = %q", label, sol.Pricing)
			}
			if sol.Status != Optimal {
				continue
			}
			tol := 1e-6 * math.Max(1, math.Abs(dense.Objective))
			if math.Abs(sol.Objective-dense.Objective) > tol {
				t.Fatalf("%s: objective %v, dense arbiter %v", label, sol.Objective, dense.Objective)
			}
			checkFeasible(t, m, sol, label)
		}
	}
}

// TestPricingRuleLPProperty runs the same differential on pure LP
// relaxations (no branching), sweeping presolve so the weighted pricing
// paths see both raw and tightened rows.
func TestPricingRuleLPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	trials := 150
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng, true)
		dense := m.solveRelaxation(Options{DenseSimplex: true})
		for _, rule := range []PricingRule{PricingDantzig, PricingDevex, PricingSteepestEdge} {
			sol := m.solveRelaxation(Options{Pricing: rule})
			label := fmt.Sprintf("trial %d pricing=%s", trial, rule)
			if sol.Status != dense.Status {
				t.Fatalf("%s: LP status %v, dense %v", label, sol.Status, dense.Status)
			}
			if sol.Status != Optimal {
				continue
			}
			if diff := math.Abs(sol.Objective - dense.Objective); diff > 1e-6*math.Max(1, math.Abs(dense.Objective)) {
				t.Fatalf("%s: LP objective %v, dense %v (diff %g)", label, sol.Objective, dense.Objective, diff)
			}
		}
	}
}

// TestSteepestEdgeWeightsMatchBtranNorms is the unit test of the
// Forrest–Goldfarb update algebra: after a steepest-edge solve, every
// maintained reference weight must equal the brute-force recomputed
// ‖B⁻ᵀe_i‖² of the final basis (the quantity the updates track
// incrementally), to within accumulated-roundoff tolerance. Trials whose
// framework went stale (weight reset) carry no exact invariant and are
// skipped; the test requires that most trials keep it.
func TestSteepestEdgeWeightsMatchBtranNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	checked := 0
	for trial := 0; trial < 120; trial++ {
		m := randomMILP(rng, true)
		eng := newRevisedEngine(m, Options{Pricing: PricingSteepestEdge})
		sol := eng.solveCold()
		rx := eng.rx
		if sol.Status != Optimal || eng.fallbacks > 0 || !rx.weightsOK || rx.nWeightResets > 0 {
			continue
		}
		e := make([]float64, rx.nRows)
		rho := make([]float64, rx.nRows)
		for i := 0; i < rx.nRows; i++ {
			e[i] = 1
			rx.lu.btran(e, rho, nil, nil)
			want := 0.0
			for r := 0; r < rx.nRows; r++ {
				want += rho[r] * rho[r]
				e[r] = 0 // btran may not restore the unit input
			}
			if want < rxWeightFloor {
				want = rxWeightFloor
			}
			got := rx.rowW[i]
			if math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("trial %d row %d: maintained DSE weight %v, brute-force ‖B⁻ᵀe_i‖² = %v (after %d pivots)",
					trial, i, got, want, rx.lastPivots)
			}
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d/120 trials reached an optimal basis with a live weight framework", checked)
	}
}

// TestDevexWeightsStayBounded: the devex recurrence only grows weights
// between resets, so after any solve the framework must either be live
// with all weights in [1, rxDevexCap·(growth of one update)] or have
// been reset — it must never carry NaN/Inf into row selection.
func TestDevexWeightsStayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 120; trial++ {
		m := randomMILP(rng, true)
		eng := newRevisedEngine(m, Options{Pricing: PricingDevex})
		sol := eng.solveCold()
		rx := eng.rx
		if sol.Status != Optimal || !rx.weightsOK {
			continue
		}
		for i := 0; i < rx.nRows; i++ {
			w := rx.rowW[i]
			if math.IsNaN(w) || math.IsInf(w, 0) || w < rxWeightFloor {
				t.Fatalf("trial %d row %d: devex weight %v with a live framework", trial, i, w)
			}
		}
	}
}

// TestBoundFlipRatioTest exercises the long-step dual ratio test on the
// instance it exists for: a cheap boxed variable whose breakpoint the
// dual step passes. min x₁ + 10x₂ with x₁ ∈ [0,2], x₂ ∈ [0,100], and
// x₁ + x₂ ≥ 10: the first dual pivot's walk flips x₁ bound-to-bound
// (ratio 1, width 2 — absorbing 2 of the violation of 10) and pivots on
// x₂ (ratio 10). The flip must land x₁ EXACTLY on its opposite bound —
// bound flips copy the bound, they do not step towards it — and every
// pricing rule must produce the identical optimum x₁=2, x₂=8, cost 82.
func TestBoundFlipRatioTest(t *testing.T) {
	for _, rule := range []PricingRule{PricingDantzig, PricingDevex, PricingSteepestEdge} {
		m := NewModel("flip", Minimize)
		x1 := m.AddVar("x1", 0, 2, 1)
		x2 := m.AddVar("x2", 0, 100, 10)
		mustCon(t, m, "cover", []Term{{x1, 1}, {x2, 1}}, GE, 10)
		sol := mustSolveOpts(t, m, Options{Workers: 1, NoPresolve: true, Pricing: rule})
		if sol.Status != Optimal {
			t.Fatalf("pricing=%s: status %v", rule, sol.Status)
		}
		if math.Abs(sol.Objective-82) > 1e-9 {
			t.Fatalf("pricing=%s: objective %v, want 82", rule, sol.Objective)
		}
		if sol.Values[x1] != 2 {
			t.Fatalf("pricing=%s: flipped variable x1 = %v, want exactly 2 (its opposite bound)", rule, sol.Values[x1])
		}
		if math.Abs(sol.Values[x2]-8) > 1e-9 {
			t.Fatalf("pricing=%s: x2 = %v, want 8", rule, sol.Values[x2])
		}
		if sol.BoundFlips < 1 {
			t.Fatalf("pricing=%s: BoundFlips = %d, want >= 1", rule, sol.BoundFlips)
		}
		dense := mustSolveOpts(t, m, Options{Workers: 1, NoPresolve: true, DenseSimplex: true})
		if math.Abs(dense.Objective-sol.Objective) > 1e-9 {
			t.Fatalf("pricing=%s: objective %v differs from dense %v", rule, sol.Objective, dense.Objective)
		}
	}
}

// TestBoundFlipsLandOnBounds is the property version: on random bounded
// MILPs, any solve that reports bound flips must still return an optimal
// point where every variable respects its (boxed) bounds and matches the
// dense arbiter's objective — flips change the path, never the polytope.
// The trial set must actually exercise flips for the test to mean
// anything.
func TestBoundFlipsLandOnBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	flipped := 0
	for trial := 0; trial < 300; trial++ {
		m := randomMILP(rng, true)
		sol := mustSolveOpts(t, m, Options{Workers: 1})
		if sol.BoundFlips > 0 {
			flipped++
		}
		if sol.Status != Optimal {
			continue
		}
		dense := mustSolveOpts(t, m, Options{Workers: 1, DenseSimplex: true})
		tol := 1e-6 * math.Max(1, math.Abs(dense.Objective))
		if math.Abs(sol.Objective-dense.Objective) > tol {
			t.Fatalf("trial %d (%d flips): objective %v, dense %v", trial, sol.BoundFlips, sol.Objective, dense.Objective)
		}
		checkFeasible(t, m, sol, fmt.Sprintf("trial %d", trial))
	}
	if flipped == 0 {
		t.Fatal("no trial exercised a bound flip; the property never ran")
	}
}

// TestPricingUnknownRuleRejected mirrors the branching-rule validation.
func TestPricingUnknownRuleRejected(t *testing.T) {
	m := NewModel("bad", Minimize)
	m.AddVar("x", 0, 1, 1)
	if _, err := m.SolveWithOptions(Options{Pricing: "newton"}); err == nil {
		t.Fatal("unknown pricing rule accepted")
	}
}

// TestIterBudgetSpansDenseFallback: Options.MaxLPIter is a budget for the
// WHOLE solve of each LP — when the revised engine burns pivots against
// the artificial box and then hands off to the dense tableau, the dense
// phase must inherit only the remaining budget, not a fresh one. The ray
// model below always takes the fallback path; at small caps the solve
// must surface IterLimit with total pivots within the cap, and at a
// generous cap it must still reach the proven optimum.
func TestIterBudgetSpansDenseFallback(t *testing.T) {
	build := func() *Model {
		m := NewModel("fallback-budget", Minimize)
		x := m.AddVar("x", 0, math.Inf(1), 1)
		y := m.AddVar("y", 0, math.Inf(1), -1)
		z := m.AddIntVar("z", 0, 5, 1)
		mustCon(t, m, "ray", []Term{{y, 1}, {x, -1}}, LE, 3)
		mustCon(t, m, "zmin", []Term{{z, 2}}, GE, 1)
		return m
	}
	// Establish that the model takes the fallback and how many pivots the
	// unconstrained solve spends.
	full := mustSolveOpts(t, build(), Options{Workers: 1, NoPresolve: true})
	if full.Status != Optimal {
		t.Fatalf("uncapped status = %v", full.Status)
	}
	if full.DenseFallbacks == 0 {
		t.Fatal("model no longer exercises the dense fallback; the budget property needs it")
	}
	for cap := 1; cap <= 6; cap++ {
		sol := mustSolveOpts(t, build(), Options{Workers: 1, NoPresolve: true, MaxLPIter: cap})
		if sol.Status == Optimal {
			// A tiny budget may still suffice on this model; what it must
			// never do is claim optimality while overspending.
			if sol.SimplexIters > cap {
				t.Fatalf("cap %d: claimed Optimal after %d pivots", cap, sol.SimplexIters)
			}
			continue
		}
		if sol.Status != IterLimit {
			t.Fatalf("cap %d: status %v, want %v or %v", cap, sol.Status, IterLimit, Optimal)
		}
		if sol.SimplexIters > cap {
			t.Fatalf("cap %d: %d pivots spent — the dense fallback got a fresh budget instead of the remainder",
				cap, sol.SimplexIters)
		}
	}
	big := mustSolveOpts(t, build(), Options{Workers: 1, NoPresolve: true, MaxLPIter: 100000})
	if big.Status != Optimal || math.Abs(big.Objective-full.Objective) > 1e-9 {
		t.Fatalf("generous cap: status %v objective %v, want Optimal %v", big.Status, big.Objective, full.Objective)
	}
}
