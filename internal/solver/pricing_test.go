package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPricingRuleObjectiveIdentity is the pricing differential property on
// random MILPs: the production search (devex leaving-row pricing, Dantzig
// when the weights go stale) and the exact reference (Bland's rule in
// rational arithmetic) must agree on status and optimal objective — the
// pricing rule chooses the pivot ORDER, never the answer. Incumbents are
// checked feasible in the original model.
func TestPricingRuleObjectiveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 200
	if testing.Short() {
		trials = 50
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng, true)
		sol := mustSolveOpts(t, m, Options{})
		matchReference(t, fmt.Sprintf("trial %d", trial), m, sol, refSolve(m))
	}
}

// TestPricingRuleLPProperty runs the same differential on pure LP
// relaxations (no branching).
func TestPricingRuleLPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	trials := 150
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		m := relaxed(randomMILP(rng, true))
		sol := mustSolveOpts(t, m, Options{})
		matchReference(t, fmt.Sprintf("trial %d", trial), m, sol, refSolve(m))
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
		rx := getRxScratch(m, Options{})
		sol, _ := rx.solve(nil, nil, nil)
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
// bound flips copy the bound, they do not step towards it — at the
// optimum x₁=2, x₂=8, cost 82.
func TestBoundFlipRatioTest(t *testing.T) {
	m := NewModel("flip", Minimize)
	x1 := m.AddVar("x1", 0, 2, 1)
	x2 := m.AddVar("x2", 0, 100, 10)
	mustCon(t, m, "cover", []Term{{x1, 1}, {x2, 1}}, GE, 10)
	sol := mustSolveOpts(t, m, Options{})
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective-82) > 1e-9 {
		t.Fatalf("objective %v, want 82", sol.Objective)
	}
	if sol.Values[x1] != 2 {
		t.Fatalf("flipped variable x1 = %v, want exactly 2 (its opposite bound)", sol.Values[x1])
	}
	if math.Abs(sol.Values[x2]-8) > 1e-9 {
		t.Fatalf("x2 = %v, want 8", sol.Values[x2])
	}
	if sol.BoundFlips < 1 {
		t.Fatalf("BoundFlips = %d, want >= 1", sol.BoundFlips)
	}
	if ref := refSolve(m); ref.float() != 82 {
		t.Fatalf("reference objective %v, want 82", ref.obj)
	}
}

// TestBoundFlipsLandOnBounds is the property version: on random bounded
// MILPs, any solve that reports bound flips must still return an optimal
// point where every variable respects its (boxed) bounds and matches the
// exact reference's objective — flips change the path, never the polytope.
// The trial set must actually exercise flips for the test to mean
// anything.
func TestBoundFlipsLandOnBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	flipped := 0
	for trial := 0; trial < 300; trial++ {
		m := randomMILP(rng, true)
		sol := mustSolveOpts(t, m, Options{})
		if sol.BoundFlips == 0 {
			continue
		}
		flipped++
		matchReference(t, fmt.Sprintf("trial %d (%d flips)", trial, sol.BoundFlips), m, sol, refSolve(m))
	}
	if flipped == 0 {
		t.Fatal("no trial exercised a bound flip; the property never ran")
	}
}
