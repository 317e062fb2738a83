package solver

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomFactorModel builds a model whose constraint matrix is dense enough
// for basis factorization exercises: nRows rows over nCols variables with
// the given nonzero density. Bounds and relations are irrelevant to the
// factorization itself; only the matrix and the slack columns matter.
func randomFactorModel(t *testing.T, rng *rand.Rand, nRows, nCols int, density float64) *Model {
	t.Helper()
	m := NewModel("lu-prop", Minimize)
	vars := make([]VarID, nCols)
	for i := range vars {
		vars[i] = m.AddVar(fmt.Sprintf("x%d", i), 0, 10, 1)
	}
	for r := 0; r < nRows; r++ {
		var terms []Term
		for i := range vars {
			if rng.Float64() < density {
				c := rng.NormFloat64() * 4
				if math.Abs(c) < 0.1 {
					c = 1
				}
				terms = append(terms, Term{Var: vars[i], Coef: c})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: vars[rng.Intn(nCols)], Coef: 1})
		}
		if err := m.AddConstraint(fmt.Sprintf("r%d", r), terms, LE, 100); err != nil {
			t.Fatalf("AddConstraint: %v", err)
		}
	}
	return m
}

// scatterBasisCol writes basis column col (structural, or cols+r for row
// r's slack) into the dense original-row vector x (must be zero on entry).
func scatterBasisCol(csc *cscMatrix, col int32, x []float64) {
	if int(col) >= csc.cols {
		x[col-int32(csc.cols)] = 1
		return
	}
	for k := csc.colPtr[col]; k < csc.colPtr[col+1]; k++ {
		x[csc.rowIdx[k]] = csc.val[k]
	}
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestForrestTomlinDifferential drives two factorizations of the same
// evolving basis through random pivot sequences — Forrest–Tomlin updates,
// and a reference that refactorizes from scratch after every pivot — and
// checks that FTRAN and BTRAN agree on both after every step. This is the correctness contract of the update
// algebra: an updated factor must solve the same linear systems as a fresh
// factorization of the updated basis.
func TestForrestTomlinDifferential(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(900 + int64(trial)))
		m := randomFactorModel(t, rng, 25, 50, 0.25)
		csc := m.cscMatrixOf()
		nRows, nCols := csc.rows, csc.cols

		// All-slack starting basis.
		basis := make([]int32, nRows)
		inBasis := make(map[int32]bool, nRows)
		for r := 0; r < nRows; r++ {
			basis[r] = int32(nCols + r)
			inBasis[basis[r]] = true
		}

		ft := &luFactor{}
		ref := &luFactor{}
		x := make([]float64, nRows)
		for _, f := range []*luFactor{ft, ref} {
			if !f.factorize(basis, csc, x) {
				t.Fatalf("trial %d: factorize failed on nonsingular basis", trial)
			}
		}

		wFT := make([]float64, nRows)
		wRef := make([]float64, nRows)
		c := make([]float64, nRows)
		bFT := make([]float64, nRows)
		bRef := make([]float64, nRows)

		steps := 0
		for attempt := 0; attempt < 400 && steps < 120; attempt++ {
			enter := int32(rng.Intn(nCols + nRows))
			if inBasis[enter] {
				continue
			}
			p := rng.Intn(nRows)

			// FTRAN the entering column through both factors.
			for _, pair := range []struct {
				f   *luFactor
				out []float64
			}{{ft, wFT}, {ref, wRef}} {
				scatterBasisCol(csc, enter, x)
				pair.f.ftran(x, pair.out)
			}
			if d := maxAbsDiff(wFT, wRef); d > 1e-6 {
				t.Fatalf("trial %d step %d: FT ftran diverges from fresh factorization by %g", trial, steps, d)
			}
			alphaP := wRef[p]
			if math.Abs(alphaP) < 1e-2 {
				continue // replacement would be near-singular; pick another
			}

			// Apply the pivot to both, mirroring the production policy on
			// update refusal.
			leave := basis[p]
			basis[p] = enter
			delete(inBasis, leave)
			inBasis[enter] = true
			if ft.needRefactor() || !ft.ftUpdate(p, wFT[p]) {
				if !ft.factorize(basis, csc, x) {
					t.Fatalf("trial %d step %d: FT refactorize failed", trial, steps)
				}
			}
			if !ref.factorize(basis, csc, x) {
				t.Fatalf("trial %d step %d: reference refactorize failed — basis became singular", trial, steps)
			}
			steps++

			// BTRAN a random dual vector through both.
			for i := 0; i < nRows; i++ {
				c[i] = rng.NormFloat64()
			}
			for _, pair := range []struct {
				f   *luFactor
				out []float64
			}{{ft, bFT}, {ref, bRef}} {
				cc := make([]float64, nRows)
				copy(cc, c)
				pair.f.btran(cc, pair.out, nil, nil)
			}
			if d := maxAbsDiff(bFT, bRef); d > 1e-6 {
				t.Fatalf("trial %d step %d: FT btran diverges from fresh factorization by %g", trial, steps, d)
			}
		}
		if steps < 40 {
			t.Fatalf("trial %d: only %d pivot steps exercised", trial, steps)
		}
		if ft.nUpdate == 0 {
			t.Fatalf("trial %d: Forrest–Tomlin path never applied an in-place update", trial)
		}
	}
}

// TestNodePresolveObjectiveIdentity is the soundness property of per-node
// presolve: propagating branching bounds through constraint activities
// removes no feasible point of any subtree, so the proven optimum with the
// pass on must equal the optimum with it off, on every random instance.
func TestNodePresolveObjectiveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		m := randomMILP(rng, true)
		on := mustSolveOpts(t, m, Options{Workers: 1})
		off := mustSolveOpts(t, m, Options{Workers: 1, noNodePresolve: true})
		if on.Status != off.Status {
			t.Fatalf("trial %d: status with node presolve %v, without %v", trial, on.Status, off.Status)
		}
		if on.Status != Optimal {
			continue
		}
		tol := 1e-6 * math.Max(1, math.Abs(off.Objective))
		if math.Abs(on.Objective-off.Objective) > tol {
			t.Fatalf("trial %d: objective with node presolve %v, without %v", trial, on.Objective, off.Objective)
		}
		checkFeasible(t, m, on, fmt.Sprintf("trial %d (node presolve)", trial))
	}
}

// TestNodePresolveFixingsReported checks the counter plumbing on an
// instance where branching provably triggers propagation: once the search
// branches on y, the row 3x + 3y ≤ 8 tightens x through the activity
// bounds, so NodePresolveFixings must be nonzero with the pass on and zero
// with it off.
func TestNodePresolveFixingsReported(t *testing.T) {
	build := func() *Model {
		m := NewModel("np-count", Maximize)
		x := m.AddIntVar("x", 0, 5, 2)
		y := m.AddIntVar("y", 0, 5, 3)
		z := m.AddIntVar("z", 0, 5, 1)
		mustCon(t, m, "c1", []Term{{x, 3}, {y, 3}}, LE, 8)
		mustCon(t, m, "c2", []Term{{x, 2}, {y, 5}, {z, 4}}, LE, 19)
		mustCon(t, m, "c3", []Term{{y, 2}, {z, 3}}, LE, 11)
		return m
	}
	on := mustSolveOpts(t, build(), Options{Workers: 1})
	off := mustSolveOpts(t, build(), Options{Workers: 1, noNodePresolve: true})
	if on.Status != Optimal || off.Status != Optimal {
		t.Fatalf("status on=%v off=%v", on.Status, off.Status)
	}
	if math.Abs(on.Objective-off.Objective) > 1e-9 {
		t.Fatalf("objective diverged: on=%v off=%v", on.Objective, off.Objective)
	}
	if off.NodePresolveFixings != 0 {
		t.Fatalf("noNodePresolve run reported %d fixings", off.NodePresolveFixings)
	}
	if on.Nodes > 1 && on.NodePresolveFixings == 0 {
		t.Fatalf("search branched (%d nodes) but node presolve reported no propagated tightenings", on.Nodes)
	}
}

// TestBoxedOptimumOnUnboundedFace: x and y are unbounded above with costs
// that pull them along the recession ray y = x + 3, so the cold solve's
// artificial box binds at the LP optimum. The ray costs nothing — y prices
// at zero reduced cost on its box — so the boxed optimum is the true one,
// on an unbounded face: Optimal at −2, a point feasible for the real
// bounds, and no certificate give-up logged. The integer variable forces a
// search on top.
func TestBoxedOptimumOnUnboundedFace(t *testing.T) {
	var logs []string
	m := NewModel("face", Minimize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), -1)
	z := m.AddIntVar("z", 0, 5, 1)
	mustCon(t, m, "ray", []Term{{y, 1}, {x, -1}}, LE, 3)
	mustCon(t, m, "zmin", []Term{{z, 2}}, GE, 1)
	sol := mustSolveOpts(t, m, Options{
		Workers: 1,
		Logf:    func(f string, a ...interface{}) { logs = append(logs, fmt.Sprintf(f, a...)) },
	})
	// min x − y + z over y ≤ x+3, 2z ≥ 1: the continuous part contributes
	// −3 anywhere on the ray, and z must round up to 1.
	if sol.Status != Optimal || math.Abs(sol.Objective-(-2)) > 1e-6 {
		t.Fatalf("%v at %v, want optimal at -2", sol.Status, sol.Objective)
	}
	if ref := refSolve(m); ref.status != Optimal || ref.float() != -2 {
		t.Fatalf("reference %v at %v, want optimal at -2", ref.status, ref.obj)
	}
	checkFeasible(t, m, sol, "boxed optimum")
	for _, l := range logs {
		if strings.Contains(l, "not certified") {
			t.Fatalf("the boxed optimum was not accepted: %q", l)
		}
	}
}

// TestSolveStatsPopulated checks the basis-health counters surface through
// an ordinary MILP solve, and that the factor tracks its peak fill over an
// LP solve of the same model.
func TestSolveStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMILP(rng, true)
	sol := mustSolveOpts(t, m, Options{Workers: 1})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Refactorizations == 0 {
		t.Error("Refactorizations = 0 after a MILP solve")
	}
	if sol.FTRANCount == 0 || sol.BTRANCount == 0 {
		t.Errorf("FTRAN/BTRAN counts = %d/%d, want both > 0", sol.FTRANCount, sol.BTRANCount)
	}
	rx := getRxScratch(m, Options{})
	if lp, _ := rx.solve(nil, nil, nil); lp.Status != Optimal {
		t.Fatalf("LP status = %v", lp.Status)
	}
	if rx.lu.peakFill == 0 {
		t.Error("peak fill = 0 after an LP solve")
	}
}
