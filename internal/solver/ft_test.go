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

// TestForrestTomlinDifferential drives three factorizations of the same
// evolving basis through random pivot sequences — Forrest–Tomlin updates,
// the legacy product-form eta file, and a reference that refactorizes from
// scratch after every pivot — and checks that FTRAN and BTRAN agree on all
// three after every step. This is the correctness contract of the update
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

		ft := &luFactor{ft: true}
		eta := &luFactor{}
		ref := &luFactor{}
		x := make([]float64, nRows)
		refactorAll := func() {
			for _, f := range []*luFactor{ft, eta, ref} {
				if !f.factorize(basis, csc, x) {
					t.Fatalf("trial %d: factorize failed on nonsingular basis", trial)
				}
			}
		}
		refactorAll()

		wFT := make([]float64, nRows)
		wEta := make([]float64, nRows)
		wRef := make([]float64, nRows)
		c := make([]float64, nRows)
		bFT := make([]float64, nRows)
		bEta := make([]float64, nRows)
		bRef := make([]float64, nRows)

		steps := 0
		for attempt := 0; attempt < 400 && steps < 120; attempt++ {
			enter := int32(rng.Intn(nCols + nRows))
			if inBasis[enter] {
				continue
			}
			p := rng.Intn(nRows)

			// FTRAN the entering column through all three factors.
			for _, pair := range []struct {
				f   *luFactor
				out []float64
			}{{ft, wFT}, {eta, wEta}, {ref, wRef}} {
				scatterBasisCol(csc, enter, x)
				pair.f.ftran(x, pair.out)
			}
			if d := maxAbsDiff(wFT, wRef); d > 1e-6 {
				t.Fatalf("trial %d step %d: FT ftran diverges from fresh factorization by %g", trial, steps, d)
			}
			if d := maxAbsDiff(wEta, wRef); d > 1e-6 {
				t.Fatalf("trial %d step %d: eta-file ftran diverges from fresh factorization by %g", trial, steps, d)
			}
			alphaP := wRef[p]
			if math.Abs(alphaP) < 1e-2 {
				continue // replacement would be near-singular; pick another
			}

			// Apply the pivot to each maintenance scheme, mirroring the
			// production policy on update refusal.
			leave := basis[p]
			basis[p] = enter
			delete(inBasis, leave)
			inBasis[enter] = true
			if ft.needRefactor() || !ft.ftUpdate(p, wFT[p]) {
				if !ft.factorize(basis, csc, x) {
					t.Fatalf("trial %d step %d: FT refactorize failed", trial, steps)
				}
			}
			if eta.nEtas() >= luMaxEtas {
				if !eta.factorize(basis, csc, x) {
					t.Fatalf("trial %d step %d: eta refactorize failed", trial, steps)
				}
			} else {
				eta.appendEta(p, wEta)
			}
			if !ref.factorize(basis, csc, x) {
				t.Fatalf("trial %d step %d: reference refactorize failed — basis became singular", trial, steps)
			}
			steps++

			// BTRAN a random dual vector through all three.
			for i := 0; i < nRows; i++ {
				c[i] = rng.NormFloat64()
			}
			for _, pair := range []struct {
				f   *luFactor
				out []float64
			}{{ft, bFT}, {eta, bEta}, {ref, bRef}} {
				cc := make([]float64, nRows)
				copy(cc, c)
				pair.f.btran(cc, pair.out, nil, nil)
			}
			if d := maxAbsDiff(bFT, bRef); d > 1e-6 {
				t.Fatalf("trial %d step %d: FT btran diverges from fresh factorization by %g", trial, steps, d)
			}
			if d := maxAbsDiff(bEta, bRef); d > 1e-6 {
				t.Fatalf("trial %d step %d: eta-file btran diverges from fresh factorization by %g", trial, steps, d)
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

// TestFTvsEtaFileObjectiveIdentity solves random MILPs under both basis
// maintenance schemes (and the dense tableau as arbiter) and requires
// identical status and objective: the update scheme is an implementation
// detail of the LP engine and must never change what the search proves.
func TestFTvsEtaFileObjectiveIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		m := randomMILP(rng, true)
		ftSol := mustSolveOpts(t, m, Options{Workers: 1})
		etaSol := mustSolveOpts(t, m, Options{Workers: 1, EtaFileUpdates: true})
		denseSol := mustSolveOpts(t, m, Options{Workers: 1, DenseSimplex: true})
		if ftSol.Status != etaSol.Status || ftSol.Status != denseSol.Status {
			t.Fatalf("trial %d: status FT=%v eta=%v dense=%v", trial, ftSol.Status, etaSol.Status, denseSol.Status)
		}
		if ftSol.Status != Optimal {
			continue
		}
		tol := 1e-6 * math.Max(1, math.Abs(denseSol.Objective))
		if math.Abs(ftSol.Objective-denseSol.Objective) > tol {
			t.Fatalf("trial %d: FT objective %v != dense %v", trial, ftSol.Objective, denseSol.Objective)
		}
		if math.Abs(etaSol.Objective-denseSol.Objective) > tol {
			t.Fatalf("trial %d: eta objective %v != dense %v", trial, etaSol.Objective, denseSol.Objective)
		}
		checkFeasible(t, m, ftSol, fmt.Sprintf("trial %d (FT)", trial))
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
		off := mustSolveOpts(t, m, Options{Workers: 1, NoNodePresolve: true})
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
	on := mustSolveOpts(t, build(), Options{Workers: 1, NoPresolve: true})
	off := mustSolveOpts(t, build(), Options{Workers: 1, NoPresolve: true, NoNodePresolve: true})
	if on.Status != Optimal || off.Status != Optimal {
		t.Fatalf("status on=%v off=%v", on.Status, off.Status)
	}
	if math.Abs(on.Objective-off.Objective) > 1e-9 {
		t.Fatalf("objective diverged: on=%v off=%v", on.Objective, off.Objective)
	}
	if off.NodePresolveFixings != 0 {
		t.Fatalf("NoNodePresolve run reported %d fixings", off.NodePresolveFixings)
	}
	if on.Nodes > 1 && on.NodePresolveFixings == 0 {
		t.Fatalf("search branched (%d nodes) but node presolve reported no propagated tightenings", on.Nodes)
	}
}

// TestDenseFallbackCountedAndLogged forces the revised engine's dense
// fallback: x and y are unbounded above with costs that pull them along
// the recession ray y = x + 3, so the artificial box binds at the LP
// optimum, binds again after the grow-retry, and the engine must hand the
// solve to the dense tableau. Before this counter existed the handoff left
// no trace anywhere. The integer variable forces an actual search on top.
func TestDenseFallbackCountedAndLogged(t *testing.T) {
	var logs []string
	m := NewModel("fallback", Minimize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), -1)
	z := m.AddIntVar("z", 0, 5, 1)
	mustCon(t, m, "ray", []Term{{y, 1}, {x, -1}}, LE, 3)
	mustCon(t, m, "zmin", []Term{{z, 2}}, GE, 1)
	sol := mustSolveOpts(t, m, Options{
		Workers:    1,
		NoPresolve: true, // presolve would round z up and solve the rest as a pure LP
		Logf:       func(f string, a ...interface{}) { logs = append(logs, fmt.Sprintf(f, a...)) },
	})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// min x − y + z over y ≤ x+3, 2z ≥ 1: the continuous part contributes
	// −3 anywhere on the ray, and z must round up to 1.
	if math.Abs(sol.Objective-(-2)) > 1e-6 {
		t.Fatalf("objective = %v, want -2", sol.Objective)
	}
	if sol.DenseFallbacks == 0 {
		t.Fatal("artificial-box fallback left DenseFallbacks at 0")
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "dense") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no dense-fallback log line emitted; logs: %q", logs)
	}
}

// TestSolveStatsPopulated checks the basis-health counters surface through
// an ordinary MILP solve on the default engine.
func TestSolveStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMILP(rng, true)
	sol := mustSolveOpts(t, m, Options{Workers: 1})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Refactorizations == 0 {
		t.Error("Refactorizations = 0 after a revised-engine solve")
	}
	if sol.FTRANCount == 0 || sol.BTRANCount == 0 {
		t.Errorf("FTRAN/BTRAN counts = %d/%d, want both > 0", sol.FTRANCount, sol.BTRANCount)
	}
	if sol.PeakUFill == 0 {
		t.Error("PeakUFill = 0 after a revised-engine solve")
	}
	dense := mustSolveOpts(t, m, Options{Workers: 1, DenseSimplex: true})
	if dense.Refactorizations != 0 || dense.PeakUFill != 0 {
		t.Errorf("dense engine reported LU stats: %d refactorizations, %d fill", dense.Refactorizations, dense.PeakUFill)
	}
}
