package solver

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// relaxed returns a copy of m with integrality dropped: its LP relaxation
// as a model of its own.
func relaxed(m *Model) *Model {
	r := &Model{name: m.name, sense: m.sense, vars: append([]variable(nil), m.vars...), cons: m.cons}
	for i := range r.vars {
		r.vars[i].integer = false
	}
	return r
}

// matchReference fails t unless sol agrees with the exact reference ref on
// m: the same status and, when optimal, the objective within 1e-6 relative
// at a point feasible for m. One disagreement is allowed: the search does
// not look for an integer point once the relaxation is unbounded, so a
// MILP the reference finds integer-infeasible under an unbounded
// relaxation may read Unbounded.
func matchReference(t *testing.T, label string, m *Model, sol Solution, ref refResult) {
	t.Helper()
	if sol.Status != ref.status && !(ref.relaxUnbounded && sol.Status == Unbounded) {
		t.Fatalf("%s: status %v, reference %v", label, sol.Status, ref.status)
	}
	if ref.status != Optimal {
		return
	}
	if want := ref.float(); math.Abs(sol.Objective-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: objective %v, reference %v", label, sol.Objective, want)
	}
	checkFeasible(t, m, sol, label)
}

// TestRevisedMatchesReferenceMILPProperty: on random MILPs the search must
// reach the exact reference's status and optimal objective at a point
// feasible in the model, swept across worker counts so the warm-start and
// dive paths are exercised.
func TestRevisedMatchesReferenceMILPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng, trial%2 == 0)
		ref := refSolve(m)
		for _, workers := range []int{1, 3} {
			sol := mustSolveOpts(t, m, Options{Workers: workers})
			matchReference(t, fmt.Sprintf("trial %d workers=%d", trial, workers), m, sol, ref)
		}
	}
}

// TestRevisedMatchesReferenceLPProperty runs the same comparison on pure LP
// relaxations through the SolveLP path (no branching).
func TestRevisedMatchesReferenceLPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 150
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		m := relaxed(randomMILP(rng, true))
		matchReference(t, fmt.Sprintf("trial %d", trial), m, m.SolveLP(), refSolve(m))
	}
}

// TestRecessionProvesUnbounded: max x + y over x − y ≤ 5 boxes both columns
// at cold start, the boxes bind at a nonzero reduced cost however far they
// are pushed, and the recession LP finds the improving ray: Unbounded,
// with no give-up logged.
func TestRecessionProvesUnbounded(t *testing.T) {
	var logs []string
	m := NewModel("unbounded", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	mustCon(t, m, "c", []Term{{x, 1}, {y, -1}}, LE, 5)
	sol := m.solveRelaxation(Options{Logf: func(f string, a ...interface{}) { logs = append(logs, fmt.Sprintf(f, a...)) }})
	if sol.Status != Unbounded || sol.Values != nil {
		t.Fatalf("status = %v with values %v, want %v and no point", sol.Status, sol.Values, Unbounded)
	}
	if ref := refSolve(m); ref.status != Unbounded {
		t.Fatalf("reference status %v", ref.status)
	}
	if len(logs) != 0 {
		t.Fatalf("logged %q", logs)
	}
}

// TestFeasibilityRunProvesInfeasible: x's cost pulls it toward its missing
// upper bound, so the cold solve boxes it, and the rows x ≥ 3, x + z ≤ 2
// make the boxed LP infeasible — which under boxes proves nothing. The
// zero-cost run, which needs no box, certifies it.
func TestFeasibilityRunProvesInfeasible(t *testing.T) {
	m := NewModel("infeasible", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	z := m.AddVar("z", 0, 1, 0)
	mustCon(t, m, "lo", []Term{{x, 1}}, GE, 3)
	mustCon(t, m, "hi", []Term{{x, 1}, {z, 1}}, LE, 2)
	rx := getRxScratch(m, Options{})
	if sol, _ := rx.solve(nil, nil, nil); sol.Status != Infeasible || !rx.usedArt {
		t.Fatalf("status %v (boxes placed: %v), want infeasible through the boxed path", sol.Status, rx.usedArt)
	}
	if ref := refSolve(m); ref.status != Infeasible {
		t.Fatalf("reference status %v", ref.status)
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
// IterLimit instead of silently reporting Optimal.
func TestMaxLPIterSurfacesIterLimit(t *testing.T) {
	sol, err := branchyMIP().SolveWithOptions(Options{MaxLPIter: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Fatalf("status = %v, want %v", sol.Status, IterLimit)
	}
}

// TestMaxLPIterOneBudgetPerNodeSolve: MaxLPIter caps each node's LP solve
// call as a whole. A dive or warm start that spends the cap must not hand
// the node to a cold solve with a fresh one, so no search spends more than
// the cap per node it expanded (the root included). On randomMILP seed 5,
// caps 1–6, nine searches broke this when each rung of the ladder reset
// the count.
func TestMaxLPIterOneBudgetPerNodeSolve(t *testing.T) {
	for _, cont := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 400; trial++ {
			m := randomMILP(rng, cont)
			for limit := 1; limit <= 6; limit++ {
				sol := mustSolveOpts(t, m, Options{Workers: 1, MaxLPIter: limit})
				if n := max(1, sol.Nodes); sol.SimplexIters > limit*n {
					t.Fatalf("cont=%v trial %d cap %d: %d pivots over %d nodes", cont, trial, limit, sol.SimplexIters, sol.Nodes)
				}
			}
		}
	}
}

// TestIterBudgetSpansCertificates: Options.MaxLPIter is a budget for the
// WHOLE solve of each LP — the boxed attempts, the retry with an enlarged
// box, and the feasibility and recession runs that certify the answer all
// draw from it. The model below is unbounded along a ray its rows hide:
// each of the four runs pivots (1, 1, 2 and 1 times). Under any cap short
// of that the solve must surface IterLimit within the cap; one more than
// the total — the last run's final pricing pass is an iteration too — and
// it proves Unbounded.
func TestIterBudgetSpansCertificates(t *testing.T) {
	build := func() *Model {
		m := NewModel("certificate-budget", Minimize)
		x := m.AddVar("x", 0, math.Inf(1), -1)
		y := m.AddVar("y", 0, math.Inf(1), 1)
		w := m.AddVar("w", math.Inf(-1), 4, 2)
		mustCon(t, m, "pair", []Term{{x, 1}, {y, -2}, {w, 1}}, LE, 1)
		mustCon(t, m, "floor", []Term{{y, 1}, {w, 1}}, GE, 2)
		mustCon(t, m, "cover", []Term{{x, 1}, {y, 1}}, GE, 3)
		return m
	}
	full := build().solveRelaxation(Options{})
	if full.Status != Unbounded {
		t.Fatalf("uncapped status = %v, want %v", full.Status, Unbounded)
	}
	if ref := refSolve(build()); ref.status != Unbounded {
		t.Fatalf("reference status %v", ref.status)
	}
	if full.SimplexIters != 5 {
		t.Fatalf("uncapped solve took %d pivots, want 5: the model no longer reaches the certificates", full.SimplexIters)
	}
	for limit := 1; limit <= full.SimplexIters; limit++ {
		sol := build().solveRelaxation(Options{MaxLPIter: limit})
		if sol.Status != IterLimit || sol.SimplexIters > limit {
			t.Fatalf("cap %d: %v after %d pivots, want %v within the cap", limit, sol.Status, sol.SimplexIters, IterLimit)
		}
	}
	if big := build().solveRelaxation(Options{MaxLPIter: full.SimplexIters + 1}); big.Status != Unbounded {
		t.Fatalf("cap %d: status %v, want %v", full.SimplexIters+1, big.Status, Unbounded)
	}
}

// TestRevisedRefactorization: a dense 0/1 covering LP whose Forrest–Tomlin
// updates outgrow the factor's fill budget, so the basis is refactorized
// mid-solve (and the devex framework reset), and the solve must still land
// on the exact reference's optimum.
func TestRevisedRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewModel("covering", Minimize)
	vars := make([]VarID, 40)
	for i := range vars {
		vars[i] = m.AddVar(fmt.Sprintf("x%d", i), 0, 10, float64(1+rng.Intn(9)))
	}
	for r := 0; r < 20; r++ {
		var terms []Term
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{v, 1})
			}
		}
		mustCon(t, m, fmt.Sprintf("r%d", r), terms, GE, float64(10+rng.Intn(30)))
	}
	sol := m.SolveLP()
	matchReference(t, "covering LP", m, sol, refSolve(m))
	if sol.Refactorizations < 2 {
		t.Fatalf("%d factorizations over %d pivots: the mid-solve rebuild was not exercised", sol.Refactorizations, sol.SimplexIters)
	}
}

// FuzzLPReference: a random small model with some column bounds opened to
// ±Inf — the columns the cold solve boxes, and the certificates settle when
// a box binds — must match the exact reference: its LP relaxation, and the
// MILP with only continuous columns opened
// (so the reference's search stays finite). Every returned point must be
// feasible for the model.
func FuzzLPReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint64(0x5))
	f.Add(int64(1405), uint8(12), uint8(5), uint64(0xf0f0))
	f.Add(int64(-7), uint8(3), uint8(1), uint64(0x3))
	f.Add(int64(22), uint8(9), uint8(4), uint64(0xffff))
	f.Fuzz(func(t *testing.T, seed int64, nv, nr uint8, open uint64) {
		lp := relaxed(openBounds(fuzzModel(seed, int(nv), int(nr)), open, true))
		matchReference(t, "LP relaxation", lp, mustSolveOpts(t, lp, Options{Workers: 1}), refSolve(lp))
		mip := openBounds(fuzzModel(seed, int(nv), int(nr)), open, false)
		sol := mustSolveOpts(t, mip, Options{Workers: 1})
		matchReference(t, "MILP", mip, sol, refSolve(mip))
	})
}

// openBounds opens column bounds of m to ±Inf as the bits of open select:
// bit 2i the lower bound of column i, bit 2i+1 its upper bound (columns
// past 31 wrap around). Integer columns stay boxed unless all is set.
func openBounds(m *Model, open uint64, all bool) *Model {
	for i := range m.vars {
		v := &m.vars[i]
		if v.integer && !all {
			continue
		}
		b := uint(2 * (i % 32))
		if open>>b&1 == 1 {
			v.lb = math.Inf(-1)
		}
		if open>>(b+1)&1 == 1 {
			v.ub = math.Inf(1)
		}
	}
	return m
}

// TestCertifyLogsGiveUp: a cold solve the certificates cannot settle ends
// as IterLimit with no point and says why through Logf: here a bounded
// LP whose optimum lies past both artificial boxes.
func TestCertifyLogsGiveUp(t *testing.T) {
	var logs []string
	m := NewModel("give-up", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	mustCon(t, m, "c", []Term{{x, 1}}, LE, 1e13) // past both boxes
	sol := m.solveRelaxation(Options{Logf: func(f string, a ...interface{}) { logs = append(logs, fmt.Sprintf(f, a...)) }})
	if sol.Status != IterLimit || sol.Values != nil {
		t.Fatalf("%v with values %v, want %v and no point", sol.Status, sol.Values, IterLimit)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "not certified") {
		t.Fatalf("logs %q, want one give-up line", logs)
	}
}
