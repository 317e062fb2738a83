package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

func TestLPBasicMaximize(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0.
	// Classic: optimum 36 at (2, 6).
	m := NewModel("lp1", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 3)
	y := m.AddVar("y", 0, math.Inf(1), 5)
	mustCon(t, m, "c1", []Term{{x, 1}}, LE, 4)
	mustCon(t, m, "c2", []Term{{y, 2}}, LE, 12)
	mustCon(t, m, "c3", []Term{{x, 3}, {y, 2}}, LE, 18)
	s := m.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, 36) || !approx(s.Value(x), 2) || !approx(s.Value(y), 6) {
		t.Errorf("got obj %v at (%v, %v), want 36 at (2, 6)", s.Objective, s.Value(x), s.Value(y))
	}
}

func TestLPBasicMinimize(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10, x ≥ 2, y ≥ 3. Optimum 23 at (7, 3)?
	// 2·7+3·3 = 23; check (2,8): 4+24=28. So (7,3) with cost 23.
	m := NewModel("lp2", Minimize)
	x := m.AddVar("x", 2, math.Inf(1), 2)
	y := m.AddVar("y", 3, math.Inf(1), 3)
	mustCon(t, m, "cover", []Term{{x, 1}, {y, 1}}, GE, 10)
	s := m.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, 23) {
		t.Errorf("objective = %v, want 23", s.Objective)
	}
}

func TestLPEquality(t *testing.T) {
	// min x + y s.t. x + 2y = 8, x − y = 2  ⇒ y = 2, x = 4, obj 6.
	m := NewModel("lpeq", Minimize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	mustCon(t, m, "e1", []Term{{x, 1}, {y, 2}}, EQ, 8)
	mustCon(t, m, "e2", []Term{{x, 1}, {y, -1}}, EQ, 2)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Value(x), 4) || !approx(s.Value(y), 2) {
		t.Errorf("got %v at (%v, %v), want 6 at (4, 2); status %v", s.Objective, s.Value(x), s.Value(y), s.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel("inf", Minimize)
	x := m.AddVar("x", 0, 10, 1)
	mustCon(t, m, "lo", []Term{{x, 1}}, GE, 5)
	mustCon(t, m, "hi", []Term{{x, 1}}, LE, 3)
	if s := m.Solve(); s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
	// Contradictory bounds detected even without constraints.
	m2 := NewModel("inf2", Minimize)
	m2.AddVar("x", 5, 3, 1)
	if s := m2.Solve(); s.Status != Infeasible {
		t.Errorf("bound contradiction status = %v", s.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel("unb", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	y := m.AddVar("y", 0, math.Inf(1), 0)
	mustCon(t, m, "c", []Term{{x, 1}, {y, -1}}, LE, 1)
	if s := m.Solve(); s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestLPNegativeRHS(t *testing.T) {
	// min x s.t. −x ≤ −5 (i.e. x ≥ 5).
	m := NewModel("neg", Minimize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	mustCon(t, m, "c", []Term{{x, -1}}, LE, -5)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Value(x), 5) {
		t.Errorf("got %v at %v, want 5", s.Status, s.Value(x))
	}
}

func TestLPFreeVariable(t *testing.T) {
	// min |style| free var: min y s.t. y ≥ x − 3, y ≥ 3 − x, x free.
	// Optimum y = 0 at x = 3.
	m := NewModel("free", Minimize)
	x := m.AddVar("x", math.Inf(-1), math.Inf(1), 0)
	y := m.AddVar("y", 0, math.Inf(1), 1)
	mustCon(t, m, "c1", []Term{{y, 1}, {x, -1}}, GE, -3)
	mustCon(t, m, "c2", []Term{{y, 1}, {x, 1}}, GE, 3)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 0) || !approx(s.Value(x), 3) {
		t.Errorf("got %v obj %v x %v, want 0 at x=3", s.Status, s.Objective, s.Value(x))
	}
}

func TestLPShiftedBounds(t *testing.T) {
	// Variables with nonzero lower bounds must be shifted correctly.
	// min x + y, x ∈ [−2, 10], y ∈ [4, 10], x + y ≥ 5 ⇒ x = 1? No:
	// x can go to −2, then y ≥ 7 ⇒ obj 5. Or y = 4, x = 1 ⇒ 5. Obj 5.
	m := NewModel("shift", Minimize)
	x := m.AddVar("x", -2, 10, 1)
	y := m.AddVar("y", 4, 10, 1)
	mustCon(t, m, "c", []Term{{x, 1}, {y, 1}}, GE, 5)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 5) {
		t.Errorf("got %v obj %v, want 5", s.Status, s.Objective)
	}
	if s.Value(x) < -2-1e-6 || s.Value(y) < 4-1e-6 {
		t.Errorf("bounds violated: x=%v y=%v", s.Value(x), s.Value(y))
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// x + x ≤ 10 must behave as 2x ≤ 10.
	m := NewModel("dup", Maximize)
	x := m.AddVar("x", 0, math.Inf(1), 1)
	mustCon(t, m, "c", []Term{{x, 1}, {x, 1}}, LE, 10)
	s := m.Solve()
	if !approx(s.Value(x), 5) {
		t.Errorf("x = %v, want 5", s.Value(x))
	}
}

func TestConstraintValidation(t *testing.T) {
	m := NewModel("bad", Minimize)
	if err := m.AddConstraint("c", []Term{{VarID(3), 1}}, LE, 1); err == nil {
		t.Error("constraint over unknown variable accepted")
	}
}

func TestMIPKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50.
	// Optimum 220 (items 2 and 3).
	m := NewModel("knap", Maximize)
	x1 := m.AddBinVar("x1", 60)
	x2 := m.AddBinVar("x2", 100)
	x3 := m.AddBinVar("x3", 120)
	mustCon(t, m, "w", []Term{{x1, 10}, {x2, 20}, {x3, 30}}, LE, 50)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 220) {
		t.Fatalf("got %v obj %v, want 220", s.Status, s.Objective)
	}
	if s.IntValue(x1) != 0 || s.IntValue(x2) != 1 || s.IntValue(x3) != 1 {
		t.Errorf("selection = (%d,%d,%d), want (0,1,1)", s.IntValue(x1), s.IntValue(x2), s.IntValue(x3))
	}
}

func TestMIPIntegerRounding(t *testing.T) {
	// max x + y s.t. 2x + 2y ≤ 7, integers ⇒ LP gives 3.5, MIP 3.
	m := NewModel("round", Maximize)
	x := m.AddIntVar("x", 0, 10, 1)
	y := m.AddIntVar("y", 0, 10, 1)
	mustCon(t, m, "c", []Term{{x, 2}, {y, 2}}, LE, 7)
	lp := m.SolveLP()
	if !approx(lp.Objective, 3.5) {
		t.Errorf("LP relaxation = %v, want 3.5", lp.Objective)
	}
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 3) {
		t.Errorf("MIP = %v obj %v, want 3", s.Status, s.Objective)
	}
}

func TestMIPInfeasible(t *testing.T) {
	// 2x = 3 with x integer has no solution.
	m := NewModel("mipinf", Minimize)
	x := m.AddIntVar("x", 0, 10, 1)
	mustCon(t, m, "c", []Term{{x, 2}}, EQ, 3)
	if s := m.Solve(); s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestMIPCoveringProblem(t *testing.T) {
	// min 5a + 4b + 3c s.t. a+b ≥ 1, b+c ≥ 1, a+c ≥ 1, binary.
	// Optimal: b + c = 7 (covers all three).
	m := NewModel("cover", Minimize)
	a := m.AddBinVar("a", 5)
	b := m.AddBinVar("b", 4)
	c := m.AddBinVar("c", 3)
	mustCon(t, m, "ab", []Term{{a, 1}, {b, 1}}, GE, 1)
	mustCon(t, m, "bc", []Term{{b, 1}, {c, 1}}, GE, 1)
	mustCon(t, m, "ac", []Term{{a, 1}, {c, 1}}, GE, 1)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 7) {
		t.Errorf("got %v obj %v, want 7", s.Status, s.Objective)
	}
}

func TestMIPGeneralInteger(t *testing.T) {
	// min 3x + 4y s.t. 2x + y ≥ 10, x + 3y ≥ 15, x,y ≥ 0 integer.
	// LP optimum at intersection (3, 4): obj 25 — integral already.
	m := NewModel("gi", Minimize)
	x := m.AddIntVar("x", 0, 100, 3)
	y := m.AddIntVar("y", 0, 100, 4)
	mustCon(t, m, "c1", []Term{{x, 2}, {y, 1}}, GE, 10)
	mustCon(t, m, "c2", []Term{{x, 1}, {y, 3}}, GE, 15)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 25) {
		t.Errorf("got %v obj %v, want 25", s.Status, s.Objective)
	}
}

func TestMIPNodeLimit(t *testing.T) {
	// A model needing branching with MaxNodes=1 must report LimitReached.
	m := NewModel("lim", Maximize)
	var terms []Term
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		v := m.AddBinVar("x", float64(1+rng.Intn(20)))
		terms = append(terms, Term{v, float64(1 + rng.Intn(10))})
	}
	mustCon(t, m, "w", terms, LE, 17)
	s := mustSolveOpts(t, m, Options{MaxNodes: 1})
	if s.Status != LimitReached {
		t.Errorf("status = %v, want limit-reached", s.Status)
	}
}

func TestMIPEqualityWithIntegers(t *testing.T) {
	// Exact-cover style equality: x + y + z = 2, min x + 2y + 3z over
	// binaries ⇒ x = y = 1, obj 3.
	m := NewModel("eq", Minimize)
	x := m.AddBinVar("x", 1)
	y := m.AddBinVar("y", 2)
	z := m.AddBinVar("z", 3)
	mustCon(t, m, "sum", []Term{{x, 1}, {y, 1}, {z, 1}}, EQ, 2)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 3) {
		t.Errorf("got %v obj %v, want 3", s.Status, s.Objective)
	}
}

// bruteForceKnapsack enumerates all subsets.
func bruteForceKnapsack(values, weights []int, cap int) int {
	n := len(values)
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		v, w := 0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

// Property: branch-and-bound matches brute force on random knapsacks.
func TestMIPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		values := make([]int, n)
		weights := make([]int, n)
		m := NewModel("bf", Maximize)
		var terms []Term
		for i := 0; i < n; i++ {
			values[i] = 1 + rng.Intn(50)
			weights[i] = 1 + rng.Intn(20)
			v := m.AddBinVar("x", float64(values[i]))
			terms = append(terms, Term{v, float64(weights[i])})
		}
		cap := 5 + rng.Intn(60)
		if err := m.AddConstraint("w", terms, LE, float64(cap)); err != nil {
			return false
		}
		s := m.Solve()
		if s.Status != Optimal {
			return false
		}
		want := bruteForceKnapsack(values, weights, cap)
		return approx(s.Objective, float64(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: LP relaxation always bounds the MIP optimum from the
// optimistic side.
func TestRelaxationBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		m := NewModel("rb", Maximize)
		var terms []Term
		for i := 0; i < n; i++ {
			v := m.AddBinVar("x", float64(1+rng.Intn(30)))
			terms = append(terms, Term{v, float64(1 + rng.Intn(15))})
		}
		if err := m.AddConstraint("w", terms, LE, float64(10+rng.Intn(40))); err != nil {
			return false
		}
		lp := m.SolveLP()
		ip := m.Solve()
		if lp.Status != Optimal || ip.Status != Optimal {
			return false
		}
		return lp.Objective >= ip.Objective-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSolutionAccessors(t *testing.T) {
	s := Solution{Values: []float64{1.4, 2.6}}
	if s.IntValue(0) != 1 || s.IntValue(1) != 3 {
		t.Errorf("IntValue rounding wrong: %d, %d", s.IntValue(0), s.IntValue(1))
	}
	if !math.IsNaN(s.Value(VarID(5))) {
		t.Error("out-of-range Value should be NaN")
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", LimitReached: "limit-reached",
		GapLimit: "gap-limit", IterLimit: "iteration-limit",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %s", s, s.String())
		}
	}
	if Minimize.String() != "minimize" || Maximize.String() != "maximize" {
		t.Error("Sense strings wrong")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("Rel strings wrong")
	}
}

// TestMIPRelGapStop forces the RelGap early exit: max 1.3x + 0.7y subject
// to 2x + 2y ≤ 3 over binaries has LP bound 1.95 but integer optimum 1.3,
// a proven 50% gap at the first incumbent. (Non-integral, non-uniform
// coefficients keep the objective bound rounding from lifting the LP
// bounds and closing the gap early.) A loose RelGap must stop there and
// report GapLimit — not claim the incumbent Optimal — while the default
// tight gap must prove optimality with Gap 0.
func TestMIPRelGapStop(t *testing.T) {
	build := func() *Model {
		m := NewModel("relgap", Maximize)
		x := m.AddBinVar("x", 1.3)
		y := m.AddBinVar("y", 0.7)
		mustCon(t, m, "pack", []Term{{x, 2}, {y, 2}}, LE, 3)
		return m
	}

	// Workers: 1 — a loose-RelGap stop is an early exit whose trigger
	// point depends on worker timing; pin one worker so the GapLimit
	// status is deterministic.
	s := mustSolveOpts(t, build(), Options{RelGap: 0.6, Workers: 1})
	if s.Status != GapLimit {
		t.Fatalf("RelGap-stopped search status = %v, want gap-limit", s.Status)
	}
	if !approx(s.Objective, 1.3) {
		t.Errorf("incumbent objective = %v, want 1.3", s.Objective)
	}
	if s.Gap <= intTol || s.Gap > 0.6 {
		t.Errorf("proven gap = %v, want within (%v, 0.6]", s.Gap, intTol)
	}

	// Default options run the search to an optimality proof.
	s = mustSolveOpts(t, build(), Options{})
	if s.Status != Optimal {
		t.Fatalf("full search status = %v, want optimal", s.Status)
	}
	if !approx(s.Objective, 1.3) {
		t.Errorf("optimal objective = %v, want 1.3", s.Objective)
	}
	if s.Gap > intTol {
		t.Errorf("proven-optimal Gap = %v, want 0", s.Gap)
	}
}

func mustCon(t testing.TB, m *Model, name string, terms []Term, rel Rel, rhs float64) {
	t.Helper()
	if err := m.AddConstraint(name, terms, rel, rhs); err != nil {
		t.Fatal(err)
	}
}

// mustSolveOpts solves with options, failing the test on an options error.
func mustSolveOpts(t *testing.T, m *Model, opts Options) Solution {
	t.Helper()
	sol, err := m.SolveWithOptions(opts)
	if err != nil {
		t.Fatalf("SolveWithOptions: %v", err)
	}
	return sol
}

// TestLPDegenerateCycling: a classic degenerate LP (Beale's example) that
// cycles under naive Dantzig pivoting; the Bland fallback must terminate
// with the optimum.
func TestLPDegenerateCycling(t *testing.T) {
	// min −0.75x4 + 150x5 − 0.02x6 + 6x7
	// s.t. 0.25x4 − 60x5 − 0.04x6 + 9x7 ≤ 0
	//      0.5x4 − 90x5 − 0.02x6 + 3x7 ≤ 0
	//      x6 ≤ 1
	// Optimum −0.05 at x6 = 1, x4 = ... (objective value −1/20).
	m := NewModel("beale", Minimize)
	x4 := m.AddVar("x4", 0, math.Inf(1), -0.75)
	x5 := m.AddVar("x5", 0, math.Inf(1), 150)
	x6 := m.AddVar("x6", 0, math.Inf(1), -0.02)
	x7 := m.AddVar("x7", 0, math.Inf(1), 6)
	mustCon(t, m, "c1", []Term{{x4, 0.25}, {x5, -60}, {x6, -0.04}, {x7, 9}}, LE, 0)
	mustCon(t, m, "c2", []Term{{x4, 0.5}, {x5, -90}, {x6, -0.02}, {x7, 3}}, LE, 0)
	mustCon(t, m, "c3", []Term{{x6, 1}}, LE, 1)
	s := m.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, -0.05) {
		t.Errorf("objective = %v, want -0.05", s.Objective)
	}
}

// TestLPDenseRandomAgainstBounds: random dense LPs must return objective
// values consistent with feasibility (spot-check with a verifier).
func TestLPDenseRandomAgainstBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		nVars := 5 + rng.Intn(10)
		nCons := 3 + rng.Intn(8)
		m := NewModel("rand", Maximize)
		obj := make([]float64, nVars)
		vars := make([]VarID, nVars)
		for i := range vars {
			obj[i] = rng.Float64() * 10
			vars[i] = m.AddVar("x", 0, 5+rng.Float64()*10, obj[i])
		}
		rows := make([][]float64, nCons)
		rhs := make([]float64, nCons)
		for r := 0; r < nCons; r++ {
			terms := make([]Term, 0, nVars)
			rows[r] = make([]float64, nVars)
			for i := range vars {
				c := rng.Float64() * 4
				rows[r][i] = c
				terms = append(terms, Term{vars[i], c})
			}
			rhs[r] = 10 + rng.Float64()*40
			mustCon(t, m, "c", terms, LE, rhs[r])
		}
		s := m.Solve()
		if s.Status != Optimal {
			t.Fatalf("trial %d status %v", trial, s.Status)
		}
		// Verify primal feasibility and objective consistency.
		got := 0.0
		for i, v := range vars {
			x := s.Value(v)
			if x < -1e-6 {
				t.Fatalf("trial %d: negative x", trial)
			}
			got += obj[i] * x
		}
		if !approx(got, s.Objective) {
			t.Fatalf("trial %d: objective mismatch %v vs %v", trial, got, s.Objective)
		}
		for r := 0; r < nCons; r++ {
			lhs := 0.0
			for i, v := range vars {
				lhs += rows[r][i] * s.Value(v)
			}
			if lhs > rhs[r]+1e-5 {
				t.Fatalf("trial %d: constraint %d violated (%v > %v)", trial, r, lhs, rhs[r])
			}
		}
	}
}

// TestMIPBoundedIntegers: general integers with two-sided bounds.
func TestMIPBoundedIntegers(t *testing.T) {
	// max 7x + 2y s.t. 3x + y ≤ 10, x ∈ [0,2] int, y ∈ [1,5] int.
	// x=2 → y ≤ 4 → obj 14+8=22.
	m := NewModel("bi", Maximize)
	x := m.AddIntVar("x", 0, 2, 7)
	y := m.AddIntVar("y", 1, 5, 2)
	mustCon(t, m, "c", []Term{{x, 3}, {y, 1}}, LE, 10)
	s := m.Solve()
	if s.Status != Optimal || !approx(s.Objective, 22) {
		t.Errorf("got %v obj %v, want 22", s.Status, s.Objective)
	}
	if s.IntValue(x) != 2 || s.IntValue(y) != 4 {
		t.Errorf("x=%d y=%d, want 2, 4", s.IntValue(x), s.IntValue(y))
	}
}

// TestMaxBuildVars: an explicit MaxVars binds; unset, the guard is
// DefaultMaxVars.
func TestMaxBuildVars(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want int
	}{
		{Options{}, DefaultMaxVars},
		{Options{MaxVars: 100}, 100},
	} {
		if got := tc.opts.MaxBuildVars(); got != tc.want {
			t.Errorf("MaxVars %d: MaxBuildVars %d, want %d", tc.opts.MaxVars, got, tc.want)
		}
	}
}
