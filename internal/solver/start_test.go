package solver

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// poorKnapsackStart is a feasible but deliberately poor point of
// hardKnapsack: only the first item packed.
func poorKnapsackStart() []float64 {
	x := make([]float64, 14)
	x[0] = 1
	return x
}

// TestStartRejected: a start that fails the check is dropped with a log
// line, and the solve is exactly the one without a start — status,
// objective, values and every search counter.
func TestStartRejected(t *testing.T) {
	ref := mustSolveOpts(t, hardKnapsack(t), Options{Workers: 1, noStart: true})
	outOfBounds := make([]float64, 14)
	outOfBounds[3] = 2
	fractional := make([]float64, 14)
	fractional[5] = 0.5
	allIn := make([]float64, 14) // Σ weights 84 > 40: violates cap1
	for i := range allIn {
		allIn[i] = 1
	}
	for name, start := range map[string][]float64{
		"wrong length":  make([]float64, 13),
		"out of bounds": outOfBounds,
		"fractional":    fractional,
		"violated row":  allIn,
		"not a number":  append(make([]float64, 13), math.NaN()),
	} {
		m := hardKnapsack(t)
		m.SetStart(start)
		var logged []string
		sol := mustSolveOpts(t, m, Options{Workers: 1, Logf: func(format string, args ...interface{}) {
			logged = append(logged, fmt.Sprintf(format, args...))
		}})
		if !reflect.DeepEqual(sol, ref) {
			t.Errorf("%s: solve with a rejected start differs from the solve without one:\n got %+v\nwant %+v", name, sol, ref)
		}
		if len(logged) == 0 || !strings.Contains(logged[0], "MIP start dropped") {
			t.Errorf("%s: log %q, want the drop reported first", name, logged)
		}
	}
}

// TestStartAtOptimum: a start the root LP bound already proves optimal
// ends the search before any node, and the answer is the start itself.
// The planning model's optimum is such a start: its lifted root bound
// equals the optimal objective (the search without a start needs 91 nodes
// to find and prove it on the full seed-2 T-backbone).
func TestStartAtOptimum(t *testing.T) {
	ref := mustSolveOpts(t, tightPlanningModel(t, 2, 32, 1, 0), Options{Workers: 1})
	if ref.Status != Optimal || ref.Nodes < 2 {
		t.Fatalf("reference: %v after %d nodes, want a proven optimum that needed a search", ref.Status, ref.Nodes)
	}
	m := tightPlanningModel(t, 2, 32, 1, 0)
	m.SetStart(ref.Values)
	sol := mustSolveOpts(t, m, Options{Workers: 1})
	if sol.Status != Optimal || sol.Nodes != 0 || sol.Gap != 0 {
		t.Errorf("%v after %d nodes at gap %v, want optimal after 0 at gap 0", sol.Status, sol.Nodes, sol.Gap)
	}
	if sol.Objective != ref.Objective || !reflect.DeepEqual(sol.Values, ref.Values) {
		t.Errorf("objective %v, want the start's %v and its values", sol.Objective, ref.Objective)
	}
	checkFeasible(t, m, sol, "start at the optimum")
}

// TestStartWorseThanOptimum: a poor start only prunes; the search still
// finds and proves the optimum, and reports its own point.
func TestStartWorseThanOptimum(t *testing.T) {
	ref := mustSolveOpts(t, hardKnapsack(t), Options{Workers: 1, noStart: true})
	m := hardKnapsack(t)
	m.SetStart(poorKnapsackStart())
	sol := mustSolveOpts(t, m, Options{Workers: 1})
	if sol.Status != Optimal || sol.Objective != ref.Objective {
		t.Fatalf("%v at %v, want optimal at %v", sol.Status, sol.Objective, ref.Objective)
	}
	if reflect.DeepEqual(sol.Values, poorKnapsackStart()) {
		t.Error("the search returned the poor start")
	}
	checkFeasible(t, m, sol, "search answer")
}

// TestStartNodeLimit: a node budget that stops the search before it beats
// the start returns the start with LimitReached and the gap proven
// against it — not an error, not an empty solution.
func TestStartNodeLimit(t *testing.T) {
	m := hardKnapsack(t)
	m.SetStart(poorKnapsackStart())
	sol := mustSolveOpts(t, m, Options{Workers: 1, MaxNodes: 1})
	if sol.Status != LimitReached || sol.Nodes != 1 {
		t.Fatalf("%v after %d nodes, want limit-reached after 1", sol.Status, sol.Nodes)
	}
	if !reflect.DeepEqual(sol.Values, poorKnapsackStart()) || sol.Objective != 9.1 {
		t.Errorf("values %v at %v, want the start's at 9.1", sol.Values, sol.Objective)
	}
	if !(sol.Gap > 0) || math.IsInf(sol.Gap, 0) {
		t.Errorf("gap %v, want a finite proven gap > 0", sol.Gap)
	}
}

// TestStartRootCancelled: a context that stops the root LP leaves the
// start standing — LimitReached with the start's values and no bound
// proven against it (an infinite gap).
func TestStartRootCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := hardKnapsack(t)
	m.SetStart(poorKnapsackStart())
	sol := mustSolveOpts(t, m, Options{Workers: 1, Context: ctx})
	if sol.Status != LimitReached || sol.Nodes != 0 {
		t.Fatalf("%v after %d nodes, want limit-reached after 0", sol.Status, sol.Nodes)
	}
	if !reflect.DeepEqual(sol.Values, poorKnapsackStart()) || !math.IsInf(sol.Gap, 1) {
		t.Errorf("values %v at gap %v, want the start's with no bound proven", sol.Values, sol.Gap)
	}
}

// TestStartWorkersDeterministic: with a start, 1, 2 and 8 workers prove
// the same optimum at the same point (the canonical tie-break does not
// depend on which worker first beats the start). Run under -race in CI.
func TestStartWorkersDeterministic(t *testing.T) {
	var ref Solution
	for _, w := range []int{1, 2, 8} {
		m := hardKnapsack(t)
		m.SetStart(poorKnapsackStart())
		sol := mustSolveOpts(t, m, Options{Workers: w})
		if sol.Status != Optimal {
			t.Fatalf("Workers=%d: status %v", w, sol.Status)
		}
		if w == 1 {
			ref = sol
			continue
		}
		if sol.Objective != ref.Objective || !reflect.DeepEqual(sol.Values, ref.Values) {
			t.Errorf("Workers=%d: %v at %v, Workers=1: %v at %v", w, sol.Values, sol.Objective, ref.Values, ref.Objective)
		}
	}
}

// crashModel is min 2x + 3y over binaries with x + y ≥ 1 and x + 2y ≤ 2:
// the LP relaxation's optimum is the integral vertex x = 1, y = 0.
func crashModel(t *testing.T) *Model {
	m := NewModel("crash", Minimize)
	x := m.AddBinVar("x", 2)
	y := m.AddBinVar("y", 3)
	mustCon(t, m, "cover", []Term{{x, 1}, {y, 1}}, GE, 1)
	mustCon(t, m, "room", []Term{{x, 1}, {y, 2}}, LE, 2)
	return m
}

// TestCrashAtLPVertex: a start at an LP-optimal vertex crashes a root basis
// that is already optimal — the root takes no pivot — and the answer is the
// no-start answer, with the start's values.
func TestCrashAtLPVertex(t *testing.T) {
	ref := mustSolveOpts(t, crashModel(t), Options{Workers: 1, noStart: true})
	m := crashModel(t)
	start := []float64{1, 0}
	m.SetStart(start)
	sol := mustSolveOpts(t, m, Options{Workers: 1})
	if sol.Status != ref.Status || sol.Objective != ref.Objective {
		t.Fatalf("%v at %v, without the start %v at %v", sol.Status, sol.Objective, ref.Status, ref.Objective)
	}
	if sol.SimplexIters != 0 || sol.Nodes != 0 || !reflect.DeepEqual(sol.Values, start) {
		t.Errorf("%d pivots, %d nodes, values %v; want 0, 0 and the start's", sol.SimplexIters, sol.Nodes, sol.Values)
	}
}

// TestCrashRefused: a feasible start that is not LP-optimal crashes a
// basis that is not dual feasible. The warm start refuses it, the root runs
// cold, and the search ends where it ends without the start.
func TestCrashRefused(t *testing.T) {
	// y = 1 takes the room row, where its coefficient is larger; that row's
	// slack then leaves at 0 with dual price −1.5: not dual feasible.
	ref := mustSolveOpts(t, crashModel(t), Options{Workers: 1, noStart: true})
	m := crashModel(t)
	start := []float64{0, 1}
	m.SetStart(start)
	rx := getRxScratch(m, Options{Workers: 1})
	rx.resolveBounds(nil)
	if snap := rx.crash(start); snap == nil {
		t.Fatal("no crash basis")
	} else if _, ok := rx.solveWarm(snap); ok {
		t.Fatal("the warm start accepted a basis that is not dual feasible")
	}
	sol := mustSolveOpts(t, m, Options{Workers: 1})
	if sol.Status != ref.Status || sol.Objective != ref.Objective {
		t.Fatalf("%v at %v, without the start %v at %v", sol.Status, sol.Objective, ref.Status, ref.Objective)
	}
	checkFeasible(t, m, sol, "refused crash")
}

// FuzzStart: a random small model solved with and without a random 0/1
// start ends in the same status at the same objective, at a point feasible
// for the original model; and a start the check accepts is never answered
// with anything worse. Random 0/1 points are rarely feasible, so each input
// is also solved from a second start that is: the no-start answer's own
// values, integral, and an LP vertex whenever the root LP is integral —
// the start the root crash is built for.
func FuzzStart(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint64(0))
	f.Add(int64(1405), uint8(12), uint8(5), uint64(0xfff))
	f.Add(int64(-7), uint8(3), uint8(1), uint64(5))
	f.Add(threeBucketSeed, uint8(0), uint8(0), uint64(0x1ff))
	f.Fuzz(func(t *testing.T, seed int64, nv, nr uint8, bits uint64) {
		m := fuzzModel(seed, int(nv), int(nr))
		off, err := m.SolveWithOptions(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		start := make([]float64, m.NumVars())
		for i := range start {
			start[i] = float64(bits >> (i % 64) & 1)
		}
		m.SetStart(start)
		on, err := m.SolveWithOptions(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if on.Status != off.Status {
			t.Fatalf("status %v with the start, %v without", on.Status, off.Status)
		}
		st := m.checkStart(nil)
		if st != nil && on.Status == Infeasible {
			t.Fatalf("accepted start at %v answered with infeasible", st.obj)
		}
		if on.Status != Optimal {
			return
		}
		if d := math.Abs(on.Objective - off.Objective); d > 1e-9*math.Max(1, math.Abs(off.Objective)) {
			t.Fatalf("objective %v with the start, %v without", on.Objective, off.Objective)
		}
		checkFeasible(t, m, on, "answer with the start")
		if st != nil {
			tol := 1e-9 * math.Max(1, math.Abs(st.obj))
			if (m.sense == Minimize && on.Objective > st.obj+tol) || (m.sense == Maximize && on.Objective < st.obj-tol) {
				t.Fatalf("accepted start at %v answered with %v", st.obj, on.Objective)
			}
		}
		m.SetStart(off.Values)
		own, err := m.SolveWithOptions(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if own.Status != off.Status {
			t.Fatalf("status %v from the no-start answer, %v without a start", own.Status, off.Status)
		}
		if d := math.Abs(own.Objective - off.Objective); d > 1e-9*math.Max(1, math.Abs(off.Objective)) {
			t.Fatalf("objective %v from the no-start answer, %v without a start", own.Objective, off.Objective)
		}
		checkFeasible(t, m, own, "answer from the no-start answer")
	})
}
