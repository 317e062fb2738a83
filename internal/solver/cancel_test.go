package solver

import (
	"context"
	"testing"
)

// transportLP builds a pure LP (no integer variables) dense enough that
// solving it takes real pivot work: an n×n transportation problem with
// varied arc costs, supply LE rows, and demand GE rows. Its relaxation
// is the whole problem, so a solve routes through solveRelaxation and
// any cancellation must be observed inside a single LP — there are no
// node boundaries to stop at.
func transportLP(t *testing.T, n int) *Model {
	t.Helper()
	m := NewModel("transport-lp", Minimize)
	vars := make([][]VarID, n)
	for i := range vars {
		vars[i] = make([]VarID, n)
		for j := range vars[i] {
			cost := float64((i*7+j*11)%13 + 1)
			vars[i][j] = m.AddVar("x", 0, 50, cost)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]Term, n)
		for j := 0; j < n; j++ {
			row[j] = Term{Var: vars[i][j], Coef: 1}
		}
		mustCon(t, m, "supply", row, LE, float64(20+i))
	}
	for j := 0; j < n; j++ {
		col := make([]Term, n)
		for i := 0; i < n; i++ {
			col[i] = Term{Var: vars[i][j], Coef: 1}
		}
		mustCon(t, m, "demand", col, GE, float64(10+j))
	}
	return m
}

// TestLPCancellationMidSolve: a canceled context aborts inside a single
// LP solve. The model is a pure LP, so the only place the context can be
// observed is the pivot loop itself; before the pivot-interval check was
// added, a canceled context was ignored entirely for pure-LP solves and
// this returned Optimal.
func TestLPCancellationMidSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Sanity: without a context the LP solves to optimality and needs
	// pivots (i.e. the instance is not presolved away).
	ref := mustSolveOpts(t, transportLP(t, 12), Options{})
	if ref.Status != Optimal {
		t.Fatalf("reference status = %v, want optimal", ref.Status)
	}
	if ref.SimplexIters == 0 {
		t.Fatal("reference solve took 0 pivots; instance too easy to prove mid-LP cancellation")
	}
	s := mustSolveOpts(t, transportLP(t, 12), Options{Context: ctx})
	if s.Status != IterLimit {
		t.Errorf("cancelled LP status = %v, want iteration-limit", s.Status)
	}
	// The check fires on the first pivot interval: a pre-cancelled context
	// must not allow a full solve's worth of pivots.
	if s.SimplexIters >= ref.SimplexIters {
		t.Errorf("cancelled LP performed %d pivots (uncancelled: %d)", s.SimplexIters, ref.SimplexIters)
	}
}

// TestMIPCancellationMidLP: with a pre-cancelled context a MIP solve
// still reports the established LimitReached status (not the simplex's
// internal IterLimit), even though the abort now happens inside the root
// LP rather than at a node boundary.
func TestMIPCancellationMidLP(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := mustSolveOpts(t, hardKnapsack(t), Options{Context: ctx})
	if s.Status != LimitReached {
		t.Errorf("cancelled MIP status = %v, want limit-reached", s.Status)
	}
	if s.Nodes != 0 {
		t.Errorf("cancelled MIP expanded %d nodes, want 0", s.Nodes)
	}
}
