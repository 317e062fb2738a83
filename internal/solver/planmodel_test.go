package solver_test

import (
	"fmt"
	"testing"

	"flexwan/internal/eval"
	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/topology"
)

// TestPlanningModelTracksPlanSolveExact pins the planning MIP restated in
// tightmodel_test.go (tightPlanningModel — the in-package tests cannot
// import plan) to the one plan.SolveExact actually builds. SolveExact does
// not hand its model out, so the comparison is through the deterministic
// single-worker search: the same model is proven optimal at the same
// objective after the same nodes, pivots, refactorizations and
// node-presolve fixings. A builder that drifts in column order, objective,
// coefficient, path enumeration or row set moves at least one. Both sides
// search without plan.SolveExact's heuristic start (the restated model has
// none), so the comparison still runs the tree. Both models are built
// already reduced, so presolve must remove nothing from either.
func TestPlanningModelTracksPlanSolveExact(t *testing.T) {
	for _, tc := range []struct {
		seed             int64
		pixels, k, links int
	}{
		{seed: 1, pixels: 16, k: 1, links: 12},
		{seed: 2, pixels: 24, k: 2, links: 12},
		{seed: 5, pixels: 32, k: 1, links: 32}, // long-haul links in: 40 nodes on the raw model, 1 here
		{seed: 1, pixels: 32, k: 1, links: 24}, // BenchmarkSolveExactTBackbone's instance
		{seed: 1, pixels: 24, k: 2, links: 16}, // two fibers carry the same paths: the lower keeps its rows
	} {
		label := fmt.Sprintf("seed %d pixels %d k %d links %d", tc.seed, tc.pixels, tc.k, tc.links)
		p, err := eval.ExactTBackboneProblem(tc.seed, 0.02, tc.pixels, tc.k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if tc.links > 0 {
			ip := &topology.IPTopology{}
			for _, l := range p.IP.Links[:tc.links] {
				if err := ip.AddLink(l); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			p.IP = ip
		}
		opts := solver.Ablation{NoStart: true}.Apply(solver.Options{Workers: 1})
		res, err := plan.SolveExact(p, opts)
		if err != nil {
			t.Fatalf("%s: plan.SolveExact: %v", label, err)
		}
		sol, err := solver.TightPlanningModel(t, tc.seed, tc.pixels, tc.k, tc.links).SolveWithOptions(opts)
		if err != nil {
			t.Fatalf("%s: restated model: %v", label, err)
		}
		if got, want := *plan.NewSolveStats(sol), *res.Solver; got != want {
			t.Errorf("%s: the restated model no longer solves like plan.SolveExact's:\nrestated %+v\nplan     %+v", label, got, want)
		}
		if sol.Status != solver.Optimal || sol.PresolveRows != 0 || sol.PresolveCols != 0 {
			t.Errorf("%s: status %v, %d rows and %d columns presolved away — the comparison needs a proven optimum on a model built already reduced",
				label, sol.Status, sol.PresolveRows, sol.PresolveCols)
		}
	}
}
