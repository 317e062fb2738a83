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
// kernel_test.go (planningModel — the in-package tests cannot import plan)
// to the one plan.SolveExact actually builds. SolveExact does not hand its
// model out, so the comparison is through the deterministic single-worker
// search: the same model presolves by the same row and column counts and is
// proven optimal at the same objective after the same nodes, pivots,
// refactorizations and node-presolve fixings. A builder that drifts in
// variable order, objective, path enumeration or row set moves at least one.
// Both sides search without plan.SolveExact's heuristic start (the restated
// model has none), so the comparison still runs the whole tree.
func TestPlanningModelTracksPlanSolveExact(t *testing.T) {
	for _, tc := range []struct {
		seed             int64
		pixels, k, links int
	}{
		{seed: 1, pixels: 16, k: 1, links: 12},
		{seed: 2, pixels: 24, k: 2, links: 12},
		{seed: 5, pixels: 32, k: 1, links: 32}, // long-haul links in: a 40-node search
		{seed: 1, pixels: 32, k: 1, links: 24}, // BenchmarkPresolveTBackbone, TestWorkersTBackboneObjective
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
		sol, err := solver.PlanningModel(t, tc.seed, tc.pixels, tc.k, tc.links).SolveWithOptions(opts)
		if err != nil {
			t.Fatalf("%s: restated model: %v", label, err)
		}
		if got, want := *plan.NewSolveStats(sol), *res.Solver; got != want {
			t.Errorf("%s: the restated model no longer solves like plan.SolveExact's:\nrestated %+v\nplan     %+v", label, got, want)
		}
		if sol.Status != solver.Optimal || sol.PresolveCols == 0 {
			t.Errorf("%s: status %v, %d columns presolved away — the comparison needs a proven optimum on a model that merges", label, sol.Status, sol.PresolveCols)
		}
	}
}
