package solver_test

import (
	"fmt"
	"testing"

	"flexwan/internal/eval"
	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/topology"
	"flexwan/internal/workload"
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
// none), so the comparison still runs the tree.
func TestPlanningModelTracksPlanSolveExact(t *testing.T) {
	type instance struct {
		seed             int64
		pixels, k, links int
		keep             []int // the IP links kept, instead of the first links
	}
	for _, tc := range []instance{
		{seed: 1, pixels: 16, k: 1, links: 12},
		{seed: 2, pixels: 24, k: 2, links: 12},
		{seed: 5, pixels: 32, k: 1, links: 32}, // long-haul links in: 40 nodes on the raw model, 1 here
		{seed: 1, pixels: 32, k: 1, links: 24}, // BenchmarkSolveExactTBackbone's instance
		{seed: 1, pixels: 24, k: 2, links: 16}, // two fibers carry the same paths: the lower keeps its rows
		// Two candidate paths of one link hold the same kept fibers, so the
		// later path's class shares the earlier one's columns.
		{seed: 385149696, pixels: 32, k: 3, keep: []int{0, 2, 3, 6, 7, 8, 12, 13, 14, 16, 18, 19, 22, 23, 24, 26, 28, 29, 30, 31, 32, 34, 36, 37}},
		{seed: 46036570, pixels: 32, k: 3, keep: []int{0, 1, 2, 3, 5, 6, 8, 12, 14, 16, 17, 18, 19, 20, 22, 23, 25, 27, 28, 29, 30, 33, 35, 37}},
	} {
		label := fmt.Sprintf("seed %d pixels %d k %d links %d%v", tc.seed, tc.pixels, tc.k, tc.links, tc.keep)
		p, err := eval.ExactTBackboneProblem(tc.seed, 0.02, tc.pixels, tc.k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		keep := tc.keep
		for i := 0; i < tc.links; i++ {
			keep = append(keep, i)
		}
		ip := &topology.IPTopology{}
		for _, i := range keep {
			if err := ip.AddLink(p.IP.Links[i]); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		p.IP = ip
		opts := solver.Ablation{NoStart: true}.Apply(solver.Options{})
		res, err := plan.SolveExact(p, opts)
		if err != nil {
			t.Fatalf("%s: plan.SolveExact: %v", label, err)
		}
		if err := plan.Verify(p, res); err != nil {
			t.Errorf("%s: plan.Verify: %v", label, err)
		}
		sol, err := solver.TightModelOf(t, workload.TBackbone(tc.seed).Scale(0.02), ip.Links, tc.pixels, tc.k).SolveWithOptions(opts)
		if err != nil {
			t.Fatalf("%s: restated model: %v", label, err)
		}
		if got, want := *plan.NewSolveStats(sol), *res.Solver; got != want {
			t.Errorf("%s: the restated model no longer solves like plan.SolveExact's:\nrestated %+v\nplan     %+v", label, got, want)
		}
		if sol.Status != solver.Optimal {
			t.Errorf("%s: status %v — the comparison needs a proven optimum", label, sol.Status)
		}
	}
}
