package solver_test

import (
	"fmt"
	"runtime"
	"testing"

	"flexwan/internal/eval"
	"flexwan/internal/plan"
	"flexwan/internal/solver"
)

// TestEngineDifferentialLadder is the end-to-end engine differential on
// the real planning MIP: across the two-link scaling ladder, every
// ablation — the dense tableau, the product-form eta file, presolve and
// node presolve off, Dantzig and steepest-edge pricing, most-fractional
// branching — and a two-worker search must reach the SAME optimal
// objective as the default configuration (exact float equality: every
// engine proves optimality, and the acceptance bar for this instance
// family is bitwise-identical objective values). The reported plan is
// also checked for internal consistency: provisioned capacity covers
// demand.
func TestEngineDifferentialLadder(t *testing.T) {
	ladder := []int{16, 24, 32, 48, 64}
	if testing.Short() {
		ladder = []int{16, 24}
	}
	cfgs := []struct {
		workers int
		abl     solver.Ablation
	}{
		{1, solver.Ablation{}}, // default: revised + Forrest–Tomlin, devex, pseudocost, all passes on
		{1, solver.Ablation{EtaFileUpdates: true}},
		{1, solver.Ablation{DenseSimplex: true}},
		{1, solver.Ablation{NoPresolve: true}},
		{1, solver.Ablation{NoNodePresolve: true}},
		{1, solver.Ablation{EtaFileUpdates: true, NoPresolve: true}},
		{1, solver.Ablation{DenseSimplex: true, NoPresolve: true}},
		{1, solver.Ablation{Pricing: solver.PricingDantzig}},
		{1, solver.Ablation{Pricing: solver.PricingSteepestEdge}},
		{1, solver.Ablation{Branching: solver.BranchMostFractional}},
		{2, solver.Ablation{}},
	}
	for _, pixels := range ladder {
		p, err := eval.ExactScalingProblem(pixels)
		if err != nil {
			t.Fatal(err)
		}
		var ref float64
		for i, c := range cfgs {
			label := fmt.Sprintf("pixels=%d workers=%d %+v", pixels, c.workers, c.abl)
			res, err := plan.SolveExact(p, c.abl.Apply(solver.Options{MaxNodes: 100000, Workers: c.workers}))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Solver.Status != solver.Optimal {
				t.Fatalf("%s: status %v", label, res.Solver.Status)
			}
			if i == 0 {
				ref = res.Solver.Objective
			} else if res.Solver.Objective != ref {
				t.Fatalf("%s: objective %v, want %v (engines diverged)", label, res.Solver.Objective, ref)
			}
			for id, lp := range res.PerLink {
				if lp.ProvisionedGbps < lp.DemandGbps {
					t.Fatalf("%s: link %s provisioned %d < demand %d",
						label, id, lp.ProvisionedGbps, lp.DemandGbps)
				}
			}
		}
	}
}

// TestExactTBackbone solves a full T-backbone instance exactly — all
// clusters, core, and IP links of the synthetic backbone — and checks the
// plan against demand, plus the FT/eta objective identity on a real
// (non-line) topology. Kept at a small grid so it stays a unit test;
// TestTBackbonePins runs the bigger ones.
func TestExactTBackbone(t *testing.T) {
	p, err := eval.ExactTBackboneProblem(1, 0.02, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ref float64
	for i, etaFile := range []bool{false, true} {
		opts := solver.Ablation{EtaFileUpdates: etaFile}.Apply(solver.Options{MaxNodes: 200000, Workers: 1})
		res, err := plan.SolveExact(p, opts)
		if err != nil {
			t.Fatalf("etaFile=%v: %v", etaFile, err)
		}
		if res.Solver.Status != solver.Optimal {
			t.Fatalf("etaFile=%v: status %v", etaFile, res.Solver.Status)
		}
		if i == 0 {
			ref = res.Solver.Objective
		} else if res.Solver.Objective != ref {
			t.Fatalf("etaFile=%v: objective %v, want %v", etaFile, res.Solver.Objective, ref)
		}
		for id, lp := range res.PerLink {
			if lp.ProvisionedGbps < lp.DemandGbps {
				t.Fatalf("etaFile=%v: link %s provisioned %d < demand %d",
					etaFile, id, lp.ProvisionedGbps, lp.DemandGbps)
			}
		}
	}
}

// TestTBackbonePins pins the default exact search on the three full
// T-backbone instances (seed 1, demand scale 0.02): 32 pixels with one
// candidate path per link, 24 pixels with three, and the degeneracy wall —
// 32 pixels with three, where Dantzig pricing stalls outright. Each must
// prove the same optimum, match the heuristic's transponder count (the
// planning-quality cross-check behind Fig 12), and stay within 1.5× of
// the recorded pivots and nodes: pivot counts are deterministic at one
// worker, and any change to the floating-point summation order of a
// kernel re-rolls the ratio-test ties on the wall (a scatter-form BTRAN
// once took 19 346 pivots there). ~12 s, 7 s of it the wall.
func TestTBackbonePins(t *testing.T) {
	if testing.Short() || raceDetectorOn {
		t.Skip("full T-backbone exact solves: skipped with -short and under the race detector")
	}
	const objective, transponders = 40.85000000000001, 38
	for _, tc := range []struct {
		pixels, k     int
		pivots, nodes int // recorded
	}{
		{32, 1, 2813, 96},
		{24, 3, 13646, 155},
		{32, 3, 12414, 220},
	} {
		label := fmt.Sprintf("pixels=%d k=%d", tc.pixels, tc.k)
		p, err := eval.ExactTBackboneProblem(1, 0.02, tc.pixels, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.SolveExact(p, solver.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s := res.Solver
		t.Logf("%s: %d nodes, %d pivots (recorded %d, %d)", label, s.Nodes, s.SimplexIters, tc.nodes, tc.pivots)
		if s.Status != solver.Optimal || s.Objective != objective {
			t.Errorf("%s: %v at objective %v, want optimal at %v", label, s.Status, s.Objective, objective)
		}
		if s.SimplexIters > tc.pivots*3/2 || s.Nodes > tc.nodes*3/2 {
			t.Errorf("%s: %d pivots and %d nodes, budget 1.5× the recorded %d and %d",
				label, s.SimplexIters, s.Nodes, tc.pivots, tc.nodes)
		}
		h, err := plan.Solve(p)
		if err != nil {
			t.Fatalf("%s: heuristic: %v", label, err)
		}
		if h.Transponders() != transponders || res.Transponders() != transponders {
			t.Errorf("%s: heuristic %d and exact %d transponders, want %d each",
				label, h.Transponders(), res.Transponders(), transponders)
		}
	}
}

// TestExactSolveMemoryCeilings bounds the bytes one warm default exact
// solve allocates on the scaling ladder. The ceilings sit about 2× above
// the revised engine's measurement (129 488 / 324 040 / 720 160 bytes) and
// under half the dense tableau's (≈1.5 MB at 32 pixels, ≈6 MB at 64), so
// an engine regression or a silent retreat to the dense path trips them.
func TestExactSolveMemoryCeilings(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector's shadow allocations inflate TotalAlloc")
	}
	for _, tc := range []struct {
		pixels  int
		ceiling uint64
	}{{16, 300_000}, {32, 700_000}, {64, 1_700_000}} {
		p, err := eval.ExactScalingProblem(tc.pixels)
		if err != nil {
			t.Fatal(err)
		}
		opts := solver.Options{Workers: 1}
		if _, err := plan.SolveExact(p, opts); err != nil { // warm-up
			t.Fatal(err)
		}
		const solves = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < solves; i++ {
			if _, err := plan.SolveExact(p, opts); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perSolve := (after.TotalAlloc - before.TotalAlloc) / solves
		t.Logf("pixels=%d: %d bytes per solve", tc.pixels, perSolve)
		if perSolve > tc.ceiling {
			t.Errorf("pixels=%d: %d bytes per solve, ceiling %d", tc.pixels, perSolve, tc.ceiling)
		}
	}
}
