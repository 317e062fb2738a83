package solver_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"flexwan/internal/eval"
	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/topology"
)

// TestEngineDifferentialLadder is the end-to-end differential on the real
// planning MIP: across the two-link scaling ladder, every ablation — node
// presolve and warm starts off — and a two-worker search
// must reach the SAME optimal objective as the default configuration
// (exact float equality: every configuration proves optimality, and the
// acceptance bar for this instance family is bitwise-identical objective
// values). The reported plan is
// also checked for internal consistency: provisioned capacity covers
// demand. Every row but the last searches without the heuristic's MIP
// start, so the ladder keeps driving branch-and-bound on real planning
// MIPs; the last row is production's start-seeded default.
func TestEngineDifferentialLadder(t *testing.T) {
	ladder := []int{16, 24, 32, 48, 64}
	if testing.Short() {
		ladder = []int{16, 24}
	}
	cfgs := []struct {
		workers int
		abl     solver.Ablation
		start   bool
	}{
		{1, solver.Ablation{}, false}, // default: all passes on
		{1, solver.Ablation{NoNodePresolve: true}, false},
		{1, solver.Ablation{NoWarmStart: true}, false},
		{2, solver.Ablation{}, false},
		{1, solver.Ablation{}, true},
	}
	for _, pixels := range ladder {
		p, err := eval.ExactScalingProblem(pixels)
		if err != nil {
			t.Fatal(err)
		}
		var ref float64
		for i, c := range cfgs {
			c.abl.NoStart = !c.start
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
				t.Fatalf("%s: objective %v, want %v (configurations diverged)", label, res.Solver.Objective, ref)
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
// plan against demand, searching from scratch and from the heuristic's MIP
// start to the same objective on a real (non-line) topology. Kept at a
// small grid so it stays a unit test; TestTBackbonePins runs the bigger
// ones.
func TestExactTBackbone(t *testing.T) {
	p, err := eval.ExactTBackboneProblem(1, 0.02, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ref float64
	for i, noStart := range []bool{true, false} {
		opts := solver.Ablation{NoStart: noStart}.Apply(solver.Options{MaxNodes: 200000, Workers: 1})
		res, err := plan.SolveExact(p, opts)
		if err != nil {
			t.Fatalf("noStart=%v: %v", noStart, err)
		}
		if res.Solver.Status != solver.Optimal {
			t.Fatalf("noStart=%v: status %v", noStart, res.Solver.Status)
		}
		if i == 0 {
			ref = res.Solver.Objective
		} else if res.Solver.Objective != ref {
			t.Fatalf("noStart=%v: objective %v, want %v", noStart, res.Solver.Objective, ref)
		}
		for id, lp := range res.PerLink {
			if lp.ProvisionedGbps < lp.DemandGbps {
				t.Fatalf("noStart=%v: link %s provisioned %d < demand %d",
					noStart, id, lp.ProvisionedGbps, lp.DemandGbps)
			}
		}
	}
}

// TestTBackbonePins pins the default exact search on the three full
// T-backbone instances (seed 1, demand scale 0.02): 32 pixels with one
// candidate path per link, 24 pixels with three, and the degeneracy wall —
// 32 pixels with three, where Dantzig pricing alone stalls outright. Each must
// prove the same optimum, match the heuristic's transponder count (the
// planning-quality cross-check behind Fig 12) and pass plan.Verify.
//
// Without the heuristic's MIP start, each search must stay within 1.5× of
// the recorded pivots and nodes: pivot counts are deterministic at one
// worker, and any change to the floating-point summation order of a
// kernel re-rolls the ratio-test ties on the wall (a scatter-form BTRAN
// once took ~7 000 pivots more there). The counts are those of the model
// plan.SolveExact builds already reduced. The verbatim model presolve used
// to reduce read 96/2 275, 155/13 144 and 220/11 822 (nodes/pivots): its
// surviving rows came in another order, and past the dominated-row
// sweep's row cap not all of them were maximal, so its search took other
// ties. With the start — production — the
// root LP starts from the basis crashed at the heuristic's plan, which is
// already optimal, and the lifted bound proves the plan optimal: 0 nodes
// and 0 pivots, so a crash refused in silence fails here.
// ~10 s, 8 s of it the wall without the start.
func TestTBackbonePins(t *testing.T) {
	if testing.Short() || raceDetectorOn {
		t.Skip("full T-backbone exact solves: skipped with -short and under the race detector")
	}
	const objective, transponders = 40.85000000000001, 38
	for _, tc := range []struct {
		pixels, k     int
		pivots, nodes int // recorded, without the start
	}{
		{32, 1, 3010, 157},
		{24, 3, 7811, 180},
		{32, 3, 18072, 257},
	} {
		p, err := eval.ExactTBackboneProblem(1, 0.02, tc.pixels, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		h, err := plan.Solve(p)
		if err != nil {
			t.Fatalf("pixels=%d k=%d: heuristic: %v", tc.pixels, tc.k, err)
		}
		for _, start := range []bool{false, true} {
			label := fmt.Sprintf("pixels=%d k=%d start=%v", tc.pixels, tc.k, start)
			res, err := plan.SolveExact(p, solver.Ablation{NoStart: !start}.Apply(solver.Options{Workers: 1}))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			s := res.Solver
			t.Logf("%s: %d nodes, %d pivots (recorded without the start: %d, %d)", label, s.Nodes, s.SimplexIters, tc.nodes, tc.pivots)
			if start {
				if s.Status != solver.Optimal || math.Abs(s.Objective-objective) > 1e-9 || s.Nodes != 0 || s.SimplexIters != 0 {
					t.Errorf("%s: %v at objective %v after %d nodes and %d pivots, want optimal at %v after 0 and 0",
						label, s.Status, s.Objective, s.Nodes, s.SimplexIters, objective)
				}
			} else {
				if s.Status != solver.Optimal || s.Objective != objective {
					t.Errorf("%s: %v at objective %v, want optimal at %v", label, s.Status, s.Objective, objective)
				}
				if s.SimplexIters > tc.pivots*3/2 || s.Nodes > tc.nodes*3/2 {
					t.Errorf("%s: %d pivots and %d nodes, budget 1.5× the recorded %d and %d",
						label, s.SimplexIters, s.Nodes, tc.pivots, tc.nodes)
				}
			}
			if h.Transponders() != transponders || res.Transponders() != transponders {
				t.Errorf("%s: heuristic %d and exact %d transponders, want %d each",
					label, h.Transponders(), res.Transponders(), transponders)
			}
			if err := plan.Verify(p, res); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
}

// TestExactSolveMemoryCeilings bounds the bytes one warm default exact
// solve allocates on the scaling ladder. The ceilings sit about 1.5× above
// the measurement (21 226 / 47 242 / 101 450 bytes with the simplex
// workspace pooled and the model unnamed; 37 120 / 84 624 / 187 136 when
// every solve built its own workspace and named every column and row,
// 44 218 / 106 202 / 235 274 when a presolve pass still ran over the model,
// 101 376 / 240 640 / 524 690 when presolve reduced a verbatim model into a
// copy), so a simplex that builds its workspace per solve or forms dense
// rows, a build that emits rows, columns or names nothing needs, or a
// reduction layer that copies the model trips them.
func TestExactSolveMemoryCeilings(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race detector's shadow allocations inflate TotalAlloc")
	}
	for _, tc := range []struct {
		pixels  int
		ceiling uint64
	}{{16, 32_000}, {32, 71_000}, {64, 152_000}} {
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

// BenchmarkSolveExactTBackbone times one production plan.SolveExact — the
// heuristic's plan as the MIP start — on the 24-link, 32-pixel T-backbone
// instance planningModel restates (seed 1, one path per link): the shape of
// the benchmark's plan-exact ops. The root LP starts from the basis crashed
// at the start, which is already optimal there, so the solve must take no
// pivot; one that does means the crash was refused and the root ran cold.
// One solve before the timer fills the simplex workspace pool, so even a
// one-iteration run (the CI bench smoke, which holds it to allocation
// ceilings in count and bytes) reads the steady state.
func BenchmarkSolveExactTBackbone(b *testing.B) {
	p, err := eval.ExactTBackboneProblem(1, 0.02, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	ip := &topology.IPTopology{}
	for _, l := range p.IP.Links[:24] {
		if err := ip.AddLink(l); err != nil {
			b.Fatal(err)
		}
	}
	p.IP = ip
	opts := solver.Options{Workers: 1}
	if _, err := plan.SolveExact(p, opts); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := plan.SolveExact(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if s := res.Solver; s.Status != solver.Optimal || s.Nodes != 0 || s.SimplexIters != 0 {
			b.Fatalf("%v after %d nodes and %d pivots, want optimal at the root with no pivot", s.Status, s.Nodes, s.SimplexIters)
		}
	}
}
