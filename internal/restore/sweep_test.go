package restore

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// mustPath returns the shortest path between two ring nodes.
func mustPath(t *testing.T, g *topology.Optical, a, b topology.NodeID, wantFiber string) *topology.Path {
	t.Helper()
	p, ok := g.ShortestPath(a, b)
	if !ok || len(p.Fibers) != 1 || p.Fibers[0] != wantFiber {
		t.Fatalf("shortest %s-%s = %+v, want single fiber %s", a, b, p, wantFiber)
	}
	return &p
}

// TestSweepDeterministicAcrossWorkers asserts the sweep contract: the
// same base plan and scenario set produce identical Results (ordering
// and content) for every worker count, on a seeded T-backbone. Run
// under -race this also proves the per-scenario clones never share
// mutable state.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	n := workload.TBackbone(1)
	base, err := plan.Solve(plan.Problem{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(),
	})
	if err != nil {
		t.Fatal(err)
	}
	prob := Problem{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(),
		Grid: spectrum.DefaultGrid(), Base: base,
	}
	scs := SingleFiberScenarios(n.Optical)
	if len(scs) < 2 {
		t.Fatalf("T-backbone yielded %d scenarios", len(scs))
	}

	ref, err := SweepWithOptions(prob, scs, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Failed() != 0 {
		t.Fatalf("sequential sweep failed scenarios: %v", ref.FailedIDs())
	}
	if len(ref.Results) != len(scs) {
		t.Fatalf("sequential sweep: %d results for %d scenarios", len(ref.Results), len(scs))
	}
	for i, r := range ref.Results {
		if r.Scenario.ID != scs[i].ID {
			t.Fatalf("result %d is scenario %s, want input order %s", i, r.Scenario.ID, scs[i].ID)
		}
	}

	for _, workers := range []int{4, runtime.GOMAXPROCS(0), 0} {
		got, err := SweepWithOptions(prob, scs, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Results) != len(ref.Results) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got.Results), len(ref.Results))
		}
		for i := range got.Results {
			if !reflect.DeepEqual(*got.Results[i], *ref.Results[i]) {
				t.Errorf("workers=%d: result %d (%s) differs from sequential run",
					workers, i, scs[i].ID)
			}
		}
		if !reflect.DeepEqual(got.Capabilities(), ref.Capabilities()) {
			t.Errorf("workers=%d: Capabilities differ", workers)
		}
		if got.MeanCapability() != ref.MeanCapability() {
			t.Errorf("workers=%d: MeanCapability %v != %v", workers, got.MeanCapability(), ref.MeanCapability())
		}
	}
}

// ghostBase builds a base plan whose second wavelength belongs to an IP
// link that does not exist — cutting its fiber makes that scenario's
// solve fail while the rest of the sweep stays solvable.
func ghostBase(t *testing.T) (*plan.Result, Problem) {
	t.Helper()
	g := ring(t)
	ip := ipAB(t, 200)
	mode := &transponder.Mode{DataRateGbps: 200, SpacingGHz: 50, ReachKm: 2000}
	base := &plan.Result{
		Wavelengths: []plan.Wavelength{
			{
				LinkID:   "e1",
				Path:     mustPath(t, g, "A", "B", "f1"),
				Mode:     mode,
				Interval: spectrum.Interval{Start: 0, Count: 4},
			},
			{
				LinkID:   "ghost",
				Path:     mustPath(t, g, "A", "C", "f2"),
				Mode:     mode,
				Interval: spectrum.Interval{Start: 4, Count: 4},
			},
		},
	}
	return base, Problem{
		Optical: g, IP: ip, Catalog: transponder.SVT(),
		Grid: spectrum.DefaultGrid(), Base: base,
	}
}

// TestSweepContinuesPastFailedScenario: one bad scenario must be
// recorded, not abort the sweep (the Fig 15/16 regeneration bug).
func TestSweepContinuesPastFailedScenario(t *testing.T) {
	_, prob := ghostBase(t)
	scs := []Scenario{
		{ID: "cut-f1", CutFibers: []string{"f1"}}, // affects e1: solvable
		{ID: "cut-f2", CutFibers: []string{"f2"}}, // affects ghost link: fails
		{ID: "cut-f3", CutFibers: []string{"f3"}}, // affects nothing: solvable
	}
	sweep, err := SweepWithOptions(prob, scs, SweepOptions{})
	if err != nil {
		t.Fatalf("sweep aborted on a single bad scenario: %v", err)
	}
	if sweep.Failed() != 1 {
		t.Fatalf("failed = %d (%v), want 1", sweep.Failed(), sweep.FailedIDs())
	}
	if ids := sweep.FailedIDs(); len(ids) != 1 || ids[0] != "cut-f2" {
		t.Errorf("failed IDs = %v, want [cut-f2]", ids)
	}
	if !strings.Contains(sweep.Errors[0].Error(), "cut-f2") {
		t.Errorf("ScenarioError lacks scenario ID: %v", sweep.Errors[0])
	}
	if len(sweep.Results) != 2 {
		t.Fatalf("results = %d, want 2 survivors", len(sweep.Results))
	}
	if sweep.Results[0].Scenario.ID != "cut-f1" || sweep.Results[1].Scenario.ID != "cut-f3" {
		t.Errorf("surviving results out of input order: %s, %s",
			sweep.Results[0].Scenario.ID, sweep.Results[1].Scenario.ID)
	}
	// Aggregates must be computed over the survivors only.
	if caps := sweep.Capabilities(); len(caps) != 2 {
		t.Errorf("Capabilities over %d entries, want 2", len(caps))
	}
	if mc := sweep.MeanCapability(); mc < 0 || mc > 1 {
		t.Errorf("MeanCapability = %v", mc)
	}
}

// TestSweepAllScenariosFail: only a fully failed sweep returns an error.
func TestSweepAllScenariosFail(t *testing.T) {
	_, prob := ghostBase(t)
	scs := []Scenario{
		{ID: "cut-f2", CutFibers: []string{"f2"}},
		{ID: "cut-f2-again", CutFibers: []string{"f2"}},
	}
	sweep, err := SweepWithOptions(prob, scs, SweepOptions{})
	if err == nil {
		t.Fatal("sweep with zero surviving scenarios returned nil error")
	}
	if sweep.Failed() != 2 {
		t.Errorf("failed = %d, want 2", sweep.Failed())
	}
}

func TestSweepCancelled(t *testing.T) {
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 600), transponder.SVT(), spectrum.DefaultGrid())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepWithOptions(Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
	}, SingleFiberScenarios(g), SweepOptions{Workers: 2, Context: ctx})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
}

// TestMeanCapabilityMixedProbabilities is the regression for the
// weighting bug: an unset probability used to default to weight 1,
// drowning probabilistic scenarios (p ≈ 1e-4) by orders of magnitude.
func TestMeanCapabilityMixedProbabilities(t *testing.T) {
	mk := func(p float64, restored, affected int) *Result {
		return &Result{
			Scenario:     Scenario{Probability: p},
			AffectedGbps: affected,
			RestoredGbps: restored,
		}
	}
	// Mixed set: positive probabilities dominate, non-positive dropped.
	s := SweepResult{Results: []*Result{
		mk(0.25, 100, 100), // capability 1.0
		mk(0.75, 0, 100),   // capability 0.0
		mk(0, 0, 100),      // unset: must be dropped, not weight-1
	}}
	if got, want := s.MeanCapability(), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("mixed MeanCapability = %v, want %v (unset scenario must not count)", got, want)
	}
	// Tiny probabilistic weights next to an unset scenario: the old
	// default-to-1 behaviour would return ≈ 0 here instead of 1.
	s = SweepResult{Results: []*Result{
		mk(1e-4, 100, 100),
		mk(3e-4, 100, 100),
		mk(0, 0, 100),
	}}
	if got := s.MeanCapability(); math.Abs(got-1) > 1e-12 {
		t.Errorf("probabilistic MeanCapability = %v, want 1", got)
	}
	// All probabilities unset: unweighted mean.
	s = SweepResult{Results: []*Result{
		mk(0, 100, 100),
		mk(0, 0, 100),
	}}
	if got, want := s.MeanCapability(), 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform MeanCapability = %v, want %v", got, want)
	}
	// All results dropped (defensive): neutral capability.
	s = SweepResult{Results: []*Result{}}
	if got := s.MeanCapability(); got != 1 {
		t.Errorf("empty MeanCapability = %v, want 1", got)
	}
}
