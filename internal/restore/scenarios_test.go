package restore

import (
	"math"
	"testing"

	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
)

func TestDoubleFiberScenarios(t *testing.T) {
	g := ring(t) // 3 fibers → 3 pairs
	scs := DoubleFiberScenarios(g)
	if len(scs) != 3 {
		t.Fatalf("scenarios = %d, want 3", len(scs))
	}
	total := 0.0
	seen := map[string]bool{}
	for _, s := range scs {
		if len(s.CutFibers) != 2 || s.CutFibers[0] == s.CutFibers[1] {
			t.Errorf("bad pair %v", s.CutFibers)
		}
		if seen[s.ID] {
			t.Errorf("duplicate scenario %s", s.ID)
		}
		seen[s.ID] = true
		total += s.Probability
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", total)
	}
}

func TestProbabilisticScenarios(t *testing.T) {
	g := ring(t)
	scs := ProbabilisticScenarios(g, 42, 20, 1.2) // high rate → multi-cut mix
	if len(scs) == 0 {
		t.Fatal("no scenarios sampled")
	}
	total := 0.0
	seen := map[string]bool{}
	for _, s := range scs {
		if len(s.CutFibers) == 0 {
			t.Error("scenario with no cuts")
		}
		if s.Probability <= 0 || s.Probability > 1 {
			t.Errorf("probability %v out of range", s.Probability)
		}
		if seen[s.ID] {
			t.Errorf("duplicate %s", s.ID)
		}
		seen[s.ID] = true
		total += s.Probability
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("probabilities sum to %v", total)
	}
	// Determinism.
	again := ProbabilisticScenarios(g, 42, 20, 1.2)
	if len(again) != len(scs) {
		t.Errorf("same seed gave %d then %d scenarios", len(scs), len(again))
	}
	for i := range again {
		if again[i].ID != scs[i].ID {
			t.Errorf("order changed at %d: %s vs %s", i, again[i].ID, scs[i].ID)
		}
	}
	// Edge cases.
	if got := ProbabilisticScenarios(g, 1, 0, 1.2); got != nil {
		t.Error("n=0 returned scenarios")
	}
}

func TestSweepOverProbabilisticScenarios(t *testing.T) {
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 600), transponder.SVT(), spectrum.DefaultGrid())
	scs := ProbabilisticScenarios(g, 7, 10, 0.8)
	sweep, err := SweepWithOptions(Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
	}, scs, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mc := sweep.MeanCapability()
	if mc < 0 || mc > 1 {
		t.Errorf("mean capability = %v", mc)
	}
	// Scenarios cutting both ring sides must restore nothing.
	for _, res := range sweep.Results {
		if len(res.Scenario.CutFibers) == 3 && res.RestoredGbps != 0 {
			t.Errorf("restored %d with all fibers cut", res.RestoredGbps)
		}
	}
}
