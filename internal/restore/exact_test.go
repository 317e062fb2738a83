package restore

import (
	"context"
	"fmt"
	"testing"

	"flexwan/internal/parallel"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
)

func TestSolveExactFig4(t *testing.T) {
	// Same scenario as TestRestoreFig4Scenario, exact: RADWAN restores
	// 200 of 300 Gbps on the 1200 km detour, FlexWAN all 300.
	g := ring(t)
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: 16}

	pb, rb := planFor(t, g, ipAB(t, 300), transponder.RADWAN(), grid)
	resB, err := SolveExact(Problem{
		Optical: g, IP: pb.IP, Catalog: pb.Catalog, Grid: grid, Base: rb,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}}, K: 2,
	}, solver.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if resB.RestoredGbps != 200 {
		t.Errorf("RADWAN exact restored = %d, want 200", resB.RestoredGbps)
	}

	pf, rf := planFor(t, g, ipAB(t, 300), transponder.SVT(), grid)
	resF, err := SolveExact(Problem{
		Optical: g, IP: pf.IP, Catalog: pf.Catalog, Grid: grid, Base: rf,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}}, K: 2,
	}, solver.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if resF.RestoredGbps != 300 {
		t.Errorf("FlexWAN exact restored = %d, want 300", resF.RestoredGbps)
	}
}

func TestExactNeverWorseThanHeuristic(t *testing.T) {
	// The exact optimum upper-bounds the heuristic on every 1-failure
	// scenario of the ring. Scenarios are independent, so they run
	// concurrently — which also exercises Solve/SolveExact under -race.
	g := ring(t)
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: 20}
	p, r := planFor(t, g, ipAB(t, 900), transponder.SVT(), grid)
	scs := SingleFiberScenarios(g)
	errs := parallel.ForEach(context.Background(), 0, len(scs), func(_ context.Context, i int) error {
		sc := scs[i]
		base := Problem{
			Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: grid, Base: r,
			Scenario: sc, K: 2,
		}
		h, err := Solve(base)
		if err != nil {
			return fmt.Errorf("%s: heuristic: %w", sc.ID, err)
		}
		e, err := SolveExact(base, solver.Options{MaxNodes: 50000})
		if err != nil {
			return fmt.Errorf("%s: exact: %w", sc.ID, err)
		}
		if e.RestoredGbps < h.RestoredGbps {
			return fmt.Errorf("%s: exact %d < heuristic %d", sc.ID, e.RestoredGbps, h.RestoredGbps)
		}
		if e.RestoredGbps > e.AffectedGbps {
			return fmt.Errorf("%s: exact restored %d > affected %d", sc.ID, e.RestoredGbps, e.AffectedGbps)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestSolveExactNoFailure(t *testing.T) {
	g := ring(t)
	p, r := planFor(t, g, ipAB(t, 400), transponder.SVT(), spectrum.DefaultGrid())
	res, err := SolveExact(Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid, Base: r,
		Scenario: Scenario{ID: "cut-f3", CutFibers: []string{"f3"}},
	}, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AffectedGbps != 0 || len(res.Restored) != 0 {
		t.Errorf("unexpected restoration for unused fiber: %+v", res)
	}
}

func TestSolveExactNilBase(t *testing.T) {
	if _, err := SolveExact(Problem{}, solver.Options{}); err == nil {
		t.Error("nil base accepted")
	}
}

func TestSolveExactExtraSpares(t *testing.T) {
	// One 600G wavelength fails; with no extra spares at most one channel
	// (≤500G at 1200 km) can be re-established, but an extra transponder
	// pair lets the exact solver stack a second channel and recover more.
	g := ring(t)
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: 16}
	p, r := planFor(t, g, ipAB(t, 600), transponder.SVT(), grid)
	base := Problem{
		Optical: g, IP: p.IP, Catalog: p.Catalog, Grid: grid, Base: r,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}}, K: 2,
	}
	without, err := SolveExact(base, solver.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	withSpares := base
	withSpares.ExtraSpares = map[string]int{"e1": 2}
	with, err := SolveExact(withSpares, solver.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if with.RestoredGbps < without.RestoredGbps {
		t.Errorf("extra spares reduced exact restoration: %d < %d", with.RestoredGbps, without.RestoredGbps)
	}
	if with.RestoredGbps != 600 {
		t.Errorf("with spares restored %d, want full 600 (e.g. 500+100)", with.RestoredGbps)
	}
	if without.RestoredGbps != 500 {
		t.Errorf("without spares restored %d, want 500 (single channel cap)", without.RestoredGbps)
	}
}
