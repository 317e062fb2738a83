package restore

import (
	"testing"
	"unsafe"

	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// checkRestored fails unless every restored channel of res borrows what it
// chose — its path an entry of the link's post-failure K shortest paths,
// its mode a row of the catalog: the same memory, not an equal copy — and
// is paired as Restored.Original documents: a link's restored channels, in
// result order, with the link's failed wavelengths in base-plan order, and
// nil once those have run out. It returns how many channels had no original.
func checkRestored(t *testing.T, p Problem, res *Result) (unpaired int) {
	t.Helper()
	post := p.Optical.Without(res.Scenario.CutFibers...)
	failedOn := make(map[string][]int) // link → its failed wavelengths, ascending
	for _, i := range affected(p.Base, res.Scenario.CutFibers) {
		id := p.Base.Wavelengths[i].LinkID
		failedOn[id] = append(failedOn[id], i)
	}
	restoredOn := make(map[string]int)
	for i, r := range res.Restored {
		a, b, err := linkEnds(p.IP, r.LinkID)
		if err != nil {
			t.Fatal(err)
		}
		paths := post.KShortestPaths(a, b, p.k()) // the memo's slice: what the solve was given
		onPath := false
		for j := range paths {
			onPath = onPath || r.Path == &paths[j]
		}
		if !onPath {
			t.Fatalf("%s: restored %d (%s): Path is not one of the link's %d shortest post-failure paths", res.Scenario.ID, i, r.LinkID, p.k())
		}
		inCatalog := false
		for j := range p.Catalog.Modes {
			inCatalog = inCatalog || r.Mode == &p.Catalog.Modes[j]
		}
		if !inCatalog {
			t.Fatalf("%s: restored %d (%s): Mode %v does not point into the catalog", res.Scenario.ID, i, r.LinkID, r.Mode)
		}
		var want *plan.Wavelength
		if n := restoredOn[r.LinkID]; n < len(failedOn[r.LinkID]) {
			want = &p.Base.Wavelengths[failedOn[r.LinkID][n]]
		} else {
			unpaired++
		}
		restoredOn[r.LinkID]++
		if r.Original != want {
			t.Fatalf("%s: restored %d (%s): Original = %p, want %p (channel %d of the link, which lost %d)",
				res.Scenario.ID, i, r.LinkID, r.Original, want, restoredOn[r.LinkID], len(failedOn[r.LinkID]))
		}
		if want == nil && r.PathStretch() != 1 {
			t.Errorf("%s: restored %d (%s): PathStretch %v with no original", res.Scenario.ID, i, r.LinkID, r.PathStretch())
		}
	}
	return unpaired
}

func TestRestoredBorrowsBaseAndCatalog(t *testing.T) {
	for name, p := range plannedNetworks(t) {
		sweep, err := SweepWithOptions(p, SingleFiberScenarios(p.Optical), SweepOptions{Workers: 2})
		if err != nil || sweep.Failed() != 0 {
			t.Fatalf("%s: %v, failed %v", name, err, sweep.FailedIDs())
		}
		restored := 0
		for _, res := range sweep.Results {
			if n := checkRestored(t, p, res); n != 0 {
				t.Errorf("%s, %s: %d channels without an original, and no extra spares", name, res.Scenario.ID, n)
			}
			restored += len(res.Restored)
		}
		if restored == 0 {
			t.Errorf("%s: nothing restored", name)
		}
	}
}

// FlexWAN+ (Fig 16) gives each link half the transponders FlexWAN saved over
// RADWAN as spares. A cut link revives more channels than it lost — the
// detour is longer, the rates lower — and those past its failed wavelengths
// have no original: nil, not a zero wavelength.
func TestExtraSpareChannelsHaveNoOriginal(t *testing.T) {
	n := workload.TBackbone(1)
	var bases [2]*plan.Result
	for i, cat := range []transponder.Catalog{transponder.SVT(), transponder.RADWAN()} {
		var err error
		bases[i], err = plan.Solve(plan.Problem{Optical: n.Optical, IP: n.IP, Catalog: cat, Grid: spectrum.DefaultGrid()})
		if err != nil {
			t.Fatal(err)
		}
	}
	p := Problem{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(),
		Base: bases[0], ExtraSpares: PlusSpares(bases[0], bases[1], 0.5),
	}
	sweep, err := SweepWithOptions(p, SingleFiberScenarios(n.Optical), SweepOptions{Workers: 2})
	if err != nil || sweep.Failed() != 0 {
		t.Fatalf("%v, failed %v", err, sweep.FailedIDs())
	}
	unpaired := 0
	for _, res := range sweep.Results {
		unpaired += checkRestored(t, p, res)
	}
	if unpaired == 0 {
		t.Error("no cut used an extra spare: the test checked nothing")
	}
	if got := len(sweep.PathStretches()); got == 0 {
		t.Error("no path stretch among the paired channels")
	}
}

// The heuristic and the MIP choose different channels but pair them by the
// one rule: on the Fig 4 ring with two extra spares the link lost one
// wavelength, so each solver's first channel revives it and any further one
// has no original.
func TestHeuristicAndExactPairAlike(t *testing.T) {
	g := ring(t)
	grid := spectrum.Grid{PixelGHz: 12.5, Pixels: 16}
	pp, r := planFor(t, g, ipAB(t, 600), transponder.SVT(), grid)
	p := Problem{
		Optical: g, IP: pp.IP, Catalog: pp.Catalog, Grid: grid, Base: r,
		Scenario: Scenario{ID: "cut-f1", CutFibers: []string{"f1"}}, K: 2,
		ExtraSpares: map[string]int{"e1": 2},
	}
	if len(r.Wavelengths) != 1 {
		t.Fatalf("base plan has %d wavelengths, want 1", len(r.Wavelengths))
	}
	heuristic, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SolveExact(p, solver.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*Result{"heuristic": heuristic, "exact": exact} {
		if len(res.Restored) < 2 {
			t.Fatalf("%s: %d channels restored, want the extra spares used", name, len(res.Restored))
		}
		if got, want := checkRestored(t, p, res), len(res.Restored)-1; got != want {
			t.Errorf("%s: %d channels without an original, want %d", name, got, want)
		}
	}
}

// See plan's TestWavelengthSize.
func TestRestoredSize(t *testing.T) {
	if size := unsafe.Sizeof(Restored{}); size > 64 {
		t.Errorf("Restored is %d bytes, want ≤ 64", size)
	}
}
