package plan

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flexwan/internal/parallel"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// lineTopology builds A --f1(100km)-- B --f2(400km)-- C --f3(800km)-- D.
func lineTopology(t *testing.T) *topology.Optical {
	t.Helper()
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, b topology.NodeID
		l    float64
	}{
		{"f1", "A", "B", 100},
		{"f2", "B", "C", 400},
		{"f3", "C", "D", 800},
	} {
		if err := g.AddFiber(f.id, f.a, f.b, f.l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// meshTopology builds a 5-node mesh with path diversity.
func meshTopology(t *testing.T) *topology.Optical {
	t.Helper()
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, b topology.NodeID
		l    float64
	}{
		{"f1", "A", "B", 150},
		{"f2", "B", "C", 200},
		{"f3", "C", "D", 250},
		{"f4", "D", "E", 180},
		{"f5", "E", "A", 300},
		{"f6", "B", "E", 220},
		{"f7", "A", "C", 500},
	} {
		if err := g.AddFiber(f.id, f.a, f.b, f.l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func ipLinks(t *testing.T, links ...topology.IPLink) *topology.IPTopology {
	t.Helper()
	ip := &topology.IPTopology{}
	for _, l := range links {
		if err := ip.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return ip
}

func TestSolveSingleLink(t *testing.T) {
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("plan infeasible: unserved %v", r.Unserved)
	}
	// 400G over 100 km: one 400G@75GHz channel is the single-transponder,
	// minimum-spectrum choice.
	if r.Transponders() != 1 {
		t.Errorf("transponders = %d, want 1", r.Transponders())
	}
	w := r.Wavelengths[0]
	if w.Mode.DataRateGbps != 400 || w.Mode.SpacingGHz != 75 {
		t.Errorf("mode = %v, want 400G@75GHz", w.Mode)
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSolveMultiWavelength(t *testing.T) {
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 2000}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("unserved: %v", r.Unserved)
	}
	if r.Transponders() != 3 {
		t.Errorf("transponders = %d, want 3 (ceil(2000/800))", r.Transponders())
	}
	if lp := r.PerLink["e1"]; lp.ProvisionedGbps < 2000 {
		t.Errorf("provisioned %d < 2000", lp.ProvisionedGbps)
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSolveRespectsReach(t *testing.T) {
	// A–D is 1300 km: no 800G mode reaches; the best is 500G@100 (2000)…
	// actually 500G@112.5 reaches 1100 < 1300, 500G@125 reaches 1200,
	// 500G@137.5 reaches 1300. Every placed mode must have reach ≥ 1300.
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "D", DemandGbps: 1000}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
		K:       1,
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("unserved: %v", r.Unserved)
	}
	for _, w := range r.Wavelengths {
		if w.Mode.ReachKm < w.Path.LengthKm {
			t.Errorf("wavelength %v violates reach on %.0f km path", w.Mode, w.Path.LengthKm)
		}
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSolveSharedFiberConflictFree(t *testing.T) {
	// Two links both crossing fiber f2 must receive disjoint spectrum.
	p := Problem{
		Optical: lineTopology(t),
		IP: ipLinks(t,
			topology.IPLink{ID: "e1", A: "A", B: "C", DemandGbps: 800},
			topology.IPLink{ID: "e2", A: "B", B: "C", DemandGbps: 800},
		),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("unserved: %v", r.Unserved)
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Explicit pairwise overlap check on f2.
	var onF2 []Wavelength
	for _, w := range r.Wavelengths {
		for _, f := range w.Path.Fibers {
			if f == "f2" {
				onF2 = append(onF2, w)
			}
		}
	}
	if len(onF2) < 2 {
		t.Fatalf("expected ≥ 2 wavelengths on f2, got %d", len(onF2))
	}
	for i := range onF2 {
		for j := i + 1; j < len(onF2); j++ {
			if onF2[i].Interval.Overlaps(onF2[j].Interval) {
				t.Errorf("wavelengths %d and %d overlap on f2: %v vs %v",
					i, j, onF2[i].Interval, onF2[j].Interval)
			}
		}
	}
}

func TestSolveSpectrumExhaustion(t *testing.T) {
	// A 4-pixel grid (50 GHz) cannot carry 200 Gbps over 400 km with SVT
	// (200G needs ≥ 50 GHz and the second channel has nowhere to go).
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "B", B: "C", DemandGbps: 10000}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 4},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Feasible() {
		t.Fatal("plan should be infeasible on a 50 GHz band")
	}
	if len(r.Unserved) != 1 || r.Unserved[0] != "e1" {
		t.Errorf("Unserved = %v", r.Unserved)
	}
	// Partial provisioning is still conflict-free.
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSolveUsesAlternatePaths(t *testing.T) {
	// Demand that exceeds one path's spectrum must spill to the K=2 path.
	// Grid of 8 pixels (100 GHz): one 400G@75 (6 px) fills a path; the
	// next wavelength must take the second path.
	p := Problem{
		Optical: meshTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 8},
		K:       3,
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("unserved: %v", r.Unserved)
	}
	pathsUsed := map[int]bool{}
	for _, w := range r.Wavelengths {
		pathsUsed[w.PathIndex] = true
	}
	if len(pathsUsed) < 2 {
		t.Errorf("expected multiple candidate paths in use, got %v", pathsUsed)
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSolveSchemeOrdering(t *testing.T) {
	// FlexWAN ≤ RADWAN ≤ 100G-WAN in both transponders and spectrum on a
	// short-path-rich instance (the paper's core claim, Fig. 12).
	ip := ipLinks(t,
		topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 1600},
		topology.IPLink{ID: "e2", A: "B", B: "C", DemandGbps: 800},
		topology.IPLink{ID: "e3", A: "A", B: "C", DemandGbps: 1200},
		topology.IPLink{ID: "e4", A: "C", B: "D", DemandGbps: 600},
	)
	results := map[string]*Result{}
	for _, cat := range []transponder.Catalog{transponder.Fixed100G(), transponder.RADWAN(), transponder.SVT()} {
		p := Problem{
			Optical: meshTopology(t),
			IP:      ip,
			Catalog: cat,
			Grid:    spectrum.DefaultGrid(),
		}
		r, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible() {
			t.Fatalf("%s infeasible: %v", cat.Name, r.Unserved)
		}
		if err := Verify(p, r); err != nil {
			t.Fatalf("%s Verify: %v", cat.Name, err)
		}
		results[cat.Name] = r
	}
	fx, rad, flex := results["100G-WAN"], results["RADWAN"], results["FlexWAN"]
	if !(flex.Transponders() <= rad.Transponders() && rad.Transponders() <= fx.Transponders()) {
		t.Errorf("transponders: FlexWAN %d, RADWAN %d, 100G-WAN %d — ordering violated",
			flex.Transponders(), rad.Transponders(), fx.Transponders())
	}
	if !(flex.SpectrumGHz() <= rad.SpectrumGHz() && rad.SpectrumGHz() <= fx.SpectrumGHz()) {
		t.Errorf("spectrum: FlexWAN %v, RADWAN %v, 100G-WAN %v — ordering violated",
			flex.SpectrumGHz(), rad.SpectrumGHz(), fx.SpectrumGHz())
	}
	if flex.MeanSpectralEfficiency() <= rad.MeanSpectralEfficiency() {
		t.Errorf("spectral efficiency: FlexWAN %v ≤ RADWAN %v",
			flex.MeanSpectralEfficiency(), rad.MeanSpectralEfficiency())
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := Problem{
		Optical: meshTopology(t),
		IP: ipLinks(t,
			topology.IPLink{ID: "e1", A: "A", B: "D", DemandGbps: 900},
			topology.IPLink{ID: "e2", A: "B", B: "E", DemandGbps: 700},
		),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
	}
	r1, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Wavelengths) != len(r2.Wavelengths) {
		t.Fatalf("nondeterministic wavelength count: %d vs %d", len(r1.Wavelengths), len(r2.Wavelengths))
	}
	for i := range r1.Wavelengths {
		a, b := r1.Wavelengths[i], r2.Wavelengths[i]
		if a.LinkID != b.LinkID || *a.Mode != *b.Mode || a.Interval != b.Interval || !a.Path.Equal(*b.Path) {
			t.Errorf("wavelength %d differs between runs: %+v vs %+v", i, a, b)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	good := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
	}
	bad := good
	bad.Optical = nil
	if _, err := Solve(bad); err == nil {
		t.Error("nil optical accepted")
	}
	bad = good
	bad.Catalog = transponder.Catalog{}
	if _, err := Solve(bad); err == nil {
		t.Error("empty catalog accepted")
	}
	bad = good
	bad.Grid = spectrum.Grid{}
	if _, err := Solve(bad); err == nil {
		t.Error("zero grid accepted")
	}
	bad = good
	bad.IP = ipLinks(t, topology.IPLink{ID: "ghost", A: "X", B: "Y", DemandGbps: 100})
	if _, err := Solve(bad); err == nil {
		t.Error("IP link over unknown sites accepted")
	}
	// Disconnected endpoints fail at KSP time.
	g := lineTopology(t)
	g.AddNode("Z")
	bad = good
	bad.Optical = g
	bad.IP = ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "Z", DemandGbps: 100})
	if _, err := Solve(bad); err == nil || !strings.Contains(err.Error(), "no optical path") {
		t.Errorf("disconnected link error = %v", err)
	}
}

func TestSolveExactSmall(t *testing.T) {
	// Single link, 300 Gbps at 100 km, RADWAN, 12-pixel grid: the optimum
	// is one 8QAM 300G channel.
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 300}),
		Catalog: transponder.RADWAN(),
		Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 12},
		K:       1,
	}
	r, err := SolveExact(p, solver.Options{MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Transponders() != 1 {
		t.Errorf("exact transponders = %d, want 1", r.Transponders())
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestSolveExactConflict(t *testing.T) {
	// Two links sharing fiber f2, 12-pixel grid (150 GHz): two 75 GHz
	// channels exactly fill it; the MIP must pack them disjointly.
	p := Problem{
		Optical: lineTopology(t),
		IP: ipLinks(t,
			topology.IPLink{ID: "e1", A: "A", B: "C", DemandGbps: 200},
			topology.IPLink{ID: "e2", A: "B", B: "C", DemandGbps: 200},
		),
		Catalog: transponder.RADWAN(),
		Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 12},
		K:       1,
	}
	r, err := SolveExact(p, solver.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Transponders() != 2 {
		t.Errorf("exact transponders = %d, want 2", r.Transponders())
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestSolveExactWorkersDeterministic: the seed planning MIP must report
// identical objective and status for any solver worker count (run under
// -race in CI to exercise the concurrent frontier).
func TestSolveExactWorkersDeterministic(t *testing.T) {
	p := Problem{
		Optical: lineTopology(t),
		IP: ipLinks(t,
			topology.IPLink{ID: "e1", A: "A", B: "C", DemandGbps: 200},
			topology.IPLink{ID: "e2", A: "B", B: "C", DemandGbps: 200},
		),
		Catalog: transponder.RADWAN(),
		Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 12},
		K:       1,
	}
	ref, err := SolveExact(p, solver.Options{MaxNodes: 50000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Solver == nil || ref.Solver.Workers != 1 {
		t.Fatalf("reference SolveStats = %+v, want Workers 1", ref.Solver)
	}
	for _, w := range []int{2, 8} {
		r, err := SolveExact(p, solver.Options{MaxNodes: 50000, Workers: w})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if r.Solver.Status != ref.Solver.Status || r.Solver.Objective != ref.Solver.Objective {
			t.Errorf("Workers=%d solve = (%v, %v), want (%v, %v)", w,
				r.Solver.Status, r.Solver.Objective, ref.Solver.Status, ref.Solver.Objective)
		}
		if r.Solver.Workers != w {
			t.Errorf("Workers=%d SolveStats.Workers = %d", w, r.Solver.Workers)
		}
		if r.Transponders() != ref.Transponders() {
			t.Errorf("Workers=%d transponders = %d, want %d", w, r.Transponders(), ref.Transponders())
		}
		if err := Verify(p, r); err != nil {
			t.Errorf("Workers=%d Verify: %v", w, err)
		}
	}
}

func TestHeuristicMatchesExactCount(t *testing.T) {
	// On instances the exact solver can handle, the heuristic must find
	// the same transponder count (its mode choice is provably count-
	// optimal per link when spectrum is plentiful).
	cases := []struct {
		demand int
		want   int
	}{
		{100, 1}, {300, 1}, {500, 2}, {600, 2}, {900, 3},
	}
	// Problems are built on the test goroutine (the helpers may t.Fatal);
	// the independent heuristic-vs-exact solves then run concurrently,
	// which also exercises Solve/SolveExact under -race.
	probs := make([]Problem, len(cases))
	for i, tc := range cases {
		probs[i] = Problem{
			Optical: lineTopology(t),
			IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: tc.demand}),
			Catalog: transponder.RADWAN(),
			Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 24},
			K:       1,
		}
	}
	errs := parallel.ForEach(context.Background(), 0, len(cases), func(_ context.Context, i int) error {
		tc := cases[i]
		h, err := Solve(probs[i])
		if err != nil {
			return fmt.Errorf("demand %d: heuristic: %w", tc.demand, err)
		}
		e, err := SolveExact(probs[i], solver.Options{MaxNodes: 50000})
		if err != nil {
			return fmt.Errorf("demand %d: exact: %w", tc.demand, err)
		}
		if h.Transponders() != e.Transponders() {
			return fmt.Errorf("demand %d: heuristic %d vs exact %d transponders",
				tc.demand, h.Transponders(), e.Transponders())
		}
		if e.Transponders() != tc.want {
			return fmt.Errorf("demand %d: exact = %d, want %d", tc.demand, e.Transponders(), tc.want)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestSolveExactTooLarge(t *testing.T) {
	// A default-grid SVT instance explodes past the build cap and must be
	// refused, not attempted: an explicit Options.MaxVars binds
	// (Options.MaxBuildVars; the default is pinned by the solver's
	// TestMaxBuildVars).
	ip := &topology.IPTopology{}
	for i := 0; i < 10; i++ {
		id := string(rune('a' + i))
		if err := ip.AddLink(topology.IPLink{ID: id, A: "A", B: "D", DemandGbps: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	p := Problem{
		Optical: lineTopology(t),
		IP:      ip,
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
		K:       3,
	}
	if _, err := SolveExact(p, solver.Options{MaxVars: 100}); err == nil {
		t.Error("oversized exact MIP accepted despite explicit MaxVars")
	}
}

// TestSolveExactCapCountsClassColumns: the MaxVars guard counts the class
// columns the builder emits, not one γ per catalog mode. A 100 Gbps link
// over 100 km reaches all three RADWAN modes, 75 GHz each (6 of 12 pixels):
// 3 × 7 = 21 γs verbatim, but capped at the demand the three rates are one
// class, so 7 columns — a cap of 7 builds and solves, 6 refuses. The
// class column the heuristic's start sets carries the heuristic's own mode
// into the plan.
func TestSolveExactCapCountsClassColumns(t *testing.T) {
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100}),
		Catalog: transponder.RADWAN(),
		Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 12},
		K:       1,
	}
	r, err := SolveExact(p, solver.Options{MaxVars: 7})
	if err != nil {
		t.Fatalf("7 class columns under a cap of 7: %v", err)
	}
	if r.Transponders() != 1 || r.Solver.Status != solver.Optimal {
		t.Errorf("%v with %d transponders, want optimal with 1", r.Solver.Status, r.Transponders())
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// The start is proven optimal, so the plan is the heuristic's
	// wavelength, mode included, not another mode of its class.
	h, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Transponders() == 1 && (*r.Wavelengths[0].Mode != *h.Wavelengths[0].Mode || r.Wavelengths[0].Interval != h.Wavelengths[0].Interval) {
		t.Errorf("exact wavelength %v %v, heuristic's %v %v", *r.Wavelengths[0].Mode, r.Wavelengths[0].Interval, *h.Wavelengths[0].Mode, h.Wavelengths[0].Interval)
	}
	if _, err := SolveExact(p, solver.Options{MaxVars: 6}); err == nil {
		t.Error("7 class columns accepted under a cap of 6")
	}
}

func TestWavelengthGap(t *testing.T) {
	w := Wavelength{
		Path: &topology.Path{LengthKm: 400},
		Mode: &transponder.Mode{ReachKm: 600},
	}
	if g := w.GapKm(); g != 200 {
		t.Errorf("GapKm = %v, want 200", g)
	}
}

func TestResultObjective(t *testing.T) {
	r := &Result{Wavelengths: []Wavelength{
		{Mode: &transponder.Mode{DataRateGbps: 400, SpacingGHz: 75}},
		{Mode: &transponder.Mode{DataRateGbps: 800, SpacingGHz: 150}},
	}}
	if r.Transponders() != 2 {
		t.Errorf("Transponders = %d", r.Transponders())
	}
	if r.SpectrumGHz() != 225 {
		t.Errorf("SpectrumGHz = %v", r.SpectrumGHz())
	}
	want := 2 + 0.01*225
	if got := r.Objective(0.01); got != want {
		t.Errorf("Objective = %v, want %v", got, want)
	}
}
