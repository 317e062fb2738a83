package plan

import (
	"strings"
	"testing"

	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

func solvedBase(t *testing.T, demand int) (Problem, *Result) {
	t.Helper()
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: demand}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

func TestExtendAddsCapacity(t *testing.T) {
	p, r := solvedBase(t, 400)
	before := r.Transponders()
	beforeIntervals := map[spectrum.Interval]bool{}
	for _, w := range r.Wavelengths {
		beforeIntervals[w.Interval] = true
	}

	added, err := Extend(p, r, "e1", 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) == 0 {
		t.Fatal("no wavelengths added")
	}
	total := 0
	for _, w := range added {
		total += w.Mode.DataRateGbps
	}
	if total < 800 {
		t.Errorf("added %d Gbps, want ≥ 800", total)
	}
	if r.Transponders() != before+len(added) {
		t.Errorf("transponders = %d, want %d", r.Transponders(), before+len(added))
	}
	// Existing wavelengths untouched.
	for iv := range beforeIntervals {
		found := false
		for _, w := range r.Wavelengths {
			if w.Interval == iv {
				found = true
			}
		}
		if !found {
			t.Errorf("pre-existing interval %v disappeared", iv)
		}
	}
	// The extended result still verifies against the grown demand.
	p.IP = ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 1200})
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify after Extend: %v", err)
	}
	if lp := r.PerLink["e1"]; lp.DemandGbps != 1200 || lp.ProvisionedGbps < 1200 {
		t.Errorf("PerLink after Extend = %+v", lp)
	}
}

func TestExtendNewLink(t *testing.T) {
	p, r := solvedBase(t, 400)
	// Grow the IP topology with a link the base plan never saw.
	p.IP = ipLinks(t,
		topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400},
		topology.IPLink{ID: "e2", A: "B", B: "C", DemandGbps: 200},
	)
	added, err := Extend(p, r, "e2", 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) == 0 || added[0].LinkID != "e2" {
		t.Fatalf("added = %+v", added)
	}
	if err := Verify(p, r); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestExtendValidation(t *testing.T) {
	p, r := solvedBase(t, 400)
	if _, err := Extend(p, r, "e1", 0); err == nil {
		t.Error("zero addition accepted")
	}
	if _, err := Extend(p, r, "ghost", 100); err == nil {
		t.Error("unknown link accepted")
	}
	if _, err := Extend(p, nil, "e1", 100); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := Extend(p, &Result{}, "e1", 100); err == nil {
		t.Error("result without allocator accepted")
	}
}

func TestExtendSpectrumExhaustion(t *testing.T) {
	p := Problem{
		Optical: lineTopology(t),
		IP:      ipLinks(t, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400}),
		Catalog: transponder.SVT(),
		Grid:    spectrum.Grid{PixelGHz: 12.5, Pixels: 8}, // one 75 GHz channel + crumbs
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("base infeasible: %v", r.Unserved)
	}
	added, err := Extend(p, r, "e1", 100000)
	if err != nil {
		t.Fatal(err)
	}
	_ = added
	if r.Feasible() {
		t.Error("impossible extension not recorded as unserved")
	}
	// Partial capacity is retained and consistent.
	if err := r.Allocator.Verify(allAllocations(r)); err != nil {
		t.Errorf("allocator inconsistent after failed extension: %v", err)
	}
}

func TestDecommission(t *testing.T) {
	p, r := solvedBase(t, 1600)
	used := r.Allocator.UsedPixels()
	if used == 0 {
		t.Fatal("no pixels used by base plan")
	}
	freed, err := Decommission(r, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if freed == 0 {
		t.Error("nothing freed")
	}
	if r.Allocator.UsedPixels() != 0 {
		t.Errorf("pixels still used after decommission: %d", r.Allocator.UsedPixels())
	}
	if len(r.Wavelengths) != 0 {
		t.Errorf("wavelengths remain: %d", len(r.Wavelengths))
	}
	if _, ok := r.PerLink["e1"]; ok {
		t.Error("PerLink entry remains")
	}
	// Freed spectrum is reusable.
	if _, err := Extend(p, r, "e1", 400); err != nil {
		t.Errorf("Extend after Decommission: %v", err)
	}
}

func TestDecommissionUnknownLinkNoOp(t *testing.T) {
	_, r := solvedBase(t, 400)
	freed, err := Decommission(r, "ghost")
	if err != nil || freed != 0 {
		t.Errorf("Decommission(ghost) = %d, %v", freed, err)
	}
	if len(r.Wavelengths) == 0 {
		t.Error("existing wavelengths removed")
	}
}

// A release that fails midway must leave a plan that still describes the
// network: the wavelengths torn down so far are gone, the rest are where
// they were. (The in-place compaction used to return with the slice half
// shifted — [A, B, C] came back as [B, B, C] with A's spectrum freed.)
func TestDecommissionFailsMidwayConsistently(t *testing.T) {
	p := Problem{
		Optical: lineTopology(t),
		IP: ipLinks(t,
			topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 1600},
			topology.IPLink{ID: "e2", A: "B", B: "C", DemandGbps: 400},
		),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	var e1, e2 []Wavelength
	for _, w := range r.Wavelengths {
		if w.LinkID == "e1" {
			e1 = append(e1, w)
		} else {
			e2 = append(e2, w)
		}
	}
	if len(e1) != 2 || len(e2) != 1 {
		t.Fatalf("planned %d + %d wavelengths, want 2 + 1", len(e1), len(e2))
	}
	a, b, c := e1[0], e2[0], e1[1]
	r.Wavelengths = []Wavelength{a, b, c}
	// Someone freed c's spectrum behind the plan's back: it will not release.
	if err := r.Allocator.Release(allocationOf(c)); err != nil {
		t.Fatal(err)
	}

	freed, err := Decommission(r, "e1")
	if err == nil || freed != 1 {
		t.Fatalf("Decommission = %d, %v; want 1 freed and an error", freed, err)
	}
	if !strings.Contains(err.Error(), c.Interval.String()) {
		t.Errorf("error %q does not name the wavelength at %v", err, c.Interval)
	}
	same := func(x, y Wavelength) bool { return x.LinkID == y.LinkID && x.Interval == y.Interval }
	if len(r.Wavelengths) != 2 || !same(r.Wavelengths[0], b) || !same(r.Wavelengths[1], c) {
		t.Errorf("wavelengths after the failure: %+v, want [b c] = [%+v %+v]", r.Wavelengths, b, c)
	}
	if m := r.Allocator.FiberMap("f1"); m.UsedPixels() != 0 {
		t.Errorf("f1 holds %d pixels: a's were released and c's were already free", m.UsedPixels())
	}
	if err := r.Allocator.Verify([]spectrum.Allocation{allocationOf(b)}); err != nil {
		t.Errorf("the other link's wavelength lost its spectrum: %v", err)
	}
	want := LinkPlan{DemandGbps: 1600, ProvisionedGbps: c.Mode.DataRateGbps, Wavelengths: 1}
	if got := r.PerLink["e1"]; got != want {
		t.Errorf("PerLink[e1] = %+v, want %+v", got, want)
	}
	if len(r.Unserved) != 1 || r.Unserved[0] != "e1" {
		t.Errorf("Unserved = %v, want [e1]", r.Unserved)
	}
}

// allocationOf is a wavelength's allocation record, its fibers by ID.
func allocationOf(w Wavelength) spectrum.Allocation {
	al := spectrum.Allocation{Interval: w.Interval}
	for _, f := range w.Path.Fibers {
		al.Fibers = append(al.Fibers, spectrum.FiberID(f))
	}
	return al
}

func allAllocations(r *Result) []spectrum.Allocation {
	out := make([]spectrum.Allocation, len(r.Wavelengths))
	for i, w := range r.Wavelengths {
		out[i] = allocationOf(w)
	}
	return out
}
