package plan_test

import (
	"fmt"
	"testing"
	"unsafe"

	"flexwan/internal/plan"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// checkShared fails unless every wavelength borrows what it chose: its
// path is the result's own candidate, its mode a row of the problem's
// catalog — the same memory, not an equal copy.
func checkShared(t *testing.T, p plan.Problem, res *plan.Result, ws []plan.Wavelength) {
	t.Helper()
	modes := p.Catalog.Modes
	for i, w := range ws {
		if w.PathIndex >= len(res.Paths[w.LinkID]) || w.Path != &res.Paths[w.LinkID][w.PathIndex] {
			t.Fatalf("wavelength %d (%s): Path is not Paths[%s][%d]", i, w.LinkID, w.LinkID, w.PathIndex)
		}
		inCatalog := false
		for j := range modes {
			inCatalog = inCatalog || w.Mode == &modes[j]
		}
		if !inCatalog {
			t.Fatalf("wavelength %d (%s): Mode %v does not point into the catalog", i, w.LinkID, w.Mode)
		}
	}
}

func TestWavelengthsBorrowPathsAndCatalog(t *testing.T) {
	for name, n := range map[string]workload.Network{
		"tbackbone-1": workload.TBackbone(1),
		"tbackbone-7": workload.TBackbone(7),
		"cernet-1":    workload.Cernet(1),
	} {
		for _, cat := range []transponder.Catalog{transponder.Fixed100G(), transponder.RADWAN(), transponder.SVT()} {
			for _, scale := range []float64{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/%s/%gx", name, cat.Name, scale), func(t *testing.T) {
					scaled := n.Scale(scale)
					p := plan.Problem{Optical: scaled.Optical, IP: scaled.IP, Catalog: cat, Grid: spectrum.DefaultGrid()}
					res, err := plan.Solve(p)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Wavelengths) == 0 {
						t.Fatal("nothing planned")
					}
					checkShared(t, p, res, res.Wavelengths)
					// Growth goes through the same placer: what it adds, and
					// what it returns, borrow too.
					link := scaled.IP.Links[len(scaled.IP.Links)/2]
					added, err := plan.Extend(p, res, link.ID, 400)
					if err != nil {
						t.Fatal(err)
					}
					checkShared(t, p, res, res.Wavelengths)
					checkShared(t, p, res, added)
				})
			}
		}
	}
}

// The exact solver builds its wavelengths from the γ variables that came
// out at 1; they must point at the result's paths and the catalog, not into
// the variable list.
func TestExactWavelengthsBorrowPathsAndCatalog(t *testing.T) {
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, b topology.NodeID
		km   float64
	}{{"f1", "A", "B", 100}, {"f2", "B", "C", 400}} {
		if err := g.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			t.Fatal(err)
		}
	}
	ip := &topology.IPTopology{}
	for _, l := range []topology.IPLink{
		{ID: "e1", A: "A", B: "C", DemandGbps: 200},
		{ID: "e2", A: "B", B: "C", DemandGbps: 200},
	} {
		if err := ip.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	// Two 75 GHz channels exactly fill the 12 pixels of f2.
	p := plan.Problem{Optical: g, IP: ip, Catalog: transponder.RADWAN(), Grid: spectrum.Grid{PixelGHz: 12.5, Pixels: 12}, K: 1}
	res, err := plan.SolveExact(p, solver.Options{MaxNodes: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Wavelengths) < 2 {
		t.Fatalf("%d wavelengths", len(res.Wavelengths))
	}
	checkShared(t, p, res, res.Wavelengths)
}

// A wavelength is a link, an index, two pointers and an interval: what a
// plan of thousands of them allocates. A field that copies a path header or
// a catalog row back in breaks this before it shows in a benchmark.
func TestWavelengthSize(t *testing.T) {
	if size := unsafe.Sizeof(plan.Wavelength{}); size > 64 {
		t.Errorf("plan.Wavelength is %d bytes, want ≤ 64", size)
	}
}
