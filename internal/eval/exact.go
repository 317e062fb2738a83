package eval

import (
	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// ExactScalingProblem builds the two-link exact-planning instance the
// solver's engine-differential and memory tests scale: a two-fiber line
// A—B—C with two IP links on the RADWAN catalog over a pixels-wide grid.
// More pixels means more starting-pixel γ variables, hence a harder MIP.
// The instance grows roughly six variables per pixel, so any ladder up to
// a hundred-odd pixels sits far below the solver's build cap.
func ExactScalingProblem(pixels int) (plan.Problem, error) {
	g := topology.New()
	if err := g.AddFiber("f1", "A", "B", 100); err != nil {
		return plan.Problem{}, err
	}
	if err := g.AddFiber("f2", "B", "C", 400); err != nil {
		return plan.Problem{}, err
	}
	ip := &topology.IPTopology{}
	for _, l := range []topology.IPLink{
		{ID: "e1", A: "A", B: "B", DemandGbps: 300},
		{ID: "e2", A: "A", B: "C", DemandGbps: 200},
	} {
		if err := ip.AddLink(l); err != nil {
			return plan.Problem{}, err
		}
	}
	return plan.Problem{
		Optical: g, IP: ip, Catalog: transponder.RADWAN(),
		Grid: spectrum.Grid{PixelGHz: 12.5, Pixels: pixels}, K: 1,
	}, nil
}

// ExactTBackboneProblem builds a full-T-backbone exact-planning instance:
// the complete synthetic backbone of workload.TBackbone(seed) — all eight
// metro clusters, the long-haul core, and every IP link — with demands
// multiplied by scale so the wavelength count per link stays within exact
// reach, on a pixels-wide RADWAN grid with K candidate paths per link.
// Unlike the two-link ExactScalingProblem line, the MIP here carries the
// real topology's structure: shared metro fibers, long-haul transit, and
// per-fiber conflict rows across 36 fibers.
func ExactTBackboneProblem(seed int64, scale float64, pixels, k int) (plan.Problem, error) {
	n := workload.TBackbone(seed).Scale(scale)
	return plan.Problem{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.RADWAN(),
		Grid: spectrum.Grid{PixelGHz: 12.5, Pixels: pixels}, K: k,
	}, nil
}
