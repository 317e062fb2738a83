package eval

import (
	"context"
	"fmt"
	"strings"

	"flexwan/internal/parallel"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// restorationSweep takes the network's 1× plan for one scheme, then
// restores every 1-fiber failure scenario against that base, workers
// scenarios at a time.
func restorationSweep(n workload.Network, cat transponder.Catalog, extraSpares map[string]int, workers int) (restore.SweepResult, *plan.Result, error) {
	nw := networkOf(n)
	base, err := nw.plan(nw.point(cat, 1))
	if err != nil {
		return restore.SweepResult{}, nil, err
	}
	sweep, err := restore.SweepWithOptions(restore.Problem{
		Optical:     n.Optical,
		IP:          n.IP,
		Catalog:     cat,
		Grid:        spectrum.DefaultGrid(),
		Base:        base,
		ExtraSpares: extraSpares,
	}, restore.SingleFiberScenarios(n.Optical), restore.SweepOptions{Workers: workers})
	if err != nil {
		return restore.SweepResult{}, nil, err
	}
	return sweep, base, nil
}

// Fig15a is the distribution of restored-path/original-path length
// ratios over all 1-failure scenarios (paper Figure 15a: 90% of restored
// paths are longer; extremes exceed 10×).
type Fig15a struct {
	Network    string
	Stretch    CDF
	FracLonger float64
	// FailedScenarios counts 1-failure cases whose restoration solve
	// failed and were excluded from the distribution.
	FailedScenarios int
}

// Fig15aRestoredPathGaps measures FlexWAN's restoration path stretch.
// workers bounds the concurrent scenario solves (0 = all cores).
func Fig15aRestoredPathGaps(n workload.Network, workers int) (Fig15a, error) {
	sweep, _, err := restorationSweep(n, transponder.SVT(), nil, workers)
	if err != nil {
		return Fig15a{}, err
	}
	cdf := NewCDF(sweep.PathStretches())
	return Fig15a{
		Network:         n.Name,
		Stretch:         cdf,
		FracLonger:      1 - cdf.FractionBelow(1),
		FailedScenarios: sweep.Failed(),
	}, nil
}

func (f Fig15a) String() string {
	return fmt.Sprintf("Fig 15(a) — restored/original path length, %s\n  %s\n  restored longer than original: %.0f%% (paper: ≈90%%)\n",
		f.Network, f.Stretch.Summary(), f.FracLonger*100)
}

// Fig15b is mean restoration capability versus capacity scale for the
// three schemes (paper Figure 15b).
type Fig15b struct {
	Network    string
	Scales     []float64
	Capability map[string][]float64 // scheme → mean capability per scale; −1 when planning infeasible
}

// Fig15bRestorationVsScale sweeps scales and schemes. The (scheme, scale)
// points run through the worker pool; the scenario sweeps inside each
// point then run sequentially, so the total concurrency stays bounded by
// workers (0 = all cores). The plans and the sweeps are the network's memo
// points: Fig 12 has planned them, and Fig 16 reads the 1× sweeps.
func Fig15bRestorationVsScale(n workload.Network, scales []float64, workers int) (Fig15b, error) {
	out := Fig15b{
		Network:    n.Name,
		Scales:     scales,
		Capability: make(map[string][]float64),
	}
	nw := networkOf(n)
	// Point i is scheme i / len(scales) at scale i % len(scales).
	schemes := Schemes()
	caps, errs := parallel.Map(context.Background(), parallel.Workers(workers), len(schemes)*len(scales),
		func(_ context.Context, i int) (float64, error) {
			pt := nw.point(schemes[i/len(scales)], scales[i%len(scales)])
			if pt.err == nil && !pt.cost.feasible {
				return -1, nil
			}
			s, err := nw.sweep(pt, 1)
			return s.mean, err
		})
	for _, err := range errs {
		if err != nil {
			return Fig15b{}, err
		}
	}
	for i, c := range caps {
		name := schemes[i/len(scales)].Name
		out.Capability[name] = append(out.Capability[name], c)
	}
	return out, nil
}

func (f Fig15b) String() string {
	header := []string{"scale"}
	for _, cat := range Schemes() {
		header = append(header, cat.Name)
	}
	rows := make([][]string, len(f.Scales))
	for i, s := range f.Scales {
		row := []string{fmt.Sprintf("%g", s)}
		for _, cat := range Schemes() {
			c := f.Capability[cat.Name][i]
			if c < 0 {
				row = append(row, "infeasible")
			} else {
				row = append(row, fmt.Sprintf("%.3f", c))
			}
		}
		rows[i] = row
	}
	return fmt.Sprintf("Fig 15(b) — mean restoration capability vs scale, %s\n%s",
		f.Network, renderTable(header, rows))
}

// Fig16 is the distribution of restoration capability over all failure
// scenarios, under- and overloaded, including FlexWAN+ (paper Figure 16).
type Fig16 struct {
	Network string
	Scale   float64
	// Capability maps scheme → per-scenario capability CDF. Schemes are
	// the three standard ones plus "FlexWAN+".
	Capability map[string]CDF
}

// Fig16RestorationCDF sweeps all 1-failure scenarios at the given scale.
// FlexWAN+ gives every link extra spares equal to half the transponders
// FlexWAN saved against RADWAN (§8). workers bounds the concurrent
// scenario solves (0 = all cores). The plans and the spare-free sweeps are
// the network's memo points, shared with Fig 12 and Fig 15(b); only the
// FlexWAN+ sweep is Fig 16's own.
func Fig16RestorationCDF(n workload.Network, scale float64, workers int) (Fig16, error) {
	out := Fig16{
		Network:    n.Name,
		Scale:      scale,
		Capability: make(map[string]CDF),
	}
	nw := networkOf(n)
	var flex, rad *point
	for _, cat := range Schemes() {
		pt := nw.point(cat, scale)
		if pt.err == nil && !pt.cost.feasible {
			continue // scheme cannot even serve the load; omitted as in Fig 12
		}
		s, err := nw.sweep(pt, workers)
		if err != nil {
			return Fig16{}, err
		}
		out.Capability[cat.Name] = NewCDF(s.capabilities)
		switch cat.Name {
		case "FlexWAN":
			flex = pt
		case "RADWAN":
			rad = pt
		}
	}
	if flex != nil && rad != nil { // both feasible, so both plans are kept
		spares := restore.PlusSpares(flex.plan, rad.plan, 0.5)
		sweep, err := restore.SweepWithOptions(restore.Problem{
			Optical: nw.optical, IP: flex.ip, Catalog: flex.cat,
			Grid: spectrum.DefaultGrid(), Base: flex.plan, ExtraSpares: spares,
		}, nw.scenarios(), restore.SweepOptions{Workers: workers})
		if err != nil {
			return Fig16{}, err
		}
		out.Capability["FlexWAN+"] = NewCDF(sweep.Capabilities())
	}
	return out, nil
}

func (f Fig16) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 16 — restoration capability CDF, %s at %gx\n", f.Network, f.Scale)
	order := []string{"100G-WAN", "RADWAN", "FlexWAN", "FlexWAN+"}
	for _, name := range order {
		cdf, ok := f.Capability[name]
		if !ok {
			fmt.Fprintf(&b, "  %-9s (infeasible at this scale)\n", name+":")
			continue
		}
		fmt.Fprintf(&b, "  %-9s mean %.3f  %s\n", name+":", cdf.Mean(), cdf.Summary())
	}
	return b.String()
}

// ProbabilisticRestoration is the extension experiment over the paper's
// probabilistic failure model (§8 adopts TEAVAR-style scenarios):
// expected restoration capability under sampled multi-fiber failures,
// per scheme, at one capacity scale.
type ProbabilisticRestoration struct {
	Network   string
	Scale     float64
	Scenarios int
	// Capability maps scheme → probability-weighted mean capability.
	Capability map[string]float64
}

// ProbabilisticRestorationSweep samples n multi-fiber scenarios and
// restores each against every scheme's plan, workers scenarios at a
// time (0 = all cores).
func ProbabilisticRestorationSweep(n workload.Network, scale float64, seed int64, scenarios int, cutsPerThousandKm float64, workers int) (ProbabilisticRestoration, error) {
	scaled := n.Scale(scale)
	out := ProbabilisticRestoration{
		Network:    n.Name,
		Scale:      scale,
		Capability: make(map[string]float64),
	}
	scs := restore.ProbabilisticScenarios(n.Optical, seed, scenarios, cutsPerThousandKm)
	out.Scenarios = len(scs)
	nw := networkOf(n)
	for _, cat := range Schemes() {
		pt := nw.point(cat, scale)
		if pt.err == nil && !pt.cost.feasible {
			out.Capability[cat.Name] = -1
			continue
		}
		base, err := nw.plan(pt)
		if err != nil {
			return ProbabilisticRestoration{}, err
		}
		sweep, err := restore.SweepWithOptions(restore.Problem{
			Optical: n.Optical, IP: scaled.IP, Catalog: cat,
			Grid: spectrum.DefaultGrid(), Base: base,
		}, scs, restore.SweepOptions{Workers: workers})
		if err != nil {
			return ProbabilisticRestoration{}, err
		}
		out.Capability[cat.Name] = sweep.MeanCapability()
	}
	return out, nil
}

func (f ProbabilisticRestoration) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Probabilistic failures (extension) — expected capability, %s at %gx over %d scenarios\n",
		f.Network, f.Scale, f.Scenarios)
	for _, cat := range Schemes() {
		c, ok := f.Capability[cat.Name]
		if !ok || c < 0 {
			fmt.Fprintf(&b, "  %-9s infeasible\n", cat.Name+":")
			continue
		}
		fmt.Fprintf(&b, "  %-9s %.3f\n", cat.Name+":", c)
	}
	return b.String()
}
