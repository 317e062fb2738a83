package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flexwan/internal/parallel"
	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// Schemes returns the three backbone designs the paper compares, in the
// order they appear in every figure.
func Schemes() []transponder.Catalog {
	return []transponder.Catalog{
		transponder.Fixed100G(),
		transponder.RADWAN(),
		transponder.SVT(),
	}
}

// planScheme runs the planning heuristic for one scheme on a network.
func planScheme(n workload.Network, cat transponder.Catalog) (*plan.Result, error) {
	return plan.Solve(plan.Problem{
		Optical: n.Optical,
		IP:      n.IP,
		Catalog: cat,
		Grid:    spectrum.DefaultGrid(),
	})
}

// Fig12 is the hardware-cost-versus-scale sweep (paper Figure 12):
// transponder count and spectrum usage per scheme as demands grow, and
// the maximum scale each scheme can serve with the existing fiber plant.
type Fig12 struct {
	Network      string
	Scales       []float64
	Transponders map[string][]int     // −1 where the scale is infeasible
	SpectrumGHz  map[string][]float64 // −1 where infeasible
	MaxScale     map[string]float64
}

// Fig12HardwareVsScale sweeps demands from 1× upward in the given
// scales (e.g. 1..8). The (scheme, scale) points are independent plans,
// so they run through the shared worker pool (workers ≤ 0 = GOMAXPROCS).
// Each is planned once per network: the headline and the restoration
// figures read the same points from the memo.
func Fig12HardwareVsScale(n workload.Network, scales []float64, workers int) (Fig12, error) {
	out := Fig12{
		Network:      n.Name,
		Scales:       scales,
		Transponders: make(map[string][]int),
		SpectrumGHz:  make(map[string][]float64),
		MaxScale:     make(map[string]float64),
	}
	nw := networkOf(n)
	// Point i is scheme i / len(scales) at scale i % len(scales).
	schemes := Schemes()
	costs, errs := parallel.Map(context.Background(), parallel.Workers(workers), len(schemes)*len(scales),
		func(_ context.Context, i int) (cost, error) {
			cat, scale := schemes[i/len(scales)], scales[i%len(scales)]
			pt := nw.point(cat, scale)
			if pt.err != nil {
				return cost{}, fmt.Errorf("eval: %s at %gx: %w", cat.Name, scale, pt.err)
			}
			return pt.cost, nil
		})
	for _, err := range errs {
		if err != nil {
			return Fig12{}, err
		}
	}
	for i, c := range costs {
		name, scale := schemes[i/len(scales)].Name, scales[i%len(scales)]
		tx, ghz := -1, -1.0 // a scale the scheme cannot serve
		if c.feasible {
			tx, ghz = c.transponders, c.spectrumGHz
			out.MaxScale[name] = max(out.MaxScale[name], scale)
		}
		out.Transponders[name] = append(out.Transponders[name], tx)
		out.SpectrumGHz[name] = append(out.SpectrumGHz[name], ghz)
	}
	return out, nil
}

func (f Fig12) String() string {
	header := []string{"scale"}
	for _, cat := range Schemes() {
		header = append(header, cat.Name+" tx", cat.Name+" GHz")
	}
	rows := make([][]string, len(f.Scales))
	for i, s := range f.Scales {
		row := []string{fmt.Sprintf("%g", s)}
		for _, cat := range Schemes() {
			tx := f.Transponders[cat.Name][i]
			sp := f.SpectrumGHz[cat.Name][i]
			if tx < 0 {
				row = append(row, "infeasible", "-")
			} else {
				row = append(row, fmt.Sprintf("%d", tx), fmt.Sprintf("%.0f", sp))
			}
		}
		rows[i] = row
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12 — hardware vs capacity scale, %s\n", f.Network)
	b.WriteString(renderTable(header, rows))
	for _, cat := range Schemes() {
		fmt.Fprintf(&b, "max supported scale, %s: %gx\n", cat.Name, f.MaxScale[cat.Name])
	}
	return b.String()
}

// Savings reports the paper's §7.1 headline percentages at one scale:
// FlexWAN's reduction in transponders and spectrum versus each baseline.
type Savings struct {
	Network                 string
	Scale                   float64
	TxSavedVs100G           float64 // paper: 85%
	TxSavedVsRADWAN         float64 // paper: 57%
	SpectrumSavedVs100G     float64 // paper: 67%
	SpectrumSavedVsRADWAN   float64 // paper: 36%
	SpectralEffGainVs100G   float64 // paper: up to 215%
	SpectralEffGainVsRADWAN float64
}

// HeadlineSavings computes the §7.1 comparisons on a network, from the
// network's memo points at the given scale.
func HeadlineSavings(n workload.Network, scale float64) (Savings, error) {
	nw := networkOf(n)
	costs := make(map[string]cost, 3)
	for _, cat := range Schemes() {
		pt := nw.point(cat, scale)
		if pt.err != nil {
			return Savings{}, pt.err
		}
		if !pt.cost.feasible {
			return Savings{}, fmt.Errorf("eval: %s infeasible at %gx on %s", cat.Name, scale, n.Name)
		}
		costs[cat.Name] = pt.cost
	}
	fx, rad, flex := costs["100G-WAN"], costs["RADWAN"], costs["FlexWAN"]
	saved := func(base, ours float64) float64 {
		if base == 0 {
			return 0
		}
		return (base - ours) / base * 100
	}
	gain := func(base, ours float64) float64 {
		if base == 0 {
			return 0
		}
		return (ours - base) / base * 100
	}
	return Savings{
		Network:                 n.Name,
		Scale:                   scale,
		TxSavedVs100G:           saved(float64(fx.transponders), float64(flex.transponders)),
		TxSavedVsRADWAN:         saved(float64(rad.transponders), float64(flex.transponders)),
		SpectrumSavedVs100G:     saved(fx.spectrumGHz, flex.spectrumGHz),
		SpectrumSavedVsRADWAN:   saved(rad.spectrumGHz, flex.spectrumGHz),
		SpectralEffGainVs100G:   gain(fx.spectralEff, flex.spectralEff),
		SpectralEffGainVsRADWAN: gain(rad.spectralEff, flex.spectralEff),
	}, nil
}

func (s Savings) String() string {
	return fmt.Sprintf(`§7.1 headline savings, %s at %gx
  transponders saved vs 100G-WAN: %.0f%% (paper 85%%)   vs RADWAN: %.0f%% (paper 57%%)
  spectrum saved vs 100G-WAN:     %.0f%% (paper 67%%)   vs RADWAN: %.0f%% (paper 36%%)
  spectral-efficiency gain vs 100G-WAN: %.0f%% (paper ≤215%%)  vs RADWAN: %.0f%%
`, s.Network, s.Scale,
		s.TxSavedVs100G, s.TxSavedVsRADWAN,
		s.SpectrumSavedVs100G, s.SpectrumSavedVsRADWAN,
		s.SpectralEffGainVs100G, s.SpectralEffGainVsRADWAN)
}

// Fig13a is the capacity-weighted path-length comparison of the two
// topologies (paper Figure 13a).
type Fig13a struct {
	Medians map[string]float64 // network → capacity-weighted median km
	CDFs    map[string]CDF     // network → weighted sample (expanded)
}

// Fig13aWeightedPathLengths computes weighted distributions for the
// networks.
func Fig13aWeightedPathLengths(networks ...workload.Network) Fig13a {
	out := Fig13a{Medians: make(map[string]float64), CDFs: make(map[string]CDF)}
	for _, n := range networks {
		lengths, weights := n.WeightedPathLengthsKm()
		// Expand by demand in 100G units to weight the empirical CDF.
		var sample []float64
		for i, l := range lengths {
			units := int(weights[i] / 100)
			if units < 1 {
				units = 1
			}
			for u := 0; u < units; u++ {
				sample = append(sample, l)
			}
		}
		cdf := NewCDF(sample)
		out.CDFs[n.Name] = cdf
		out.Medians[n.Name] = cdf.Percentile(50)
	}
	return out
}

func (f Fig13a) String() string {
	var b strings.Builder
	b.WriteString("Fig 13(a) — capacity-weighted optical path lengths\n")
	for _, name := range f.names() {
		fmt.Fprintf(&b, "  %-11s %s\n", name+":", f.CDFs[name].Summary())
	}
	return b.String()
}

// names lists the networks in sorted order, the order String and CSV
// print them in.
func (f Fig13a) names() []string {
	names := make([]string, 0, len(f.CDFs))
	for name := range f.CDFs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Fig13b carries the per-topology gains (paper Figure 13b): both
// networks' savings side by side.
type Fig13b struct {
	PerNetwork []Savings
}

// Fig13bTopologyGains computes scale-1 savings on each network.
func Fig13bTopologyGains(networks ...workload.Network) (Fig13b, error) {
	var out Fig13b
	for _, n := range networks {
		s, err := HeadlineSavings(n, 1)
		if err != nil {
			return Fig13b{}, err
		}
		out.PerNetwork = append(out.PerNetwork, s)
	}
	return out, nil
}

func (f Fig13b) String() string {
	var b strings.Builder
	b.WriteString("Fig 13(b) — FlexWAN gains per topology\n")
	for _, s := range f.PerNetwork {
		b.WriteString(s.String())
	}
	return b.String()
}

// Fig14 carries the per-wavelength distributions of the configured
// backbone (paper Figure 14): reach−length gaps and spectral efficiency.
type Fig14 struct {
	Network     string
	GapKm       map[string]CDF // scheme → gap distribution (Fig 14a)
	SpectralEff map[string]CDF // scheme → bps/Hz distribution (Fig 14b)
}

// Fig14WavelengthDistributions plans each scheme at scale 1 and collects
// per-wavelength metrics.
func Fig14WavelengthDistributions(n workload.Network) (Fig14, error) {
	out := Fig14{
		Network:     n.Name,
		GapKm:       make(map[string]CDF),
		SpectralEff: make(map[string]CDF),
	}
	nw := networkOf(n)
	for _, cat := range Schemes() {
		res, err := nw.plan(nw.point(cat, 1))
		if err != nil {
			return Fig14{}, err
		}
		var gaps, effs []float64
		for _, w := range res.Wavelengths {
			gaps = append(gaps, w.GapKm())
			effs = append(effs, w.Mode.SpectralEfficiency())
		}
		out.GapKm[cat.Name] = NewCDF(gaps)
		out.SpectralEff[cat.Name] = NewCDF(effs)
	}
	return out, nil
}

func (f Fig14) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14(a) — reach − path length (km), %s\n", f.Network)
	for _, cat := range Schemes() {
		cdf := f.GapKm[cat.Name]
		fmt.Fprintf(&b, "  %-9s %s  (≤100 km: %.0f%%)\n", cat.Name+":", cdf.Summary(), cdf.FractionBelow(100)*100)
	}
	fmt.Fprintf(&b, "Fig 14(b) — link spectral efficiency (b/s/Hz), %s\n", f.Network)
	for _, cat := range Schemes() {
		fmt.Fprintf(&b, "  %-9s %s\n", cat.Name+":", f.SpectralEff[cat.Name].Summary())
	}
	return b.String()
}
