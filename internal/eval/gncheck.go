package eval

import (
	"fmt"
	"sort"
	"sync"

	"flexwan/internal/phy"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// GNCheckRow compares one SVT format's measured reach (Table 2) against
// the first-principles Gaussian-noise-model prediction — the independent
// physics plausibility check of the testbed numbers.
type GNCheckRow struct {
	RateGbps   int
	SpacingGHz float64
	TableKm    float64
	GNKm       float64
	Ratio      float64 // GN / table
}

// GNCrossCheck evaluates every SVT mode under the default GN parameters:
// required SNR from the mode's constellation and FEC via BER inversion,
// reach at the GN-optimal launch power in the mode's signal bandwidth.
func GNCrossCheck() []GNCheckRow {
	gn := phy.DefaultGN()
	var rows []GNCheckRow
	for _, m := range transponder.SVT().Modes {
		req := phy.RequiredSNRdB(m.Modulation, m.FEC)
		reach := gn.MaxReachKm(req, m.BaudGBd)
		ratio := 0.0
		if m.ReachKm > 0 {
			ratio = reach / m.ReachKm
		}
		rows = append(rows, GNCheckRow{
			RateGbps:   m.DataRateGbps,
			SpacingGHz: m.SpacingGHz,
			TableKm:    m.ReachKm,
			GNKm:       reach,
			Ratio:      ratio,
		})
	}
	return rows
}

// GNCheckString renders the cross-check with a median-ratio summary.
func GNCheckString(rows []GNCheckRow) string {
	table := make([][]string, len(rows))
	ratios := make([]float64, 0, len(rows))
	for i, r := range rows {
		table[i] = []string{
			fmt.Sprintf("%d", r.RateGbps),
			fmt.Sprintf("%.1f", r.SpacingGHz),
			fmt.Sprintf("%.0f", r.TableKm),
			fmt.Sprintf("%.0f", r.GNKm),
			fmt.Sprintf("%.2f", r.Ratio),
		}
		if r.Ratio > 0 {
			ratios = append(ratios, r.Ratio)
		}
	}
	sort.Float64s(ratios)
	median := 0.0
	if len(ratios) > 0 {
		median = ratios[len(ratios)/2]
	}
	return "GN-model cross-check of Table 2 (a-priori physics vs measured reach)\n" +
		renderTable([]string{"Gbps", "GHz", "table km", "GN km", "GN/table"}, table) +
		fmt.Sprintf("median GN/table ratio: %.2f (1.0 = perfect; deployed margins put measured below ideal)\n", median)
}

// GNDerivedCatalog returns the SVT catalog with every reach replaced by
// the GN-model prediction — what planning would look like if the operator
// trusted physics instead of testbed measurements. Like SVT(), it is built
// once per process: every call hands out the same read-only Modes and
// provision table.
func GNDerivedCatalog() transponder.Catalog { return gnCatalog() }

var gnCatalog = sync.OnceValue(func() transponder.Catalog {
	gn := phy.DefaultGN()
	return transponder.SVT().WithReaches("FlexWAN-GN", func(m transponder.Mode) float64 {
		return gn.MaxReachKm(phy.RequiredSNRdB(m.Modulation, m.FEC), m.BaudGBd)
	})
})

// ReachSensitivity compares planning outcomes under measured (Table 2)
// and GN-derived reaches on one network — the sensitivity of the paper's
// cost results to the reach model.
type ReachSensitivity struct {
	Network                      string
	MeasuredTx, GNTx             int
	MeasuredGHz, GNGHz           float64
	MeasuredFeasible, GNFeasible bool
}

// ReachSensitivityStudy plans the network with both catalogs, through the
// network's memo.
func ReachSensitivityStudy(n workload.Network) (ReachSensitivity, error) {
	out := ReachSensitivity{Network: n.Name}
	nw := networkOf(n)
	measured, gn := nw.point(transponder.SVT(), 1), nw.point(GNDerivedCatalog(), 1)
	for _, pt := range []*point{measured, gn} {
		if pt.err != nil {
			return out, pt.err
		}
	}
	out.MeasuredTx, out.GNTx = measured.cost.transponders, gn.cost.transponders
	out.MeasuredGHz, out.GNGHz = measured.cost.spectrumGHz, gn.cost.spectrumGHz
	out.MeasuredFeasible, out.GNFeasible = measured.cost.feasible, gn.cost.feasible
	return out, nil
}

func (r ReachSensitivity) String() string {
	return fmt.Sprintf(`Reach-model sensitivity, %s at 1x
  Table 2 reaches:   %d transponders, %.0f GHz (feasible %v)
  GN-model reaches:  %d transponders, %.0f GHz (feasible %v)
`, r.Network, r.MeasuredTx, r.MeasuredGHz, r.MeasuredFeasible, r.GNTx, r.GNGHz, r.GNFeasible)
}
