package eval

import (
	"encoding/csv"
	"io"
	"strconv"
)

// CSVData is implemented by every figure result that can emit a
// plotting-ready table: a header row followed by data rows. The
// experiments CLI writes one file per figure so the paper's plots can be
// regenerated with any charting tool.
type CSVData interface {
	CSV() [][]string
}

// WriteCSV renders rows to w in RFC 4180 form.
func WriteCSV(w io.Writer, data CSVData) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(data.CSV()); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
func itoaCSV(v int) string  { return strconv.Itoa(v) }

// CSV emits the per-link path lengths (one row per link).
func (f Fig2a) CSV() [][]string {
	rows := [][]string{{"path_km"}}
	for _, l := range f.Lengths.Sorted {
		rows = append(rows, []string{ftoa(l)})
	}
	return rows
}

// CSV emits distance, SVT and BVT max rates.
func (f Fig2b) CSV() [][]string {
	rows := [][]string{{"distance_km", "svt_gbps", "bvt_gbps"}}
	for i := range f.DistancesKm {
		rows = append(rows, []string{ftoa(f.DistancesKm[i]), itoaCSV(f.SVTGbps[i]), itoaCSV(f.BVTGbps[i])})
	}
	return rows
}

// CSV emits the 800G provisioning sweep.
func (f Fig3) CSV() [][]string {
	rows := [][]string{{"distance_km", "svt_tx", "bvt_tx", "svt_ghz", "bvt_ghz"}}
	for i := range f.DistancesKm {
		rows = append(rows, []string{
			ftoa(f.DistancesKm[i]),
			itoaCSV(f.SVTTransponders[i]), itoaCSV(f.BVTTransponders[i]),
			ftoa(f.SVTSpectrumGHz[i]), ftoa(f.BVTSpectrumGHz[i]),
		})
	}
	return rows
}

// Table2CSV renders the testbed sweep rows.
type Table2CSV []Table2Row

// CSV emits rate, spacing, datasheet and measured reach.
func (rows Table2CSV) CSV() [][]string {
	out := [][]string{{"rate_gbps", "spacing_ghz", "table_km", "measured_km"}}
	for _, r := range rows {
		out = append(out, []string{
			itoaCSV(r.RateGbps), ftoa(r.SpacingGHz), ftoa(r.DatasheetKm), ftoa(r.MeasuredKm),
		})
	}
	return out
}

// CSV emits scale rows with per-scheme transponders and spectrum
// (−1 marks infeasible points).
func (f Fig12) CSV() [][]string {
	header := []string{"scale"}
	for _, cat := range Schemes() {
		header = append(header, cat.Name+"_tx", cat.Name+"_ghz")
	}
	rows := [][]string{header}
	for i, s := range f.Scales {
		row := []string{ftoa(s)}
		for _, cat := range Schemes() {
			row = append(row, itoaCSV(f.Transponders[cat.Name][i]), ftoa(f.SpectrumGHz[cat.Name][i]))
		}
		rows = append(rows, row)
	}
	return rows
}

// CSV emits the weighted path-length samples, one row per (network, km).
func (f Fig13a) CSV() [][]string {
	rows := [][]string{{"network", "path_km"}}
	for _, name := range f.names() {
		for _, l := range f.CDFs[name].Sorted {
			rows = append(rows, []string{name, ftoa(l)})
		}
	}
	return rows
}

// CSV emits per-wavelength gaps and spectral efficiencies per scheme.
func (f Fig14) CSV() [][]string {
	rows := [][]string{{"scheme", "metric", "value"}}
	for _, cat := range Schemes() {
		for _, v := range f.GapKm[cat.Name].Sorted {
			rows = append(rows, []string{cat.Name, "gap_km", ftoa(v)})
		}
		for _, v := range f.SpectralEff[cat.Name].Sorted {
			rows = append(rows, []string{cat.Name, "bps_per_hz", ftoa(v)})
		}
	}
	return rows
}

// CSV emits the restored-path stretch sample.
func (f Fig15a) CSV() [][]string {
	rows := [][]string{{"stretch"}}
	for _, v := range f.Stretch.Sorted {
		rows = append(rows, []string{ftoa(v)})
	}
	return rows
}

// CSV emits mean capability per scheme per scale (−1 = infeasible).
func (f Fig15b) CSV() [][]string {
	header := []string{"scale"}
	for _, cat := range Schemes() {
		header = append(header, cat.Name)
	}
	rows := [][]string{header}
	for i, s := range f.Scales {
		row := []string{ftoa(s)}
		for _, cat := range Schemes() {
			row = append(row, ftoa(f.Capability[cat.Name][i]))
		}
		rows = append(rows, row)
	}
	return rows
}

// CSV emits per-scenario capabilities per scheme.
func (f Fig16) CSV() [][]string {
	rows := [][]string{{"scheme", "capability"}}
	for _, name := range []string{"100G-WAN", "RADWAN", "FlexWAN", "FlexWAN+"} {
		cdf, ok := f.Capability[name]
		if !ok {
			continue
		}
		for _, v := range cdf.Sorted {
			rows = append(rows, []string{name, ftoa(v)})
		}
	}
	return rows
}

// GNCheckCSV renders the GN cross-check rows.
type GNCheckCSV []GNCheckRow

// CSV emits the cross-check per format.
func (rows GNCheckCSV) CSV() [][]string {
	out := [][]string{{"rate_gbps", "spacing_ghz", "table_km", "gn_km", "ratio"}}
	for _, r := range rows {
		out = append(out, []string{
			itoaCSV(r.RateGbps), ftoa(r.SpacingGHz), ftoa(r.TableKm), ftoa(r.GNKm), ftoa(r.Ratio),
		})
	}
	return out
}

// Compile-time interface conformance.
var (
	_ CSVData = Fig2a{}
	_ CSVData = Fig2b{}
	_ CSVData = Fig3{}
	_ CSVData = Table2CSV(nil)
	_ CSVData = Fig12{}
	_ CSVData = Fig13a{}
	_ CSVData = Fig14{}
	_ CSVData = Fig15a{}
	_ CSVData = Fig15b{}
	_ CSVData = Fig16{}
	_ CSVData = GNCheckCSV(nil)
)
