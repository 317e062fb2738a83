package eval

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flexwan/internal/workload"
)

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{5, 1, 3, 2, 4})
	if c.Len() != 5 {
		t.Errorf("Len = %d", c.Len())
	}
	if got := c.FractionBelow(3); got != 0.6 {
		t.Errorf("FractionBelow(3) = %v, want 0.6", got)
	}
	if got := c.FractionBelow(0); got != 0 {
		t.Errorf("FractionBelow(0) = %v", got)
	}
	if got := c.FractionBelow(10); got != 1 {
		t.Errorf("FractionBelow(10) = %v", got)
	}
	if got := c.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := c.Percentile(100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := c.Percentile(50); got != 3 {
		t.Errorf("P50 = %v", got)
	}
	if got := c.Mean(); got != 3 {
		t.Errorf("Mean = %v", got)
	}
	empty := NewCDF(nil)
	if empty.Mean() != 0 || empty.Percentile(50) != 0 || empty.FractionBelow(1) != 0 {
		t.Error("empty CDF accessors should return 0")
	}
	if empty.Summary() != "(empty)" {
		t.Errorf("empty Summary = %q", empty.Summary())
	}
}

func TestFig2a(t *testing.T) {
	f := Fig2aPathLengthDistribution(workload.TBackbone(1))
	if f.FracUnder200 < 0.4 || f.FracUnder200 > 0.7 {
		t.Errorf("frac under 200 km = %v, want ≈ 0.5", f.FracUnder200)
	}
	if !strings.Contains(f.String(), "Fig 2(a)") {
		t.Error("String missing title")
	}
}

func TestFig2b(t *testing.T) {
	f := Fig2bMaxRateVsDistance()
	if len(f.DistancesKm) == 0 {
		t.Fatal("empty sweep")
	}
	for i := range f.DistancesKm {
		if f.SVTGbps[i] < f.BVTGbps[i] {
			t.Errorf("at %v km SVT %d < BVT %d", f.DistancesKm[i], f.SVTGbps[i], f.BVTGbps[i])
		}
	}
	// The paper's headline gap: at short distances SVT hits 800 while
	// BVT caps at 300.
	if f.SVTGbps[0] != 800 || f.BVTGbps[0] != 300 {
		t.Errorf("at 100 km: SVT %d (want 800), BVT %d (want 300)", f.SVTGbps[0], f.BVTGbps[0])
	}
	_ = f.String()
}

func TestFig3(t *testing.T) {
	f := Fig3Provision800G()
	if len(f.DistancesKm) == 0 {
		t.Fatal("empty sweep")
	}
	for i, d := range f.DistancesKm {
		if f.SVTTransponders[i] > f.BVTTransponders[i] {
			t.Errorf("at %v km SVT uses more transponders", d)
		}
		if f.SVTSpectrumGHz[i] > f.BVTSpectrumGHz[i]+1e-9 {
			t.Errorf("at %v km SVT uses more spectrum (%v > %v)", d, f.SVTSpectrumGHz[i], f.BVTSpectrumGHz[i])
		}
		// Paper: ≤ 300 km needs 1 SVT vs 3 BVT, 225 GHz for BVT.
		if d <= 300 {
			if f.SVTTransponders[i] != 1 || f.BVTTransponders[i] != 3 {
				t.Errorf("at %v km: SVT %d (want 1), BVT %d (want 3)", d, f.SVTTransponders[i], f.BVTTransponders[i])
			}
		}
		// Paper: at 1800 km SVT count is half of BVT's.
		if d == 1800 && f.SVTTransponders[i]*2 != f.BVTTransponders[i] {
			t.Errorf("at 1800 km: SVT %d, BVT %d (want 1:2)", f.SVTTransponders[i], f.BVTTransponders[i])
		}
	}
	_ = f.String()
}

func TestTable2Sweep(t *testing.T) {
	rows := Table2TestbedSweep()
	if len(rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(rows))
	}
	for _, r := range rows {
		if !r.WithinOneSpan {
			t.Errorf("%dG@%vGHz: measured %v km vs datasheet %v km (off by more than a span)",
				r.RateGbps, r.SpacingGHz, r.MeasuredKm, r.DatasheetKm)
		}
		if r.MeasuredKm < r.DatasheetKm-1e-9 && r.DatasheetKm-r.MeasuredKm > 80 {
			t.Errorf("%dG@%vGHz under-measures reach: %v < %v", r.RateGbps, r.SpacingGHz, r.MeasuredKm, r.DatasheetKm)
		}
	}
	if !strings.Contains(Table2String(rows), "Table 2") {
		t.Error("Table2String missing title")
	}
}

// TestFig12AndHeadlines pins Fig 12 and the §7.1 headline at seed 1 to
// the values EXPERIMENTS.md reports — the max supported scale and the
// transponder count at every scale per scheme, and the four headline
// savings as printed — so a change that moves a paper number fails a
// named assertion, not only a golden hash.
func TestFig12AndHeadlines(t *testing.T) {
	n := workload.TBackbone(1)
	f, err := Fig12HardwareVsScale(n, []float64{1, 2, 3, 4, 5, 6, 7, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 3× / 5× / 8×; −1 marks a scale the scheme cannot serve.
	want := map[string]struct {
		maxScale     float64
		transponders []int
	}{
		"FlexWAN":  {8, []int{86, 155, 228, 295, 369, 439, 512, 574}},
		"RADWAN":   {6, []int{178, 345, 503, 680, 848, 1005, -1, -1}},
		"100G-WAN": {3, []int{478, 956, 1434, -1, -1, -1, -1, -1}},
	}
	for scheme, w := range want {
		if got := f.MaxScale[scheme]; got != w.maxScale {
			t.Errorf("%s max scale = %gx, want %gx", scheme, got, w.maxScale)
		}
		if got := f.Transponders[scheme]; !reflect.DeepEqual(got, w.transponders) {
			t.Errorf("%s transponders per scale = %v, want %v", scheme, got, w.transponders)
		}
	}
	_ = f.String()

	s, err := HeadlineSavings(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []struct {
		name      string
		got       float64
		want      string
		paperNote string
	}{
		{"transponders saved vs 100G-WAN", s.TxSavedVs100G, "82", "paper 85%"},
		{"transponders saved vs RADWAN", s.TxSavedVsRADWAN, "52", "paper 57%"},
		{"spectrum saved vs 100G-WAN", s.SpectrumSavedVs100G, "68", "paper 67%"},
		{"spectrum saved vs RADWAN", s.SpectrumSavedVsRADWAN, "43", "paper 36%"},
	} {
		if got := fmt.Sprintf("%.0f", h.got); got != h.want {
			t.Errorf("%s = %s%% (%v), want %s%% (%s)", h.name, got, h.got, h.want, h.paperNote)
		}
	}
	_ = s.String()
}

// TestFig13 pins Fig 13(b) at seed 1 to the percentages EXPERIMENTS.md
// prints: transponders saved vs 100G-WAN and vs RADWAN, spectrum saved vs
// 100G-WAN and vs RADWAN, and the spectral-efficiency gain vs 100G-WAN, on
// T-backbone and on Cernet. The paper's claim that the short-path
// T-backbone gains more than Cernet holds in them.
func TestFig13(t *testing.T) {
	tb, ce := workload.TBackbone(1), workload.Cernet(1)
	a := Fig13aWeightedPathLengths(tb, ce)
	if a.Medians["T-backbone"] >= a.Medians["Cernet"] {
		t.Errorf("weighted medians: T-backbone %v ≥ Cernet %v", a.Medians["T-backbone"], a.Medians["Cernet"])
	}
	// The networks print in sorted name order, whatever order the map
	// ranges in.
	for i := 0; i < 20; i++ {
		s := a.String()
		if c, tb := strings.Index(s, "\n  Cernet:"), strings.Index(s, "\n  T-backbone:"); c < 0 || tb < c {
			t.Fatalf("Fig 13(a) does not print Cernet before T-backbone:\n%s", s)
		}
	}

	b, err := Fig13bTopologyGains(tb, ce)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][5]string{
		"T-backbone": {"82", "52", "68", "43", "199"},
		"Cernet":     {"63", "26", "49", "32", "80"},
	}
	if len(b.PerNetwork) != len(want) {
		t.Fatalf("gains for %d networks, want %d", len(b.PerNetwork), len(want))
	}
	for _, s := range b.PerNetwork {
		got := [5]string{}
		for i, v := range []float64{s.TxSavedVs100G, s.TxSavedVsRADWAN, s.SpectrumSavedVs100G, s.SpectrumSavedVsRADWAN, s.SpectralEffGainVs100G} {
			got[i] = fmt.Sprintf("%.0f", v)
		}
		if got != want[s.Network] {
			t.Errorf("%s: tx saved vs 100G/RADWAN, spectrum saved vs 100G/RADWAN, spectral-efficiency gain vs 100G = %v %%, want %v %%",
				s.Network, got, want[s.Network])
		}
	}
	_ = b.String()
}

func TestFig14(t *testing.T) {
	f, err := Fig14WavelengthDistributions(workload.TBackbone(1))
	if err != nil {
		t.Fatal(err)
	}
	// Fig 14a: most FlexWAN gaps are small; most 100G-WAN gaps exceed
	// 1000 km (paper: 80%). The paper reports 90% of FlexWAN gaps under
	// 100 km; our synthetic metro paths sit further from Table 2's reach
	// steps than the production mix, so the shape assertion is "small
	// relative to the rigid schemes" rather than the absolute 100 km.
	flexSmall := f.GapKm["FlexWAN"].FractionBelow(300)
	if flexSmall < 0.6 {
		t.Errorf("FlexWAN gaps ≤ 300 km = %.0f%%, want ≥ 60%%", flexSmall*100)
	}
	if f.GapKm["FlexWAN"].Percentile(90) >= f.GapKm["100G-WAN"].Percentile(90) {
		t.Error("FlexWAN p90 gap should be far below 100G-WAN's")
	}
	fxBig := 1 - f.GapKm["100G-WAN"].FractionBelow(1000)
	if fxBig < 0.5 {
		t.Errorf("100G-WAN gaps > 1000 km = %.0f%%, paper ≈ 80%%", fxBig*100)
	}
	// Fig 14b: 100G-WAN pinned at 2.0; FlexWAN dominates RADWAN.
	fx := f.SpectralEff["100G-WAN"]
	if fx.Percentile(0) != 2 || fx.Percentile(100) != 2 {
		t.Errorf("100G-WAN spectral efficiency not fixed at 2: %s", fx.Summary())
	}
	if f.SpectralEff["FlexWAN"].Mean() <= f.SpectralEff["RADWAN"].Mean() {
		t.Error("FlexWAN mean spectral efficiency does not exceed RADWAN's")
	}
	_ = f.String()
}

func TestFig15a(t *testing.T) {
	f, err := Fig15aRestoredPathGaps(workload.TBackbone(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stretch.Len() == 0 {
		t.Fatal("no restored paths measured")
	}
	// Paper: ~90% of restored paths are longer than the original.
	if f.FracLonger < 0.6 {
		t.Errorf("restored-longer fraction = %.0f%%, paper ≈ 90%%", f.FracLonger*100)
	}
	_ = f.String()
}

// TestFig15b pins Fig 15(b) at seed 1 — mean restoration capability per
// scheme at 1×, 3× and 5× — to the values EXPERIMENTS.md prints (−1: the
// scheme cannot serve the demand at that scale). Paper: underloaded, the
// rigid schemes restore nearly everything; overloaded, FlexWAN restores
// more than RADWAN (+15 %; +56 % here, known deviation 3).
func TestFig15b(t *testing.T) {
	f, err := Fig15bRestorationVsScale(workload.TBackbone(1), []float64{1, 3, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for scheme, want := range map[string][]string{
		"100G-WAN": {"0.910", "0.453", "-1"},
		"RADWAN":   {"0.960", "0.941", "0.582"},
		"FlexWAN":  {"0.943", "0.921", "0.906"},
	} {
		var got []string
		for _, c := range f.Capability[scheme] {
			if c == -1 {
				got = append(got, "-1")
			} else {
				got = append(got, fmt.Sprintf("%.3f", c))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s capability at 1x/3x/5x = %v, want %v", scheme, got, want)
		}
	}
	_ = f.String()
}

// TestFig16 pins the Fig 16 capability means at seed 1, 1× and 5×, to the
// values EXPERIMENTS.md prints; 100G-WAN cannot serve the 5× demand and has
// no series there. FlexWAN+ (extra spares) restores at least as much as
// FlexWAN at both scales.
func TestFig16(t *testing.T) {
	n := workload.TBackbone(1)
	for _, tc := range []struct {
		scale float64
		means map[string]string
	}{
		{1, map[string]string{"100G-WAN": "0.910", "RADWAN": "0.960", "FlexWAN": "0.943", "FlexWAN+": "0.946"}},
		{5, map[string]string{"RADWAN": "0.582", "FlexWAN": "0.906", "FlexWAN+": "0.934"}},
	} {
		f, err := Fig16RestorationCDF(n, tc.scale, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string, len(f.Capability))
		for scheme, cdf := range f.Capability {
			got[scheme] = fmt.Sprintf("%.3f", cdf.Mean())
		}
		if !reflect.DeepEqual(got, tc.means) {
			t.Errorf("means at %gx = %v, want %v", tc.scale, got, tc.means)
		}
		_ = f.String()
	}
}

func TestGNCrossCheck(t *testing.T) {
	rows := GNCrossCheck()
	if len(rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(rows))
	}
	inBand := 0
	for _, r := range rows {
		if r.GNKm < 0 {
			t.Errorf("%dG@%v: negative GN reach", r.RateGbps, r.SpacingGHz)
		}
		if r.Ratio >= 0.3 && r.Ratio <= 8 {
			inBand++
		}
	}
	// The GN model is an ideal-physics bound with a fixed margin; most
	// Table 2 points should land within a small factor of it.
	if frac := float64(inBand) / float64(len(rows)); frac < 0.6 {
		t.Errorf("only %.0f%% of formats within 0.3–8x of the GN prediction", frac*100)
	}
	if got := GNCheckString(rows); len(got) == 0 {
		t.Error("empty rendering")
	}
}

func TestProbabilisticRestorationSweep(t *testing.T) {
	f, err := ProbabilisticRestorationSweep(workload.TBackbone(1), 1, 7, 12, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Scenarios == 0 {
		t.Fatal("no scenarios")
	}
	for _, cat := range Schemes() {
		c := f.Capability[cat.Name]
		if c < 0 || c > 1 {
			t.Errorf("%s capability = %v", cat.Name, c)
		}
	}
	_ = f.String()
}

func TestReachSensitivityStudy(t *testing.T) {
	r, err := ReachSensitivityStudy(workload.TBackbone(1))
	if err != nil {
		t.Fatal(err)
	}
	if !r.MeasuredFeasible {
		t.Fatal("measured catalog infeasible at 1x")
	}
	if !r.GNFeasible {
		t.Fatal("GN-derived catalog infeasible at 1x")
	}
	if r.GNTx <= 0 || r.MeasuredTx <= 0 {
		t.Errorf("transponder counts: measured %d, GN %d", r.MeasuredTx, r.GNTx)
	}
	// The two reach models must agree within a small factor on total
	// hardware — the paper's conclusions are not an artifact of the
	// specific reach table.
	ratio := float64(r.GNTx) / float64(r.MeasuredTx)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("GN/measured transponder ratio = %.2f, want within 2x", ratio)
	}
	_ = r.String()
	// The derived catalog is structurally sound.
	cat := GNDerivedCatalog()
	if len(cat.Modes) == 0 {
		t.Fatal("empty GN catalog")
	}
	for _, m := range cat.Modes {
		if m.ReachKm <= 0 {
			t.Errorf("mode %v has nonpositive reach", m)
		}
	}
}

func TestCSVEmitters(t *testing.T) {
	n := workload.TBackbone(1)
	var emitters = map[string]CSVData{
		"fig2a":  Fig2aPathLengthDistribution(n),
		"fig2b":  Fig2bMaxRateVsDistance(),
		"fig3":   Fig3Provision800G(),
		"table2": Table2CSV(Table2TestbedSweep()),
		"gn":     GNCheckCSV(GNCrossCheck()),
		"fig13a": Fig13aWeightedPathLengths(n, workload.Cernet(1)),
	}
	f14, err := Fig14WavelengthDistributions(n)
	if err != nil {
		t.Fatal(err)
	}
	emitters["fig14"] = f14
	f15a, err := Fig15aRestoredPathGaps(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	emitters["fig15a"] = f15a

	for name, e := range emitters {
		rows := e.CSV()
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", name, len(rows))
			continue
		}
		width := len(rows[0])
		if width == 0 {
			t.Errorf("%s: empty header", name)
		}
		for i, r := range rows {
			if len(r) != width {
				t.Errorf("%s: row %d has %d cells, header has %d", name, i, len(r), width)
				break
			}
		}
		var buf strings.Builder
		if err := WriteCSV(&buf, e); err != nil {
			t.Errorf("%s: WriteCSV: %v", name, err)
		}
		if !strings.Contains(buf.String(), "\n") {
			t.Errorf("%s: no rows written", name)
		}
	}
}
