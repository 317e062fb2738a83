// Package transponder models optical transponders and their operating
// modes: the fixed-rate 100G transponder of traditional WANs, the
// bandwidth-variable transponder (BVT) of RADWAN, and FlexWAN's
// spacing-variable transponder (SVT).
//
// A transponder mode is one (data rate, channel spacing, optical reach)
// operating point, realized inside the device by a combination of baud
// rate, constellation, and FEC overhead (§4.2 of the paper). The SVT
// catalog is Table 2 of the paper verbatim — the specifications measured
// on the production-level testbed (§6) — which is exactly what the
// paper's planning and restoration algorithms consume.
package transponder

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"flexwan/internal/phy"
	"flexwan/internal/spectrum"
)

// rolloffFactor maps channel spacing to symbol rate: the signal's baud is
// 75% of the spacing, leaving room for pulse-shaping roll-off and guard
// bands. A 50 GHz channel carries the paper's 37.5 GBd example signal.
const rolloffFactor = 0.75

// Mode is one operating point of a transponder.
type Mode struct {
	// DataRateGbps is the net (post-FEC) client data rate.
	DataRateGbps int
	// SpacingGHz is the channel spacing the wavelength occupies.
	SpacingGHz float64
	// ReachKm is the maximum error-free transmission distance.
	ReachKm float64
	// Modulation is the DSP constellation realizing the mode.
	Modulation phy.Modulation
	// BaudGBd is the symbol rate.
	BaudGBd float64
	// FEC is the forward-error-correction configuration.
	FEC phy.FEC
}

// newMode derives the DSP parameters (baud, FEC, constellation) for a
// (rate, spacing, reach) operating point. Long-reach modes use the
// stronger 27% FEC; short-reach modes the lighter 15% code.
func newMode(rateGbps int, spacingGHz, reachKm float64) Mode {
	baud := spacingGHz * rolloffFactor
	fec := phy.FEC15
	if reachKm > 1000 {
		fec = phy.FEC27
	}
	bits := float64(rateGbps) * (1 + fec.Overhead) / baud
	return Mode{
		DataRateGbps: rateGbps,
		SpacingGHz:   spacingGHz,
		ReachKm:      reachKm,
		Modulation:   nearestModulation(bits),
		BaudGBd:      baud,
		FEC:          fec,
	}
}

// nearestModulation labels a bits-per-symbol working point with the
// standard constellation that realizes it, or a PCS format when the
// point falls between square constellations.
func nearestModulation(bitsPerSymbol float64) phy.Modulation {
	standard := []phy.Modulation{phy.BPSK, phy.QPSK, phy.QAM8, phy.QAM16, phy.QAM32, phy.QAM64, phy.QAM256}
	for _, m := range standard {
		if math.Abs(m.BitsPerSymbol-bitsPerSymbol) < 0.25 {
			return m
		}
	}
	return phy.PCS(bitsPerSymbol)
}

// Pixels returns the number of grid pixels the mode's channel occupies.
func (m Mode) Pixels(g spectrum.Grid) int {
	n, err := g.PixelsFor(m.SpacingGHz)
	if err != nil {
		// Catalog modes are validated against the default grid at
		// construction; a failure here means a caller-supplied grid
		// cannot hold the channel at all.
		return g.Pixels + 1
	}
	return n
}

// Feasible reports whether the mode can carry a signal over distKm.
func (m Mode) Feasible(distKm float64) bool { return m.ReachKm >= distKm }

// SpectralEfficiency returns data rate per spectrum width (bps/Hz), the
// paper's link spectral efficiency metric (Fig. 14b).
func (m Mode) SpectralEfficiency() float64 {
	return float64(m.DataRateGbps) / m.SpacingGHz
}

// RequiredOSNRdB returns the minimum received OSNR for error-free
// decoding, derived by inverting the link model at the measured reach.
// This is how the simulated hardware turns Table 2 into datasheet
// thresholds (see internal/phy).
func (m Mode) RequiredOSNRdB(link phy.LinkModel) float64 {
	return link.RequiredOSNRForReach(m.ReachKm)
}

func (m Mode) String() string {
	return fmt.Sprintf("%dG@%.1fGHz/%.0fkm(%s)", m.DataRateGbps, m.SpacingGHz, m.ReachKm, m.Modulation.Name)
}

// Catalog is the set of operating modes one transponder family offers.
// Plans and restorations record a channel's format as a pointer into
// Modes, so the slice is read-only from the first result computed on the
// catalog; derive a variant with WithReaches, which copies.
type Catalog struct {
	Name  string
	Modes []Mode
}

// Fixed100G returns the fixed-rate WAN transponder used by traditional
// backbones (§2, "100G-WAN" benchmark): 100 Gbps on a 50 GHz grid with
// 3000 km reach.
func Fixed100G() Catalog {
	return Catalog{
		Name:  "100G-WAN",
		Modes: []Mode{newMode(100, 50, 3000)},
	}
}

// RADWAN returns the bandwidth-variable transponder of RADWAN adapted to
// the paper's setting (§2): BPSK/QPSK/8QAM at a fixed 75 GHz spacing.
func RADWAN() Catalog {
	return Catalog{
		Name: "RADWAN",
		Modes: []Mode{
			newMode(100, 75, 5000),
			newMode(200, 75, 2000),
			newMode(300, 75, 1100),
		},
	}
}

// SVT returns FlexWAN's spacing-variable transponder catalog — Table 2 of
// the paper, measured on the production testbed. Entries marked "/" in
// the table (not recommended) are absent.
func SVT() Catalog {
	type row struct {
		spacing float64
		reach   map[int]float64 // data rate Gbps → reach km
	}
	rows := []row{
		{50, map[int]float64{100: 3000, 200: 1000}},
		{62.5, map[int]float64{200: 1500}},
		{75, map[int]float64{100: 5000, 200: 2000, 300: 1100, 400: 600}},
		{87.5, map[int]float64{300: 1500, 400: 1000, 500: 600, 600: 300}},
		{100, map[int]float64{300: 2000, 400: 1500, 500: 900, 600: 400, 700: 200}},
		{112.5, map[int]float64{400: 1600, 500: 1100, 600: 500, 700: 300, 800: 150}},
		{125, map[int]float64{400: 1700, 500: 1200, 600: 600, 700: 350, 800: 200}},
		{137.5, map[int]float64{400: 1800, 500: 1300, 600: 700, 700: 450, 800: 250}},
		{150, map[int]float64{400: 1900, 500: 1400, 600: 800, 700: 500, 800: 300}},
	}
	var modes []Mode
	for _, r := range rows {
		rates := make([]int, 0, len(r.reach))
		for rate := range r.reach {
			rates = append(rates, rate)
		}
		sort.Ints(rates)
		for _, rate := range rates {
			modes = append(modes, newMode(rate, r.spacing, r.reach[rate]))
		}
	}
	return Catalog{Name: "FlexWAN", Modes: modes}
}

// FeasibleModes returns the modes whose reach covers distKm, preserving
// catalog order. They point into c.Modes: read-only, like every *Mode the
// package hands out.
func (c Catalog) FeasibleModes(distKm float64) []*Mode {
	var out []*Mode
	for i := range c.Modes {
		if m := &c.Modes[i]; m.Feasible(distKm) {
			out = append(out, m)
		}
	}
	return out
}

// MaxRateAt returns the highest data rate any mode supports at distKm,
// or 0 when the distance exceeds every mode's reach (Fig. 2b).
func (c Catalog) MaxRateAt(distKm float64) int {
	best := 0
	for _, m := range c.Modes {
		if m.Feasible(distKm) && m.DataRateGbps > best {
			best = m.DataRateGbps
		}
	}
	return best
}

// BestModeAt returns the preferred mode for a path of distKm: the highest
// feasible data rate, breaking ties by the narrowest channel spacing and
// then by the tightest reach (least over-provisioned margin). The second
// return is false when no mode reaches.
func (c Catalog) BestModeAt(distKm float64) (Mode, bool) {
	var best Mode
	found := false
	for _, m := range c.Modes {
		if !m.Feasible(distKm) {
			continue
		}
		if !found || better(m, best) {
			best, found = m, true
		}
	}
	return best, found
}

func better(a, b Mode) bool {
	if a.DataRateGbps != b.DataRateGbps {
		return a.DataRateGbps > b.DataRateGbps
	}
	if a.SpacingGHz != b.SpacingGHz {
		return a.SpacingGHz < b.SpacingGHz
	}
	return a.ReachKm < b.ReachKm
}

// MaxReachKm returns the longest reach of any mode in the catalog.
func (c Catalog) MaxReachKm() float64 {
	best := 0.0
	for _, m := range c.Modes {
		if m.ReachKm > best {
			best = m.ReachKm
		}
	}
	return best
}

// Provision is a multiset of modes provisioning one demand: Counts[i]
// transponder pairs operating in Modes[i].
type Provision struct {
	Modes  []Mode
	Counts []int
}

// Transponders returns the total number of transponder pairs.
func (p Provision) Transponders() int {
	total := 0
	for _, c := range p.Counts {
		total += c
	}
	return total
}

// CapacityGbps returns the total data rate of the provision.
func (p Provision) CapacityGbps() int {
	total := 0
	for i, c := range p.Counts {
		total += c * p.Modes[i].DataRateGbps
	}
	return total
}

// SpectrumGHz returns the total channel spacing of the provision.
func (p Provision) SpectrumGHz() float64 {
	total := 0.0
	for i, c := range p.Counts {
		total += float64(c) * p.Modes[i].SpacingGHz
	}
	return total
}

// MinProvision computes the cheapest way to carry capacityGbps over a
// path of distKm with this catalog: primarily the fewest transponder
// pairs, secondarily the least spectrum (the planning objective of
// Algorithm 1 applied to a single demand, as in the Fig. 3 cost study).
// It returns false when no mode reaches distKm or capacity is 0. Callers
// with many queries on one catalog share a ProvisionTable instead.
func (c Catalog) MinProvision(capacityGbps int, distKm float64) (Provision, bool) {
	return NewProvisionTable(c).MinProvision(capacityGbps, distKm)
}

// ProvisionTable answers MinProvision queries on one catalog and keeps
// the dynamic program between them. The search is an exact DP over
// capacity in gcd-of-rates steps, and for a fixed set of feasible modes
// its cell u depends only on the cells below u — never on the capacity
// asked for — so one table per reach class (the distances that share a
// feasible set) serves every query: a query extends the table as far as
// it needs and then only scans and reads. A table is not safe for
// concurrent use.
type ProvisionTable struct {
	catalog Catalog
	// classes[n] is the DP over the n modes with the longest reach: the
	// feasible sets of all distances nest, so their size names them.
	classes []*ReachClass
}

// NewProvisionTable returns an empty table for the catalog.
func NewProvisionTable(c Catalog) *ProvisionTable {
	return &ProvisionTable{catalog: c, classes: make([]*ReachClass, len(c.Modes)+1)}
}

// ReachClass is a table's DP over the modes that reach one band of
// distances. A caller with many queries at one distance resolves the
// class once (ProvisionTable.Class) and asks it directly.
type ReachClass struct {
	catalog []Mode // the table's catalog
	// The feasible modes, in catalog order — the order the DP tries them
	// in, which decides its ties — as the DP needs them.
	units    []int     // data rate / step
	spacing  []float64 // SpacingGHz
	feasible []int     // position in catalog
	// order lists the feasible modes highest rate first, narrowest spacing
	// within a rate.
	order    []int
	step     int // gcd of the rates
	maxUnits int
	// cells[u] is the best (transponders, spectrum) providing at least
	// u·step Gbps, and the last mode added to get there.
	cells []provisionCell
	// used[u·words:(u+1)·words] is the set of modes in cell u's multiset,
	// one bit per feasible mode: the previous cell's set plus the cell's
	// own mode.
	used   []uint64
	words  int
	counts []int // trace-back scratch, all zero between queries
}

type provisionCell struct {
	count    int
	spectrum float64
	mode     int
}

// Class returns the reach class of distKm, nil when no mode reaches.
func (t *ProvisionTable) Class(distKm float64) *ReachClass {
	n := 0
	for i := range t.catalog.Modes {
		if t.catalog.Modes[i].Feasible(distKm) {
			n++
		}
	}
	if n == 0 || t.classes[n] != nil {
		return t.classes[n]
	}
	ints := make([]int, 3*n)
	rc := &ReachClass{
		catalog: t.catalog.Modes,
		units:   ints[:0:n], feasible: ints[n : n : 2*n], order: ints[2*n:],
		spacing: make([]float64, 0, n),
		words:   (n + 63) >> 6,
	}
	for i, m := range t.catalog.Modes {
		if m.Feasible(distKm) {
			rc.step = gcd(m.DataRateGbps, rc.step)
			rc.units = append(rc.units, m.DataRateGbps)
			rc.spacing = append(rc.spacing, m.SpacingGHz)
			rc.feasible = append(rc.feasible, i)
		}
	}
	for i := range rc.units {
		rc.units[i] /= rc.step
		rc.maxUnits = max(rc.maxUnits, rc.units[i])
		rc.order[i] = i
	}
	slices.SortStableFunc(rc.order, func(a, b int) int {
		if c := cmp.Compare(rc.units[b], rc.units[a]); c != 0 {
			return c
		}
		return cmp.Compare(rc.spacing[a], rc.spacing[b])
	})
	t.classes[n] = rc
	return rc
}

// Len returns the number of modes in the class.
func (rc *ReachClass) Len() int { return len(rc.order) }

// ByRate returns the class's i-th mode counting from the highest data
// rate, narrowest spacing first within a rate: the order planning and
// restoration fall back through a path's formats in. It points into the
// catalog's Modes, so a record keeps the pointer instead of a copy of the
// row: read-only.
func (rc *ReachClass) ByRate(i int) *Mode { return &rc.catalog[rc.feasible[rc.order[i]]] }

// extend fills the cells up to limit.
func (rc *ReachClass) extend(limit int) {
	if rc.cells == nil { // cell 0: nothing provisioned, no mode used
		rc.cells = make([]provisionCell, 1, limit+1)
		rc.used = make([]uint64, rc.words, (limit+1)*rc.words)
		rc.counts = make([]int, len(rc.units))
	}
	for u := len(rc.cells); u <= limit; u++ {
		best, from := provisionCell{count: math.MaxInt32}, 0
		for mi, units := range rc.units {
			p := max(u-units, 0)
			prev := rc.cells[p]
			cand := provisionCell{count: prev.count + 1, spectrum: prev.spectrum + rc.spacing[mi], mode: mi}
			if cand.count < best.count || (cand.count == best.count && cand.spectrum < best.spectrum) {
				best, from = cand, p
			}
		}
		rc.cells = append(rc.cells, best)
		for w := 0; w < rc.words; w++ {
			rc.used = append(rc.used, rc.used[from*rc.words+w])
		}
		rc.used[u*rc.words+best.mode>>6] |= 1 << (best.mode & 63)
	}
}

// best returns the cell of the cheapest provision of capacityGbps > 0,
// extending the table to cover it: the one scan every query shares.
func (rc *ReachClass) best(capacityGbps int) int {
	// The optimum may overshoot the demand, but never by a whole
	// max-rate transponder: scan that far and no further.
	units := (capacityGbps + rc.step - 1) / rc.step
	rc.extend(units + rc.maxUnits)
	best := units
	for u := units + 1; u <= units+rc.maxUnits; u++ {
		if c, b := rc.cells[u], rc.cells[best]; c.count < b.count || (c.count == b.count && c.spectrum < b.spectrum) {
			best = u
		}
	}
	return best
}

// AppendModes appends to buf the distinct modes of the class's cheapest
// provision of capacityGbps — MinProvision(...).Modes, in the same order —
// and returns the extended slice; it allocates only to grow buf. The
// planner asks this once per wavelength: it walks the modes and never
// reads the counts. Like ByRate's, the pointers are into the catalog.
func (rc *ReachClass) AppendModes(buf []*Mode, capacityGbps int) []*Mode {
	if capacityGbps <= 0 {
		return buf
	}
	best := rc.best(capacityGbps) // first: it may move rc.used
	used := rc.used[best*rc.words:]
	for i, mi := range rc.order {
		if used[mi>>6]>>(mi&63)&1 != 0 {
			buf = append(buf, rc.ByRate(i))
		}
	}
	return buf
}

// MinProvision is Catalog.MinProvision on the table's catalog.
func (t *ProvisionTable) MinProvision(capacityGbps int, distKm float64) (Provision, bool) {
	rc := t.Class(distKm)
	if capacityGbps <= 0 || rc == nil {
		return Provision{}, false
	}
	// Trace the multiset back, then list it by rate.
	distinct := 0
	for u := rc.best(capacityGbps); u > 0; u = max(u-rc.units[rc.cells[u].mode], 0) {
		if rc.counts[rc.cells[u].mode]++; rc.counts[rc.cells[u].mode] == 1 {
			distinct++
		}
	}
	p := Provision{Modes: make([]Mode, 0, distinct), Counts: make([]int, 0, distinct)}
	for i, mi := range rc.order {
		if n := rc.counts[mi]; n > 0 {
			p.Modes = append(p.Modes, *rc.ByRate(i))
			p.Counts = append(p.Counts, n)
			rc.counts[mi] = 0
		}
	}
	return p, true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// WithReaches returns a copy of the catalog under a new name with every
// mode's optical reach replaced by fn(mode); modes for which fn returns
// a nonpositive reach are dropped. This supports sensitivity studies —
// e.g. re-planning with GN-model-predicted reaches instead of the
// testbed-measured Table 2 — without touching the planning code.
func (c Catalog) WithReaches(name string, fn func(Mode) float64) Catalog {
	out := Catalog{Name: name}
	for _, m := range c.Modes {
		r := fn(m)
		if r <= 0 {
			continue
		}
		m.ReachKm = r
		out.Modes = append(out.Modes, m)
	}
	return out
}
