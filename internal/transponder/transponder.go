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
	"sync"
	"sync/atomic"

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
	// table answers provision queries on Modes. The constructors and
	// WithReaches set it, and copies of the value share it; a hand-built
	// catalog has none.
	table *ProvisionTable
}

// The three families are built once per process: every call of their
// constructor hands out the same read-only Modes and the same provision
// table, so the table's dynamic programs fill in once for all plans and
// restorations.
var (
	fixed100G = sync.OnceValue(func() Catalog {
		return withTable(Catalog{Name: "100G-WAN", Modes: []Mode{newMode(100, 50, 3000)}})
	})
	radwan = sync.OnceValue(func() Catalog {
		return withTable(Catalog{
			Name: "RADWAN",
			Modes: []Mode{
				newMode(100, 75, 5000),
				newMode(200, 75, 2000),
				newMode(300, 75, 1100),
			},
		})
	})
	svt = sync.OnceValue(func() Catalog { return withTable(Catalog{Name: "FlexWAN", Modes: svtModes()}) })
)

// withTable gives the catalog its own provision table. Modes is clipped
// to its length first, so that appending to a copy's Modes never writes
// into the array the table reads.
func withTable(c Catalog) Catalog {
	c.Modes = slices.Clip(c.Modes)
	c.table = newProvisionTable(c)
	return c
}

// Fixed100G returns the fixed-rate WAN transponder used by traditional
// backbones (§2, "100G-WAN" benchmark): 100 Gbps on a 50 GHz grid with
// 3000 km reach.
func Fixed100G() Catalog { return fixed100G() }

// RADWAN returns the bandwidth-variable transponder of RADWAN adapted to
// the paper's setting (§2): BPSK/QPSK/8QAM at a fixed 75 GHz spacing.
func RADWAN() Catalog { return radwan() }

// SVT returns FlexWAN's spacing-variable transponder catalog — Table 2 of
// the paper, measured on the production testbed. Entries marked "/" in
// the table (not recommended) are absent.
func SVT() Catalog { return svt() }

func svtModes() []Mode {
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
	return modes
}

// Provisions returns the catalog's provision table, which is safe for
// concurrent use. A catalog from a constructor or WithReaches answers with
// the table it carries, shared by every copy, as long as Modes is the
// slice it was built with; otherwise — a hand-built catalog, or one whose
// Modes was replaced — every call builds a new table.
func (c Catalog) Provisions() *ProvisionTable {
	if t := c.table; t != nil && len(t.modes) == len(c.Modes) && (len(c.Modes) == 0 || &t.modes[0] == &c.Modes[0]) {
		return t
	}
	return newProvisionTable(c)
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
	if rc := c.Provisions().Class(distKm); rc != nil {
		return rc.ByRate(0).DataRateGbps
	}
	return 0
}

// BestModeAt returns the preferred mode for a path of distKm: the highest
// feasible data rate, breaking ties by the narrowest channel spacing and
// then by the tightest reach (least over-provisioned margin). The second
// return is false when no mode reaches.
func (c Catalog) BestModeAt(distKm float64) (Mode, bool) {
	var best *Mode
	for i := range c.Modes {
		if m := &c.Modes[i]; m.Feasible(distKm) && (best == nil || better(m, best)) {
			best = m
		}
	}
	if best == nil {
		return Mode{}, false
	}
	return *best, true
}

func better(a, b *Mode) bool {
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
	for i := range c.Modes {
		if r := c.Modes[i].ReachKm; r > best {
			best = r
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
// It returns false when no mode reaches distKm or capacity is 0. It asks
// the catalog's table (Provisions).
func (c Catalog) MinProvision(capacityGbps int, distKm float64) (Provision, bool) {
	return c.Provisions().MinProvision(capacityGbps, distKm)
}

// ProvisionTable answers MinProvision queries on one catalog and keeps
// the dynamic program between them. The search is an exact DP over
// capacity in gcd-of-rates steps, and for a fixed set of feasible modes
// its cell u depends only on the cells below u — never on the capacity
// asked for — so one table per reach class (the distances that share a
// feasible set) serves every query: a query extends the table as far as
// it needs and then only scans and reads. A table is safe for concurrent
// use; a query takes no lock unless it extends a class.
type ProvisionTable struct {
	modes []Mode // the catalog's
	// reaches lists the modes' reaches, longest first (a NaN reach covers
	// no distance and is left out).
	reaches []float64
	// classes[n] is the DP over the n modes with the longest reach: the
	// feasible sets of all distances nest, so their size names them. It is
	// nil where a tie in reach leaves no distance with n feasible modes.
	classes []*ReachClass
}

// newProvisionTable returns a table for the catalog with every reach
// class built and no DP cell filled.
func newProvisionTable(c Catalog) *ProvisionTable {
	t := &ProvisionTable{modes: c.Modes, reaches: make([]float64, 0, len(c.Modes))}
	for i := range c.Modes {
		if r := c.Modes[i].ReachKm; !math.IsNaN(r) {
			t.reaches = append(t.reaches, r)
		}
	}
	slices.SortFunc(t.reaches, func(a, b float64) int { return cmp.Compare(b, a) })
	t.classes = make([]*ReachClass, len(t.reaches)+1)
	for n := 1; n <= len(t.reaches); n++ {
		if n == len(t.reaches) || t.reaches[n] < t.reaches[n-1] {
			t.classes[n] = newReachClass(c.Modes, t.reaches[n-1])
		}
	}
	return t
}

// ReachClass is a table's DP over the modes that reach one band of
// distances. A caller with many queries at one distance resolves the
// class once (ProvisionTable.Class) and asks it directly.
type ReachClass struct {
	modes []Mode // the table's catalog
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
	words    int // mode-set words per cell

	// dp is the prefix of the table filled so far. Readers load it without
	// a lock; an extension runs under mu and publishes a longer prefix.
	mu sync.Mutex
	dp atomic.Pointer[provisionDP]
}

// provisionDP is a published prefix of a class's table. An extension
// appends past its end, so the cells and words a prefix covers are never
// written again, and the prefix a reader loaded stays valid.
type provisionDP struct {
	// cells[u] is the best (transponders, spectrum) providing at least
	// u·step Gbps, and the last mode added to get there.
	cells []provisionCell
	// used[u·words:(u+1)·words] is the set of modes in cell u's multiset,
	// one bit per feasible mode: the previous cell's set plus the cell's
	// own mode.
	used []uint64
}

type provisionCell struct {
	count    int
	spectrum float64
	mode     int
}

// newReachClass builds the class of the modes whose reach is at least
// reachKm, with an empty DP.
func newReachClass(modes []Mode, reachKm float64) *ReachClass {
	n := 0
	for i := range modes {
		if modes[i].Feasible(reachKm) {
			n++
		}
	}
	ints := make([]int, 3*n)
	rc := &ReachClass{
		modes: modes,
		units: ints[:0:n], feasible: ints[n : n : 2*n], order: ints[2*n:],
		spacing: make([]float64, 0, n),
		words:   (n + 63) >> 6,
	}
	for i := range modes {
		if m := &modes[i]; m.Feasible(reachKm) {
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
	return rc
}

// Class returns the reach class of distKm, nil when no mode reaches.
func (t *ProvisionTable) Class(distKm float64) *ReachClass {
	// The feasible modes are the n longest-reaching: reaches[:n] ≥ distKm.
	n, hi := 0, len(t.reaches)
	for n < hi {
		if mid := int(uint(n+hi) >> 1); t.reaches[mid] >= distKm {
			n = mid + 1
		} else {
			hi = mid
		}
	}
	return t.classes[n]
}

// Len returns the number of modes in the class.
func (rc *ReachClass) Len() int { return len(rc.order) }

// ByRate returns the class's i-th mode counting from the highest data
// rate, narrowest spacing first within a rate: the order planning and
// restoration fall back through a path's formats in. It points into the
// catalog's Modes, so a record keeps the pointer instead of a copy of the
// row: read-only.
func (rc *ReachClass) ByRate(i int) *Mode { return &rc.modes[rc.feasible[rc.order[i]]] }

// upTo returns a prefix of the table that covers cell limit.
func (rc *ReachClass) upTo(limit int) *provisionDP {
	if dp := rc.dp.Load(); dp != nil && len(dp.cells) > limit {
		return dp
	}
	return rc.extend(limit)
}

// extend fills the cells up to limit and publishes them.
func (rc *ReachClass) extend(limit int) *provisionDP {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	dp := rc.dp.Load()
	if dp == nil { // cell 0: nothing provisioned, no mode used
		dp = &provisionDP{cells: make([]provisionCell, 1, limit+1), used: make([]uint64, rc.words, (limit+1)*rc.words)}
	} else if len(dp.cells) > limit { // another query got there first
		return dp
	}
	cells, used := dp.cells, dp.used
	for u := len(cells); u <= limit; u++ {
		best, from := provisionCell{count: math.MaxInt32}, 0
		for mi, units := range rc.units {
			p := max(u-units, 0)
			prev := cells[p]
			cand := provisionCell{count: prev.count + 1, spectrum: prev.spectrum + rc.spacing[mi], mode: mi}
			if cand.count < best.count || (cand.count == best.count && cand.spectrum < best.spectrum) {
				best, from = cand, p
			}
		}
		cells = append(cells, best)
		for w := 0; w < rc.words; w++ {
			used = append(used, used[from*rc.words+w])
		}
		used[u*rc.words+best.mode>>6] |= 1 << (best.mode & 63)
	}
	dp = &provisionDP{cells: cells, used: used}
	rc.dp.Store(dp)
	return dp
}

// best returns the cell of the cheapest provision of capacityGbps > 0 and
// a prefix of the table that holds it, extending the table to cover it:
// the one scan every query shares.
func (rc *ReachClass) best(capacityGbps int) (*provisionDP, int) {
	// The optimum may overshoot the demand, but never by a whole
	// max-rate transponder: scan that far and no further.
	units := (capacityGbps + rc.step - 1) / rc.step
	dp := rc.upTo(units + rc.maxUnits)
	best := units
	for u := units + 1; u <= units+rc.maxUnits; u++ {
		if c, b := dp.cells[u], dp.cells[best]; c.count < b.count || (c.count == b.count && c.spectrum < b.spectrum) {
			best = u
		}
	}
	return dp, best
}

// AppendModes appends to buf the distinct modes of the class's cheapest
// provision of capacityGbps — MinProvision(...).Modes, in the same order —
// and returns the extended slice; it allocates only to grow buf (and the
// table, the first time a capacity is asked). The planner asks this once
// per wavelength: it walks the modes and never reads the counts. Like
// ByRate's, the pointers are into the catalog.
func (rc *ReachClass) AppendModes(buf []*Mode, capacityGbps int) []*Mode {
	if capacityGbps <= 0 {
		return buf
	}
	dp, best := rc.best(capacityGbps)
	used := dp.used[best*rc.words:]
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
	counts := make([]int, len(rc.units))
	distinct := 0
	dp, best := rc.best(capacityGbps)
	for u := best; u > 0; u = max(u-rc.units[dp.cells[u].mode], 0) {
		if counts[dp.cells[u].mode]++; counts[dp.cells[u].mode] == 1 {
			distinct++
		}
	}
	p := Provision{Modes: make([]Mode, 0, distinct), Counts: make([]int, 0, distinct)}
	for i, mi := range rc.order {
		if n := counts[mi]; n > 0 {
			p.Modes = append(p.Modes, *rc.ByRate(i))
			p.Counts = append(p.Counts, n)
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
	return withTable(out)
}
