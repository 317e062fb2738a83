// Package spectrum models the optical spectrum of a fiber as a grid of
// fixed-width pixels, following FlexWAN's spectrum-sliced optical line
// system (§4.2 of the paper).
//
// The usable long-haul spectrum is the C-band. A pixel-wise wavelength
// selective switch (WSS) slices it into 12.5 GHz pixels (or finer); a
// wavelength occupies a contiguous run of pixels whose total width equals
// its channel spacing. The same pixel interval must be configured on every
// fiber the wavelength traverses (spectrum consistency) and no two
// wavelengths may share a pixel on the same fiber (spectrum conflict).
package spectrum

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Standard constants for the C-band and FlexWAN's pixel grid.
const (
	// DefaultPixelGHz is the grid granularity of the pixel-wise WSS.
	DefaultPixelGHz = 12.5

	// CBandGHz is the usable width of the conventional band
	// (roughly 1530–1565 nm, ~4.4 THz; we use the common 4.8 THz
	// flexi-grid figure of 384 × 12.5 GHz).
	CBandGHz = 4800.0

	// DefaultPixels is the number of 12.5 GHz pixels in the C-band.
	DefaultPixels = int(CBandGHz / DefaultPixelGHz)
)

// Grid describes a pixelated spectrum: Pixels slots of PixelGHz each.
type Grid struct {
	PixelGHz float64
	Pixels   int
}

// DefaultGrid returns the C-band sliced at 12.5 GHz: 384 pixels.
func DefaultGrid() Grid {
	return Grid{PixelGHz: DefaultPixelGHz, Pixels: DefaultPixels}
}

// NewGrid builds a grid with the given pixel width covering widthGHz.
// The width is truncated down to a whole number of pixels.
func NewGrid(pixelGHz, widthGHz float64) (Grid, error) {
	if pixelGHz <= 0 {
		return Grid{}, fmt.Errorf("spectrum: pixel width must be positive, got %v", pixelGHz)
	}
	if widthGHz < pixelGHz {
		return Grid{}, fmt.Errorf("spectrum: band width %v GHz smaller than one pixel (%v GHz)", widthGHz, pixelGHz)
	}
	return Grid{PixelGHz: pixelGHz, Pixels: int(widthGHz / pixelGHz)}, nil
}

// WidthGHz returns the total spectrum width covered by the grid.
func (g Grid) WidthGHz() float64 { return float64(g.Pixels) * g.PixelGHz }

// PixelsFor returns the number of contiguous pixels needed to carry a
// channel spacing of spacingGHz. Channel spacings that are not an exact
// multiple of the pixel width are rounded up (the passband must fully
// contain the signal; a smaller passband clips it).
func (g Grid) PixelsFor(spacingGHz float64) (int, error) {
	if spacingGHz <= 0 {
		return 0, fmt.Errorf("spectrum: channel spacing must be positive, got %v", spacingGHz)
	}
	n := int(math.Ceil(spacingGHz/g.PixelGHz - 1e-9))
	if n > g.Pixels {
		return 0, fmt.Errorf("spectrum: channel spacing %v GHz exceeds band width %v GHz", spacingGHz, g.WidthGHz())
	}
	return n, nil
}

// Interval is a half-open pixel range [Start, Start+Count) on a grid —
// the spectrum occupied by one wavelength, or the passband configured on
// a WSS filter port.
type Interval struct {
	Start int // index of the first pixel
	Count int // number of contiguous pixels
}

// End returns the index one past the last pixel.
func (iv Interval) End() int { return iv.Start + iv.Count }

// Overlaps reports whether two intervals share any pixel.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End() && other.Start < iv.End()
}

// Contains reports whether pixel w falls inside the interval.
func (iv Interval) Contains(w int) bool { return w >= iv.Start && w < iv.End() }

// WidthGHz returns the spectral width of the interval on grid g.
func (iv Interval) WidthGHz(g Grid) float64 { return float64(iv.Count) * g.PixelGHz }

// Valid reports whether the interval lies inside grid g.
func (iv Interval) Valid(g Grid) bool {
	return iv.Start >= 0 && iv.Count > 0 && iv.End() <= g.Pixels
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d)", iv.Start, iv.End())
}

// ErrNoSpectrum is returned when an allocation request cannot be satisfied.
var ErrNoSpectrum = errors.New("spectrum: no contiguous free interval of the requested width")

// Map tracks per-pixel occupancy of a single fiber as a bitset, 64 pixels
// a word: bit w is set while pixel w is occupied, and the bits past the
// grid's last pixel stay set so that no free run crosses the band edge.
// The zero value is not usable; construct with NewMap.
type Map struct {
	grid Grid
	used bitset
}

// bitset is occupancy words, 64 pixels a word: a Map's, or one fiber's in
// an Allocator.
type bitset []uint64

// NewMap returns an all-free occupancy map for grid g.
func NewMap(g Grid) *Map {
	m := newMap(g, nil)
	return &m
}

// newMap builds an all-free map, on the zeroed words the caller supplies
// when they are enough for the grid.
func newMap(g Grid, words []uint64) Map {
	n := (g.Pixels + 63) >> 6
	if n > len(words) {
		words = make([]uint64, n)
	}
	if tail := g.Pixels & 63; tail != 0 {
		words[n-1] = ^uint64(0) << tail
	}
	return Map{grid: g, used: words[:n]}
}

// next returns the first pixel ≥ from whose occupancy equals used, or
// 64·len(b) when there is none.
func (b bitset) next(from int, used bool) int {
	for i := from >> 6; i < len(b); i++ {
		x := b[i]
		if !used {
			x = ^x
		}
		if i == from>>6 {
			x &= ^uint64(0) << (from & 63)
		}
		if x != 0 {
			return i<<6 + bits.TrailingZeros64(x)
		}
	}
	return len(b) << 6
}

// nextRun returns the first maximal free run starting at or after from;
// ok is false when no free pixel is left there.
func (m *Map) nextRun(from int) (run Interval, ok bool) {
	start := m.used.next(from, false)
	if start >= m.grid.Pixels {
		return Interval{}, false
	}
	return Interval{Start: start, Count: m.used.next(start, true) - start}, true
}

// fill marks the interval's pixels occupied or free. iv must lie in the
// words.
func (b bitset) fill(iv Interval, used bool) {
	for i := iv.Start >> 6; i <= (iv.End()-1)>>6; i++ {
		mask := ^uint64(0) // iv's pixels inside word i
		if lo := iv.Start - i<<6; lo > 0 {
			mask <<= lo
		}
		if hi := iv.End() - i<<6; hi < 64 {
			mask &= 1<<hi - 1
		}
		if used {
			b[i] |= mask
		} else {
			b[i] &^= mask
		}
	}
}

// Grid returns the grid the map was built on.
func (m *Map) Grid() Grid { return m.grid }

// FreePixels returns the number of unoccupied pixels.
func (m *Map) FreePixels() int {
	free := len(m.used) << 6
	for _, x := range m.used {
		free -= bits.OnesCount64(x)
	}
	return free
}

// UsedPixels returns the number of occupied pixels.
func (m *Map) UsedPixels() int { return m.grid.Pixels - m.FreePixels() }

// Used reports whether pixel w is occupied. Out-of-range pixels are
// reported as occupied (they can never be allocated).
func (m *Map) Used(w int) bool {
	if w < 0 || w >= m.grid.Pixels {
		return true
	}
	return m.used[w>>6]>>(w&63)&1 != 0
}

// CanPlace reports whether the interval is entirely free.
func (m *Map) CanPlace(iv Interval) bool {
	if !iv.Valid(m.grid) {
		return false
	}
	return m.used.next(iv.Start, true) >= iv.End()
}

// Place marks the interval occupied. It fails if any pixel is already in
// use or the interval is out of range; on failure the map is unchanged.
func (m *Map) Place(iv Interval) error {
	if !iv.Valid(m.grid) {
		return fmt.Errorf("spectrum: interval %v outside grid of %d pixels", iv, m.grid.Pixels)
	}
	if !m.CanPlace(iv) {
		return fmt.Errorf("spectrum: interval %v overlaps an existing allocation: %w", iv, ErrNoSpectrum)
	}
	m.used.fill(iv, true)
	return nil
}

// Release frees the interval. Releasing pixels that are already free is an
// error: it indicates double-release, which would corrupt accounting.
func (m *Map) Release(iv Interval) error {
	if !iv.Valid(m.grid) {
		return fmt.Errorf("spectrum: interval %v outside grid of %d pixels", iv, m.grid.Pixels)
	}
	if w := m.used.next(iv.Start, false); w < iv.End() {
		return fmt.Errorf("spectrum: release of free pixel %d in %v", w, iv)
	}
	m.used.fill(iv, false)
	return nil
}

// FirstFit returns the lowest-indexed free interval of count pixels.
func (m *Map) FirstFit(count int) (Interval, error) {
	if count <= 0 || count > m.grid.Pixels {
		return Interval{}, fmt.Errorf("spectrum: invalid interval width %d", count)
	}
	for run, ok := m.nextRun(0); ok; run, ok = m.nextRun(run.End()) {
		if run.Count >= count {
			return Interval{Start: run.Start, Count: count}, nil
		}
	}
	return Interval{}, ErrNoSpectrum
}

// BestFit returns the free interval of count pixels inside the smallest
// free run that can hold it (ties broken by lowest start). Best-fit keeps
// large runs intact for future wide channels.
func (m *Map) BestFit(count int) (Interval, error) {
	if count <= 0 || count > m.grid.Pixels {
		return Interval{}, fmt.Errorf("spectrum: invalid interval width %d", count)
	}
	best := Interval{Start: -1}
	for run, ok := m.nextRun(0); ok; run, ok = m.nextRun(run.End()) {
		if run.Count >= count && (best.Start < 0 || run.Count < best.Count) {
			best = run
		}
	}
	if best.Start < 0 {
		return Interval{}, ErrNoSpectrum
	}
	return Interval{Start: best.Start, Count: count}, nil
}

// FreeRuns returns the maximal free intervals in ascending order.
func (m *Map) FreeRuns() []Interval {
	var runs []Interval
	for run, ok := m.nextRun(0); ok; run, ok = m.nextRun(run.End()) {
		runs = append(runs, run)
	}
	return runs
}

// LargestFreeRun returns the widest contiguous free interval, or a
// zero-count interval when the map is full.
func (m *Map) LargestFreeRun() Interval {
	var best Interval
	for _, r := range m.FreeRuns() {
		if r.Count > best.Count {
			best = r
		}
	}
	return best
}

// Clone returns an independent copy of the map.
func (m *Map) Clone() *Map {
	return &Map{grid: m.grid, used: slices.Clone(m.used)}
}

// Fragmentation returns 1 − largestFreeRun/freePixels: 0 when all free
// spectrum is contiguous (or the map is full), approaching 1 as the free
// spectrum shatters into small runs.
func (m *Map) Fragmentation() float64 {
	free := m.FreePixels()
	if free == 0 {
		return 0
	}
	return 1 - float64(m.LargestFreeRun().Count)/float64(free)
}
