package spectrum

import (
	"fmt"
	"sort"
)

// boolMap is the per-pixel []bool occupancy map the bitset Map replaced,
// kept as the differential oracle for FuzzMapOperations.
type boolMap struct {
	grid Grid
	used []bool
	free int
}

func newBoolMap(g Grid) *boolMap {
	return &boolMap{grid: g, used: make([]bool, g.Pixels), free: g.Pixels}
}

func (m *boolMap) FreePixels() int { return m.free }
func (m *boolMap) UsedPixels() int { return m.grid.Pixels - m.free }

func (m *boolMap) Used(w int) bool {
	if w < 0 || w >= len(m.used) {
		return true
	}
	return m.used[w]
}

func (m *boolMap) CanPlace(iv Interval) bool {
	if !iv.Valid(m.grid) {
		return false
	}
	for w := iv.Start; w < iv.End(); w++ {
		if m.used[w] {
			return false
		}
	}
	return true
}

func (m *boolMap) Place(iv Interval) bool {
	if !m.CanPlace(iv) {
		return false
	}
	for w := iv.Start; w < iv.End(); w++ {
		m.used[w] = true
	}
	m.free -= iv.Count
	return true
}

func (m *boolMap) Release(iv Interval) bool {
	if !iv.Valid(m.grid) {
		return false
	}
	for w := iv.Start; w < iv.End(); w++ {
		if !m.used[w] {
			return false
		}
	}
	for w := iv.Start; w < iv.End(); w++ {
		m.used[w] = false
	}
	m.free += iv.Count
	return true
}

func (m *boolMap) FirstFit(count int) (Interval, bool) {
	if count <= 0 || count > m.grid.Pixels {
		return Interval{}, false
	}
	run := 0
	for w := 0; w < m.grid.Pixels; w++ {
		if m.used[w] {
			run = 0
			continue
		}
		run++
		if run == count {
			return Interval{Start: w - count + 1, Count: count}, true
		}
	}
	return Interval{}, false
}

func (m *boolMap) BestFit(count int) (Interval, bool) {
	if count <= 0 || count > m.grid.Pixels {
		return Interval{}, false
	}
	bestStart, bestLen := -1, m.grid.Pixels+1
	for _, r := range m.FreeRuns() {
		if r.Count >= count && r.Count < bestLen {
			bestStart, bestLen = r.Start, r.Count
		}
	}
	if bestStart < 0 {
		return Interval{}, false
	}
	return Interval{Start: bestStart, Count: count}, true
}

func (m *boolMap) FreeRuns() []Interval {
	var runs []Interval
	w := 0
	for w < m.grid.Pixels {
		if m.used[w] {
			w++
			continue
		}
		start := w
		for w < m.grid.Pixels && !m.used[w] {
			w++
		}
		runs = append(runs, Interval{Start: start, Count: w - start})
	}
	return runs
}

func (m *boolMap) Clone() *boolMap {
	c := &boolMap{grid: m.grid, used: make([]bool, len(m.used)), free: m.free}
	copy(c.used, m.used)
	return c
}

// refAllocator is the map-keyed allocator the numbered slab replaced, kept
// verbatim (renamed) as the differential oracle for FuzzForkOperations: a
// map from fiber ID to that fiber's own occupancy Map, and a Fork that
// borrows every map and copies one before first writing it.
//
// refAllocator manages pixel occupancy across all fibers of a network and
// enforces, by construction, the paper's two spectrum invariants:
//
//   - conflict-freedom: a pixel on a fiber is held by at most one channel
//     (constraint (3));
//   - consistency: a channel occupies the identical interval on every
//     fiber it traverses (constraint (4)).
//
// Allocator is not safe for concurrent use; the controller serializes
// access (§4.3: the centralized controller is the single writer).
type refAllocator struct {
	grid   Grid
	fibers map[FiberID]refFiberMap
}

// refFiberMap is one fiber's occupancy. A fork starts out borrowing the maps
// of the allocator it was forked from and copies one before first writing it.
type refFiberMap struct {
	*Map
	borrowed bool
}

// NewAllocator returns an empty allocator over grid g.
func newRefAllocator(g Grid) *refAllocator {
	return &refAllocator{grid: g, fibers: make(map[FiberID]refFiberMap)}
}

// Grid returns the allocator's pixel grid.
func (a *refAllocator) Grid() Grid { return a.grid }

// fiber returns the occupancy map for id ready to be written: created if
// the fiber has none, copied if it is still the forked-from allocator's.
// Only the paths that are about to change pixels call it: a lookup must
// not write (a planned result is read from several goroutines), and a
// fiber without a map is all free.
func (a *refAllocator) fiber(id FiberID) *Map {
	fm := a.fibers[id]
	switch {
	case fm.Map == nil:
		fm = refFiberMap{Map: NewMap(a.grid)}
	case fm.borrowed:
		fm = refFiberMap{Map: fm.Clone()}
	default:
		return fm.Map
	}
	a.fibers[id] = fm
	return fm.Map
}

// FiberMap returns a copy of the occupancy map for the fiber, or an
// all-free map if the fiber has no allocations yet.
func (a *refAllocator) FiberMap(id FiberID) *Map {
	if m := a.fibers[id].Map; m != nil {
		return m.Clone()
	}
	return NewMap(a.grid)
}

// refPathBuf is the path length, in fibers, up to which a search keeps the
// path's maps on the stack.
const refPathBuf = 16

// Find searches for a free interval of count pixels shared by every fiber
// in path, without allocating it. Call it, and AllocateExact after, only
// when something has to happen between the two (a make-before-break move
// compares the interval with the one it holds); to place a channel, Claim.
func (a *refAllocator) Find(path []FiberID, count int, fit Fit) (Interval, error) {
	var held [refPathBuf]refFiberMap
	_, iv, err := a.find(held[:0], path, count, fit)
	return iv, err
}

// find is the search under Find and Claim. Each fiber's map is looked up
// once and appended to held as it was found (nil for a fiber without one),
// for a caller that goes on to write them.
func (a *refAllocator) find(held []refFiberMap, path []FiberID, count int, fit Fit) ([]refFiberMap, Interval, error) {
	if len(path) == 0 {
		return held, Interval{}, fmt.Errorf("spectrum: empty fiber path")
	}
	// The joint occupancy of the path: a pixel is free iff it is free on
	// every fiber, so the fibers' words OR together.
	var buf [8]uint64 // the 384-pixel C-band is 6 words
	joint := newMap(a.grid, buf[:])
	for _, f := range path {
		fm := a.fibers[f]
		held = append(held, fm)
		if fm.Map != nil {
			for i, x := range fm.used {
				joint.used[i] |= x
			}
		}
	}
	var iv Interval
	var err error
	if fit == BestFit {
		iv, err = joint.BestFit(count)
	} else {
		iv, err = joint.FirstFit(count)
	}
	return held, iv, err
}

// Claim finds a free interval of count pixels shared by every fiber of the
// path and claims it there: what placing a channel calls. The outcome is
// that of Find followed by AllocateExact — the same interval or the same
// error, and on an error no fiber's occupancy has changed — at one lookup a
// fiber instead of three.
func (a *refAllocator) Claim(path []FiberID, count int, fit Fit) (Interval, error) {
	var buf [refPathBuf]refFiberMap
	held, iv, err := a.find(buf[:0], path, count, fit)
	if err != nil {
		return Interval{}, err
	}
	if err := a.place(path, held, iv); err != nil {
		return Interval{}, err
	}
	return iv, nil
}

// Allocate is Claim returning the Allocation record — the interval with a
// copy of the path — that Release takes to free it.
func (a *refAllocator) Allocate(path []FiberID, count int, fit Fit) (Allocation, error) {
	iv, err := a.Claim(path, count, fit)
	if err != nil {
		return Allocation{}, err
	}
	return Allocation{Fibers: append([]FiberID(nil), path...), Interval: iv}, nil
}

// AllocateExact claims a specific interval on every fiber of the path,
// failing atomically if any fiber already uses any of its pixels. It is for
// an interval that was decided elsewhere — a recorded plan being replayed, a
// MIP solution, the target of a move; Claim places a new channel.
func (a *refAllocator) AllocateExact(path []FiberID, iv Interval) error {
	if len(path) == 0 {
		return fmt.Errorf("spectrum: empty fiber path")
	}
	var buf [refPathBuf]refFiberMap
	held := buf[:0]
	for _, f := range path {
		fm := a.fibers[f]
		if !iv.Valid(a.grid) || fm.Map != nil && !fm.CanPlace(iv) {
			return fmt.Errorf("spectrum: interval %v not free on fiber %s: %w", iv, f, ErrNoSpectrum)
		}
		held = append(held, fm)
	}
	return a.place(path, held, iv)
}

// place marks iv used on every fiber of the path, through the checked
// Map.Place, or on none of them. held[i] is path[i]'s map as the caller
// looked it up, and found iv free on it.
func (a *refAllocator) place(path []FiberID, held []refFiberMap, iv Interval) error {
	for i, f := range path {
		m := held[i].Map
		if m == nil || held[i].borrowed {
			// First write to the fiber. fiber looks it up again, so a path
			// that repeats it gets the map just made, not a second one.
			m = a.fiber(f)
		}
		if err := m.Place(iv); err != nil {
			// iv was free on every fiber, so Place fails only on one the
			// path has already claimed it on: undo and report. (The undo
			// releases such a fiber once; its second Release finds the
			// pixels free and refuses, which is the state wanted.)
			for _, g := range path[:i] {
				_ = a.fiber(g).Release(iv)
			}
			return fmt.Errorf("spectrum: fiber %s repeated in path or raced: %w", f, err)
		}
	}
	return nil
}

// Release frees a previous allocation on every fiber of its path, failing
// atomically — no fiber is modified — unless every fiber holds the whole
// interval.
func (a *refAllocator) Release(al Allocation) error {
	if !al.Interval.Valid(a.grid) {
		return fmt.Errorf("spectrum: interval %v outside grid of %d pixels", al.Interval, a.grid.Pixels)
	}
	for _, f := range al.Fibers {
		w := al.Interval.Start // a fiber without a map is all free
		if m := a.fibers[f].Map; m != nil {
			w = m.used.next(al.Interval.Start, false)
		}
		if w < al.Interval.End() {
			return fmt.Errorf("spectrum: release of free pixel %d in %v on fiber %s", w, al.Interval, f)
		}
	}
	for _, f := range al.Fibers {
		a.fiber(f).used.fill(al.Interval, false)
	}
	return nil
}

// UsedPixels returns the total occupied pixels across all fibers (the
// paper's "spectrum usage" metric counts GHz·fiber; multiply by PixelGHz).
func (a *refAllocator) UsedPixels() int {
	total := 0
	for _, m := range a.fibers {
		total += m.UsedPixels()
	}
	return total
}

// UsedGHz returns the total occupied spectrum in GHz summed over fibers.
func (a *refAllocator) UsedGHz() float64 {
	return float64(a.UsedPixels()) * a.grid.PixelGHz
}

// Fibers returns the IDs of all fibers that have an occupancy map, sorted.
func (a *refAllocator) Fibers() []FiberID {
	ids := make([]FiberID, 0, len(a.fibers))
	for id := range a.fibers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Verify re-checks the conflict invariant from raw occupancy and the given
// set of allocations: every allocation's interval must be marked used on
// each of its fibers, and no pixel may be claimed by two allocations on
// the same fiber. It returns nil when the state is consistent. This backs
// the controller's "zero inconsistency and conflict" audit (§4.3).
func (a *refAllocator) Verify(allocs []Allocation) error {
	claimed := newRefAllocator(a.grid) // what the allocations seen so far own
	for i, al := range allocs {
		for _, f := range al.Fibers {
			if m := a.fibers[f].Map; m == nil || !al.Interval.Valid(a.grid) || m.used.next(al.Interval.Start, false) < al.Interval.End() {
				return fmt.Errorf("spectrum: allocation %d interval %v not marked used on fiber %s", i, al.Interval, f)
			}
		}
		if len(al.Fibers) == 0 {
			continue
		}
		if err := claimed.AllocateExact(al.Fibers, al.Interval); err != nil {
			return fmt.Errorf("spectrum: allocation %d claims pixels an earlier one holds: %w", i, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the allocator, used by planners to explore
// tentative placements without mutating live state.
func (a *refAllocator) Clone() *refAllocator {
	c := newRefAllocator(a.grid)
	for id, fm := range a.fibers {
		c.fibers[id] = refFiberMap{Map: fm.Clone()}
	}
	return c
}

// Fork returns an allocator that starts from the receiver's occupancy and
// diverges as it is written: it borrows every fiber's map and copies one
// only before first changing it, so a fork costs what it touches, not what
// the receiver holds. The receiver must not be written while a fork of it
// is in use; any number of forks may be taken and used concurrently.
func (a *refAllocator) Fork() *refAllocator {
	c := &refAllocator{grid: a.grid, fibers: make(map[FiberID]refFiberMap, len(a.fibers))}
	for id, fm := range a.fibers {
		c.fibers[id] = refFiberMap{Map: fm.Map, borrowed: true}
	}
	return c
}
