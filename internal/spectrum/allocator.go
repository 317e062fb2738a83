package spectrum

import (
	"fmt"
	"sort"
)

// FiberID identifies one fiber in the optical topology. The allocator is
// deliberately decoupled from the topology package: any stable string key
// works.
type FiberID string

// FiberIDs appends the fibers named to buf[:0] as allocator keys — how a
// topology path becomes an allocator path; pass nil for a fresh slice.
func FiberIDs(buf []FiberID, names []string) []FiberID {
	buf = buf[:0]
	for _, name := range names {
		buf = append(buf, FiberID(name))
	}
	return buf
}

// Fit selects the placement strategy used when searching for a free
// interval across a fiber path.
type Fit int

const (
	// FirstFit places the channel in the lowest-indexed interval that is
	// free on every fiber of the path. This is FlexWAN's default.
	FirstFit Fit = iota
	// BestFit places the channel in the smallest joint free run that can
	// hold it, reducing fragmentation of wide runs.
	BestFit
)

func (f Fit) String() string {
	switch f {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	default:
		return fmt.Sprintf("Fit(%d)", int(f))
	}
}

// Allocation records one channel's placement: the same pixel interval on
// every fiber of its path (spectrum consistency, constraint (4) of
// Algorithm 1).
type Allocation struct {
	Fibers   []FiberID
	Interval Interval
}

// Allocator manages pixel occupancy across all fibers of a network and
// enforces, by construction, the paper's two spectrum invariants:
//
//   - conflict-freedom: a pixel on a fiber is held by at most one channel
//     (constraint (3));
//   - consistency: a channel occupies the identical interval on every
//     fiber it traverses (constraint (4)).
//
// Allocator is not safe for concurrent use; the controller serializes
// access (§4.3: the centralized controller is the single writer).
type Allocator struct {
	grid   Grid
	fibers map[FiberID]fiberMap
}

// fiberMap is one fiber's occupancy. A fork starts out borrowing the maps
// of the allocator it was forked from and copies one before first writing it.
type fiberMap struct {
	*Map
	borrowed bool
}

// NewAllocator returns an empty allocator over grid g.
func NewAllocator(g Grid) *Allocator {
	return &Allocator{grid: g, fibers: make(map[FiberID]fiberMap)}
}

// Grid returns the allocator's pixel grid.
func (a *Allocator) Grid() Grid { return a.grid }

// fiber returns the occupancy map for id ready to be written: created if
// the fiber has none, copied if it is still the forked-from allocator's.
// Only the paths that are about to change pixels call it: a lookup must
// not write (a planned result is read from several goroutines), and a
// fiber without a map is all free.
func (a *Allocator) fiber(id FiberID) *Map {
	fm := a.fibers[id]
	switch {
	case fm.Map == nil:
		fm = fiberMap{Map: NewMap(a.grid)}
	case fm.borrowed:
		fm = fiberMap{Map: fm.Clone()}
	default:
		return fm.Map
	}
	a.fibers[id] = fm
	return fm.Map
}

// FiberMap returns a copy of the occupancy map for the fiber, or an
// all-free map if the fiber has no allocations yet.
func (a *Allocator) FiberMap(id FiberID) *Map {
	if m := a.fibers[id].Map; m != nil {
		return m.Clone()
	}
	return NewMap(a.grid)
}

// pathBuf is the path length, in fibers, up to which a search keeps the
// path's maps on the stack.
const pathBuf = 16

// Find searches for a free interval of count pixels shared by every fiber
// in path, without allocating it. Call it, and AllocateExact after, only
// when something has to happen between the two (a make-before-break move
// compares the interval with the one it holds); to place a channel, Claim.
func (a *Allocator) Find(path []FiberID, count int, fit Fit) (Interval, error) {
	var held [pathBuf]fiberMap
	_, iv, err := a.find(held[:0], path, count, fit)
	return iv, err
}

// find is the search under Find and Claim. Each fiber's map is looked up
// once and appended to held as it was found (nil for a fiber without one),
// for a caller that goes on to write them.
func (a *Allocator) find(held []fiberMap, path []FiberID, count int, fit Fit) ([]fiberMap, Interval, error) {
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
func (a *Allocator) Claim(path []FiberID, count int, fit Fit) (Interval, error) {
	var buf [pathBuf]fiberMap
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
func (a *Allocator) Allocate(path []FiberID, count int, fit Fit) (Allocation, error) {
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
func (a *Allocator) AllocateExact(path []FiberID, iv Interval) error {
	if len(path) == 0 {
		return fmt.Errorf("spectrum: empty fiber path")
	}
	var buf [pathBuf]fiberMap
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
func (a *Allocator) place(path []FiberID, held []fiberMap, iv Interval) error {
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
func (a *Allocator) Release(al Allocation) error {
	if !al.Interval.Valid(a.grid) {
		return fmt.Errorf("spectrum: interval %v outside grid of %d pixels", al.Interval, a.grid.Pixels)
	}
	for _, f := range al.Fibers {
		w := al.Interval.Start // a fiber without a map is all free
		if m := a.fibers[f].Map; m != nil {
			w = m.next(al.Interval.Start, false)
		}
		if w < al.Interval.End() {
			return fmt.Errorf("spectrum: release of free pixel %d in %v on fiber %s", w, al.Interval, f)
		}
	}
	for _, f := range al.Fibers {
		a.fiber(f).fill(al.Interval, false)
	}
	return nil
}

// UsedPixels returns the total occupied pixels across all fibers (the
// paper's "spectrum usage" metric counts GHz·fiber; multiply by PixelGHz).
func (a *Allocator) UsedPixels() int {
	total := 0
	for _, m := range a.fibers {
		total += m.UsedPixels()
	}
	return total
}

// UsedGHz returns the total occupied spectrum in GHz summed over fibers.
func (a *Allocator) UsedGHz() float64 {
	return float64(a.UsedPixels()) * a.grid.PixelGHz
}

// Fibers returns the IDs of all fibers that have an occupancy map, sorted.
func (a *Allocator) Fibers() []FiberID {
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
func (a *Allocator) Verify(allocs []Allocation) error {
	claimed := NewAllocator(a.grid) // what the allocations seen so far own
	for i, al := range allocs {
		for _, f := range al.Fibers {
			if m := a.fibers[f].Map; m == nil || !al.Interval.Valid(a.grid) || m.next(al.Interval.Start, false) < al.Interval.End() {
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
func (a *Allocator) Clone() *Allocator {
	c := NewAllocator(a.grid)
	for id, fm := range a.fibers {
		c.fibers[id] = fiberMap{Map: fm.Clone()}
	}
	return c
}

// Fork returns an allocator that starts from the receiver's occupancy and
// diverges as it is written: it borrows every fiber's map and copies one
// only before first changing it, so a fork costs what it touches, not what
// the receiver holds. The receiver must not be written while a fork of it
// is in use; any number of forks may be taken and used concurrently.
func (a *Allocator) Fork() *Allocator {
	c := &Allocator{grid: a.grid, fibers: make(map[FiberID]fiberMap, len(a.fibers))}
	for id, fm := range a.fibers {
		c.fibers[id] = fiberMap{Map: fm.Map, borrowed: true}
	}
	return c
}
