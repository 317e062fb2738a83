package spectrum

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"flexwan/internal/topology"
)

// FiberID identifies one fiber in the optical topology.
type FiberID string

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
// Occupancy is one slab of bitset words, a fiber's words at its number: an
// allocator on a topology's Numbering (NewAllocatorOn) takes the paths that
// topology finds by their fibers' numbers (ClaimPath, AllocatePath,
// ReleasePath, FindPath), and numbers any other fiber it is handed by ID
// after the topology's, in the order it first claims them.
//
// Allocator is not safe for concurrent use; the controller serializes
// access (§4.3: the centralized controller is the single writer). Lookups
// do not write, so a planned result may be read from several goroutines.
type Allocator struct {
	grid  Grid
	words int                 // occupancy words per fiber
	net   *topology.Numbering // numbers the slab's first net.Len() fibers; nil on NewAllocator
	// extra numbers, after net's, the fibers outside net that have been
	// claimed, and extraIDs names them in that order. A fork shares its
	// parent's until it numbers a fiber of its own, and copies them first
	// (ownExtra false until then).
	extra    map[FiberID]int32
	extraIDs []FiberID
	ownExtra bool
	// used is the occupancy: fiber n's words are used[n*words:(n+1)*words],
	// with the bits past the grid's last pixel set, as in a Map.
	used bitset
}

// NewAllocator returns an empty allocator over grid g that numbers fibers
// as they are first claimed; every fiber is taken by ID.
func NewAllocator(g Grid) *Allocator { return NewAllocatorOn(g, nil) }

// NewAllocatorOn returns an empty allocator over grid g laid out by a
// topology's fiber numbering, so that the topology's paths are taken by
// number. A nil numbering is NewAllocator's.
func NewAllocatorOn(g Grid, n *topology.Numbering) *Allocator {
	a := &Allocator{grid: g, words: (g.Pixels + 63) >> 6, net: n}
	if n != nil {
		a.used = make([]uint64, n.Len()*a.words)
		a.pad(a.used)
	}
	return a
}

// pad sets the bits past the grid's last pixel in every fiber of words.
func (a *Allocator) pad(words []uint64) {
	if tail := a.grid.Pixels & 63; tail != 0 {
		for i := a.words - 1; i < len(words); i += a.words {
			words[i] = ^uint64(0) << tail
		}
	}
}

// Grid returns the allocator's pixel grid.
func (a *Allocator) Grid() Grid { return a.grid }

// Numbering returns the fiber numbering the allocator is laid out by, nil
// for one from NewAllocator.
func (a *Allocator) Numbering() *topology.Numbering { return a.net }

// fiber returns fiber n's occupancy words.
func (a *Allocator) fiber(n int32) bitset {
	off := int(n) * a.words
	return a.used[off : off+a.words]
}

// id names fiber n.
func (a *Allocator) id(n int32) FiberID {
	if a.net != nil {
		if int(n) < a.net.Len() {
			return FiberID(a.net.ID(n))
		}
		n -= int32(a.net.Len())
	}
	return a.extraIDs[n]
}

// lookup returns the fiber's number, or -1 when the allocator has never
// claimed pixels on it.
func (a *Allocator) lookup(id FiberID) int32 {
	if a.net != nil {
		if n, ok := a.net.Lookup(string(id)); ok {
			return n
		}
	}
	if n, ok := a.extra[id]; ok {
		return n
	}
	return -1
}

// number returns the fiber's number, first numbering it — and giving it
// all-free words — when the allocator does not know it.
func (a *Allocator) number(id FiberID) int32 {
	if n := a.lookup(id); n >= 0 {
		return n
	}
	if !a.ownExtra {
		a.extra, a.extraIDs, a.ownExtra = maps.Clone(a.extra), slices.Clip(a.extraIDs), true
		if a.extra == nil {
			a.extra = make(map[FiberID]int32)
		}
	}
	n := int32(len(a.extraIDs))
	if a.net != nil {
		n += int32(a.net.Len())
	}
	a.extra[id] = n
	a.extraIDs = append(a.extraIDs, id)
	if len(a.used) == 0 {
		a.used = make(bitset, 0, 4*a.words) // room for a path's fibers
	}
	a.used = append(a.used, make(bitset, a.words)...)
	a.pad(a.used[len(a.used)-a.words:])
	return n
}

// pathBuf is the path length, in fibers, up to which a call keeps the
// path's fiber numbers on the stack.
const pathBuf = 16

// resolve appends the numbers of the fibers named to buf, -1 for a fiber
// the allocator does not know. It does not write: a write numbers those
// fibers (place) only once it has checked it will succeed.
func resolve[S ~string](a *Allocator, buf []int32, ids []S) []int32 {
	for _, id := range ids {
		buf = append(buf, a.lookup(FiberID(id)))
	}
	return buf
}

// resolvePath returns the path's fiber numbers: its own Index when a
// topology on the allocator's numbering found it, its fibers' IDs resolved
// into buf otherwise.
func (a *Allocator) resolvePath(buf []int32, p *topology.Path) []int32 {
	if p.Numbering != nil && p.Numbering == a.net {
		return p.Index
	}
	return resolve(a, buf, p.Fibers)
}

// FiberMap returns a copy of the occupancy map for the fiber, or an
// all-free map if the fiber has no allocations yet.
func (a *Allocator) FiberMap(id FiberID) *Map {
	if n := a.lookup(id); n >= 0 {
		return &Map{grid: a.grid, used: slices.Clone(a.fiber(n))}
	}
	return NewMap(a.grid)
}

// Find searches for a free interval of count pixels shared by every fiber
// in path, without allocating it. Call it, and AllocateExact after, only
// when something has to happen between the two (a make-before-break move
// compares the interval with the one it holds); to place a channel, Claim.
func (a *Allocator) Find(path []FiberID, count int, fit Fit) (Interval, error) {
	var buf [pathBuf]int32
	return a.find(resolve(a, buf[:0], path), count, fit)
}

// FindPath is Find on a topology path.
func (a *Allocator) FindPath(p *topology.Path, count int, fit Fit) (Interval, error) {
	var buf [pathBuf]int32
	return a.find(a.resolvePath(buf[:0], p), count, fit)
}

// find is the search under Find and Claim, on fiber numbers (-1: a fiber
// that holds nothing).
func (a *Allocator) find(fibers []int32, count int, fit Fit) (Interval, error) {
	if len(fibers) == 0 {
		return Interval{}, fmt.Errorf("spectrum: empty fiber path")
	}
	// The joint occupancy of the path: a pixel is free iff it is free on
	// every fiber, so the fibers' words OR together.
	var buf [8]uint64 // the 384-pixel C-band is 6 words
	joint := newMap(a.grid, buf[:])
	for _, n := range fibers {
		if n >= 0 {
			for i, x := range a.fiber(n) {
				joint.used[i] |= x
			}
		}
	}
	if fit == BestFit {
		return joint.BestFit(count)
	}
	return joint.FirstFit(count)
}

// Claim finds a free interval of count pixels shared by every fiber of the
// path and claims it there: what placing a channel calls. The outcome is
// that of Find followed by AllocateExact — the same interval or the same
// error, and on an error no fiber's occupancy has changed.
func (a *Allocator) Claim(path []FiberID, count int, fit Fit) (Interval, error) {
	var buf [pathBuf]int32
	return claim(a, resolve(a, buf[:0], path), path, count, fit)
}

// ClaimPath is Claim on a topology path.
func (a *Allocator) ClaimPath(p *topology.Path, count int, fit Fit) (Interval, error) {
	var buf [pathBuf]int32
	return claim(a, a.resolvePath(buf[:0], p), p.Fibers, count, fit)
}

// claim is Claim on the path's resolved fiber numbers; ids names them.
func claim[S ~string](a *Allocator, fibers []int32, ids []S, count int, fit Fit) (Interval, error) {
	iv, err := a.find(fibers, count, fit)
	if err != nil {
		return Interval{}, err
	}
	if err := place(a, fibers, ids, iv); err != nil {
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
	var buf [pathBuf]int32
	return allocateExact(a, resolve(a, buf[:0], path), path, iv)
}

// AllocatePath is AllocateExact on a topology path.
func (a *Allocator) AllocatePath(p *topology.Path, iv Interval) error {
	var buf [pathBuf]int32
	return allocateExact(a, a.resolvePath(buf[:0], p), p.Fibers, iv)
}

// allocateExact is AllocateExact on the path's resolved fiber numbers; ids
// names them.
func allocateExact[S ~string](a *Allocator, fibers []int32, ids []S, iv Interval) error {
	if len(fibers) == 0 {
		return fmt.Errorf("spectrum: empty fiber path")
	}
	for i, n := range fibers {
		if !iv.Valid(a.grid) || n >= 0 && a.fiber(n).next(iv.Start, true) < iv.End() {
			return fmt.Errorf("spectrum: interval %v not free on fiber %s: %w", iv, ids[i], ErrNoSpectrum)
		}
	}
	return place(a, fibers, ids, iv)
}

// place marks iv, which lies in the grid, used on every fiber of the path,
// or on none of them: the caller found iv free on each. A fiber resolved
// as -1 is numbered first, in fibers.
func place[S ~string](a *Allocator, fibers []int32, ids []S, iv Interval) error {
	for i, n := range fibers {
		if n < 0 {
			n = a.number(FiberID(ids[i]))
			fibers[i] = n
		}
		m := a.fiber(n)
		if m.next(iv.Start, true) < iv.End() {
			// iv was free on every fiber, so it is taken only on one the
			// path has already claimed it on: undo and report.
			a.clear(fibers[:i], iv)
			return fmt.Errorf("spectrum: fiber %s repeated in path or raced: spectrum: interval %v overlaps an existing allocation: %w", a.id(n), iv, ErrNoSpectrum)
		}
		m.fill(iv, true)
	}
	return nil
}

// clear frees iv on every fiber given.
func (a *Allocator) clear(fibers []int32, iv Interval) {
	for _, n := range fibers {
		a.fiber(n).fill(iv, false)
	}
}

// Release frees a previous allocation on every fiber of its path, failing
// atomically — no fiber is modified — unless every fiber holds the whole
// interval.
func (a *Allocator) Release(al Allocation) error {
	var buf [pathBuf]int32
	fibers := resolve(a, buf[:0], al.Fibers)
	if err := held(a, fibers, al.Fibers, al.Interval); err != nil {
		return err
	}
	a.clear(fibers, al.Interval)
	return nil
}

// ReleasePath is Release of the interval on a topology path.
func (a *Allocator) ReleasePath(p *topology.Path, iv Interval) error {
	var buf [pathBuf]int32
	fibers := a.resolvePath(buf[:0], p)
	if err := held(a, fibers, p.Fibers, iv); err != nil {
		return err
	}
	a.clear(fibers, iv)
	return nil
}

// HoldsPath returns nil when every fiber of the path holds all of the
// interval's pixels, and an error naming the first that does not.
func (a *Allocator) HoldsPath(p *topology.Path, iv Interval) error {
	var buf [pathBuf]int32
	return held(a, a.resolvePath(buf[:0], p), p.Fibers, iv)
}

// held is HoldsPath on the path's resolved fiber numbers; ids names them.
func held[S ~string](a *Allocator, fibers []int32, ids []S, iv Interval) error {
	if !iv.Valid(a.grid) {
		return fmt.Errorf("spectrum: interval %v outside grid of %d pixels", iv, a.grid.Pixels)
	}
	for i, n := range fibers {
		w := iv.Start // a fiber that holds nothing is all free
		if n >= 0 {
			w = a.fiber(n).next(iv.Start, false)
		}
		if w < iv.End() {
			return fmt.Errorf("spectrum: pixel %d of %v free on fiber %s", w, iv, ids[i])
		}
	}
	return nil
}

// UsedPixels returns the total occupied pixels across all fibers (the
// paper's "spectrum usage" metric counts GHz·fiber; multiply by PixelGHz).
func (a *Allocator) UsedPixels() int {
	total := 0
	for _, x := range a.used {
		total += bits.OnesCount64(x)
	}
	if a.words == 0 {
		return total
	}
	return total - len(a.used)/a.words*(a.words<<6-a.grid.Pixels)
}

// Verify re-checks the conflict invariant from raw occupancy and the given
// set of allocations: every allocation's interval must be marked used on
// each of its fibers, and no pixel may be claimed by two allocations on
// the same fiber. It returns nil when the state is consistent. This backs
// the controller's "zero inconsistency and conflict" audit (§4.3).
func (a *Allocator) Verify(allocs []Allocation) error {
	claimed := NewAllocatorOn(a.grid, a.net) // what the allocations seen so far own
	for i, al := range allocs {
		if len(al.Fibers) == 0 {
			continue
		}
		var buf [pathBuf]int32
		if err := held(a, resolve(a, buf[:0], al.Fibers), al.Fibers, al.Interval); err != nil {
			return fmt.Errorf("spectrum: allocation %d not marked used: %w", i, err)
		}
		if err := claimed.AllocateExact(al.Fibers, al.Interval); err != nil {
			return fmt.Errorf("spectrum: allocation %d claims pixels an earlier one holds: %w", i, err)
		}
	}
	return nil
}

// Fork returns an allocator that starts from the receiver's occupancy and
// diverges as it is written: one copy of the receiver's occupancy words,
// which hold no pointers. It does not write the receiver, so any number of
// forks may be taken and used concurrently; the receiver must not be
// written while a fork of it is in use.
func (a *Allocator) Fork() *Allocator { return a.ForkInto(nil) }

// ForkInto is Fork copying into dst, an allocator the caller is done with,
// so that the copy reuses its words; a nil dst is Fork's fresh allocator.
func (a *Allocator) ForkInto(dst *Allocator) *Allocator {
	var used bitset
	if dst == nil {
		dst = new(Allocator)
	} else {
		used = dst.used[:0]
	}
	*dst = *a
	dst.ownExtra = false
	dst.used = append(used, a.used...)
	return dst
}
