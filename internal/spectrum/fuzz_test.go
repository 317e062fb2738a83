package spectrum

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"flexwan/internal/topology"
)

// FuzzMapOperations drives the bitset occupancy map and the []bool map it
// replaced with the same arbitrary operation stream: every answer must
// agree, accounting must stay consistent and no operation may panic. The
// grid spans three words with a partial last one, so runs and intervals
// cross word boundaries and meet the band edge.
func FuzzMapOperations(f *testing.F) {
	f.Add([]byte{1, 4, 0, 2, 8})
	f.Add([]byte{255, 0, 0, 9, 9, 3})
	f.Add([]byte{2, 60, 2, 70, 3, 7, 0, 63, 5, 1, 1, 0, 4, 9})
	f.Add([]byte{6, 30, 13, 30, 6, 0, 6, 151, 13, 90, 1, 0, 13, 20}) // claims: both fits, no width, wider than the grid
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := Grid{PixelGHz: 12.5, Pixels: 150}
		m, ref := NewMap(g), newBoolMap(g)
		var live []Interval
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int(ops[i]), int(ops[i+1])
			switch a % 7 {
			case 0: // place via first fit
				iv, err := m.FirstFit(1 + b%70)
				want, ok := ref.FirstFit(1 + b%70)
				if (err == nil) != ok || iv != want {
					t.Fatalf("FirstFit(%d) = %v, %v; []bool map says %v, %v", 1+b%70, iv, err, want, ok)
				}
				if err == nil {
					if err := m.Place(iv); err != nil {
						t.Fatalf("Place after FirstFit: %v", err)
					}
					ref.Place(iv)
					live = append(live, iv)
				}
			case 1: // release a live interval
				if len(live) > 0 {
					idx := b % len(live)
					if err := m.Release(live[idx]); err != nil {
						t.Fatalf("Release live: %v", err)
					}
					ref.Release(live[idx])
					live = append(live[:idx], live[idx+1:]...)
				}
			case 2: // arbitrary (possibly invalid) placement attempt
				iv := Interval{Start: (a/7)*8 + b%8 - 4, Count: b % 80}
				if got, want := m.CanPlace(iv), ref.CanPlace(iv); got != want {
					t.Fatalf("CanPlace(%v) = %v, []bool map says %v", iv, got, want)
				}
				if got, want := m.Place(iv) == nil, ref.Place(iv); got != want {
					t.Fatalf("Place(%v) succeeded = %v, []bool map says %v", iv, got, want)
				} else if got {
					live = append(live, iv)
				}
			case 3: // arbitrary (possibly invalid) release attempt
				iv := Interval{Start: (a/7)*8 + b%8 - 4, Count: 1 + b%20}
				if got, want := m.Release(iv) == nil, ref.Release(iv); got != want {
					t.Fatalf("Release(%v) succeeded = %v, []bool map says %v", iv, got, want)
				} else if got {
					// Part of the live set is gone; it only lower-bounds usage.
					live = nil
				}
			case 4: // best fit
				iv, err := m.BestFit(1 + b%70)
				want, ok := ref.BestFit(1 + b%70)
				if (err == nil) != ok || iv != want {
					t.Fatalf("BestFit(%d) = %v, %v; []bool map says %v, %v", 1+b%70, iv, err, want, ok)
				}
			case 5: // continue on clones
				m, ref = m.Clone(), ref.Clone()
			case 6: // find and claim in one, as an allocator's one-fiber path
				al := &Allocator{grid: g, words: len(m.used), used: m.used, extra: map[FiberID]int32{"f": 0}, extraIDs: []FiberID{"f"}, ownExtra: true}
				count, fit := b%160, Fit(a/7%2) // no width and widths past the grid included
				iv, err := al.Claim([]FiberID{"f"}, count, fit)
				want, ok := ref.FirstFit(count)
				if fit == BestFit {
					want, ok = ref.BestFit(count)
				}
				if (err == nil) != ok || iv != want {
					t.Fatalf("Claim(%d, %v) = %v, %v; []bool map says %v, %v", count, fit, iv, err, want, ok)
				}
				if ok {
					ref.Place(want)
					live = append(live, iv)
				}
			}
			if got, want := m.FreeRuns(), ref.FreeRuns(); !reflect.DeepEqual(got, want) {
				t.Fatalf("FreeRuns = %v, []bool map says %v", got, want)
			}
			if m.FreePixels() != ref.FreePixels() || m.UsedPixels() != ref.UsedPixels() {
				t.Fatalf("free/used = %d/%d, []bool map says %d/%d", m.FreePixels(), m.UsedPixels(), ref.FreePixels(), ref.UsedPixels())
			}
			for w := -1; w <= g.Pixels; w++ {
				if m.Used(w) != ref.Used(w) {
					t.Fatalf("Used(%d) = %v, []bool map says %v", w, m.Used(w), ref.Used(w))
				}
			}
			sum := 0
			for _, iv := range live {
				sum += iv.Count
			}
			if m.UsedPixels() < sum {
				t.Fatalf("accounting below live set: used %d < %d", m.UsedPixels(), sum)
			}
			if m.FreePixels()+m.UsedPixels() != g.Pixels {
				t.Fatalf("free+used != total")
			}
		}
	})
}

// sameOccupancy reports the first fiber on which the allocator and the
// oracle differ; a fiber without a map and an all-free one are the same
// occupancy.
func sameOccupancy(t *testing.T, what string, got *Allocator, want *refAllocator, fibers []FiberID) {
	t.Helper()
	for _, f := range fibers {
		if g, w := got.FiberMap(f), want.FiberMap(f); !reflect.DeepEqual(g.used, w.used) {
			t.Fatalf("%s: fiber %s holds %v, want %v", what, f, g.FreeRuns(), w.FreeRuns())
		}
	}
	if got.UsedPixels() != want.UsedPixels() {
		t.Fatalf("%s: %d pixels used, want %d", what, got.UsedPixels(), want.UsedPixels())
	}
}

// FuzzForkOperations drives the numbered allocator and the map-keyed one
// it replaced (refAllocator, the oracle) with the same arbitrary operation
// stream — finds, claims, exact allocations and releases (valid or not),
// and forks of forks taken mid-stream, one into a spare allocator's words:
// every answer, every error a claim or an exact allocation gives, and every
// fiber's occupancy must agree, and each allocator a fork was taken from
// must still read as it did at that moment, however its forks were written.
//
// Each call goes in by fiber ID or by topology path. The allocator is laid
// out by the numbering of a topology holding a, b, c and never-written (or,
// on odd-length streams, by none), and d is outside it; a path is numbered
// by that topology (taken by index where the allocator shares the
// numbering), by a second topology numbering the fibers in another order,
// or not at all (both taken by ID).
func FuzzForkOperations(f *testing.F) {
	f.Add([]byte{0, 9, 4, 4, 0, 0, 1, 3, 4, 13, 2, 0, 0, 17, 2, 1})
	f.Add([]byte{1, 200, 4, 6, 0, 4, 2, 0, 3, 77, 0, 5})
	f.Add([]byte{6, 1, 3, 18, 2, 9, 4, 0, 0, 2, 1, 2, 31, 4, 0, 0, 4, 3, 9})
	// Claims: on a–b, a best fit there, an empty path, a–a; a fork; then by
	// path no width, wider than the grid, and 16 pixels on a–b–c.
	f.Add([]byte{1, 12, 4, 1, 140, 5, 1, 255, 4, 1, 4, 4, 4, 0, 0, 7, 12, 0, 19, 12, 151, 31, 108, 16})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := Grid{PixelGHz: 12.5, Pixels: 150}
		fibers := []FiberID{"a", "b", "c", "d", "never-written"}
		numbered := func(ids ...string) *topology.Optical {
			net := topology.New()
			for i, id := range ids {
				if err := net.AddFiber(id, topology.NodeID(rune('P'+i)), topology.NodeID(rune('Q'+i)), 1); err != nil {
					t.Fatal(err)
				}
			}
			return net
		}
		net, other := numbered("never-written", "c", "a", "b"), numbered("b", "d", "a", "c", "never-written")
		pathOf := func(b int) []FiberID {
			path := []FiberID{fibers[b%4]}
			if b&4 != 0 {
				path = append(path, fibers[(b/8)%4])
			}
			if b&64 != 0 {
				path = append(path, fibers[(b/16)%4])
			}
			return path
		}
		// routeOf is the path as a topology path, numbered by net, by other
		// or by neither; nil when the call goes in by fiber ID.
		routeOf := func(path []FiberID, x int) *topology.Path {
			if (x/6)%2 == 0 {
				return nil
			}
			p := &topology.Path{}
			for _, f := range path {
				p.Fibers = append(p.Fibers, string(f))
			}
			switch (x / 12) % 3 {
			case 0:
				net.Resolve(p) // fails, leaving the path by ID, when it crosses d
			case 1:
				other.Resolve(p)
			}
			return p
		}
		got, ref := NewAllocatorOn(g, net.Numbering()), newRefAllocator(g)
		if len(ops)%2 == 1 {
			got = NewAllocator(g)
		}
		spare := NewAllocator(g) // an allocator done with, wider than any here
		if _, err := spare.Claim([]FiberID{"s", "t", "u", "v", "w", "x", "y", "z"}, 10, FirstFit); err != nil {
			t.Fatal(err)
		}
		type frozen struct {
			parent   *Allocator
			snapshot *refAllocator
		}
		var parents []frozen
		var live []Allocation
		for i := 0; i+2 < len(ops); i += 3 {
			x, y, z := int(ops[i]), int(ops[i+1]), int(ops[i+2])
			path := pathOf(y)
			if y == 255 {
				path = nil
			}
			route := routeOf(path, x)
			fit := Fit(z % 2)
			switch x % 6 {
			case 0: // find, then allocate what was found
				count := 1 + z%40
				var iv Interval
				var err error
				if route != nil {
					iv, err = got.FindPath(route, count, fit)
				} else {
					iv, err = got.Find(path, count, fit)
				}
				want, wantErr := ref.Find(path, count, fit)
				if iv != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("Find(%v, %d, %v) = %v, %v; oracle says %v, %v", path, count, fit, iv, err, want, wantErr)
				}
				if err != nil {
					continue
				}
				if route != nil {
					err = got.AllocatePath(route, iv)
				} else {
					err = got.AllocateExact(path, iv)
				}
				if wantErr := ref.AllocateExact(path, iv); fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("AllocateExact(%v, %v) = %v; oracle says %v", path, iv, err, wantErr)
				}
				if err == nil {
					live = append(live, Allocation{Fibers: path, Interval: iv})
				}
			case 1: // claim: no width and widths past the grid included
				count := z % 170
				before := ref.Clone()
				var iv Interval
				var err error
				if route != nil {
					iv, err = got.ClaimPath(route, count, fit)
				} else {
					iv, err = got.Claim(path, count, fit)
				}
				want, wantErr := ref.Claim(path, count, fit)
				if iv != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("Claim(%v, %d, %v) = %v, %v; oracle says %v, %v", path, count, fit, iv, err, want, wantErr)
				}
				if err != nil {
					sameOccupancy(t, "after a refused claim", got, before, fibers)
				} else {
					live = append(live, Allocation{Fibers: path, Interval: iv})
				}
			case 2: // release a live allocation
				if len(live) == 0 {
					continue
				}
				al := live[y%len(live)]
				var err error
				if r := routeOf(al.Fibers, x); r != nil {
					err = got.ReleasePath(r, al.Interval)
				} else {
					err = got.Release(al)
				}
				if err != nil {
					t.Fatalf("Release live %v: %v", al, err)
				}
				if err := ref.Release(al); err != nil {
					t.Fatalf("oracle: Release live %v: %v", al, err)
				}
				live = slices.Delete(live, y%len(live), y%len(live)+1)
			case 3: // arbitrary (mostly invalid) release: all or nothing
				al := Allocation{Fibers: path, Interval: Interval{Start: z%160 - 4, Count: 1 + (z/8)%12}}
				before := ref.Clone()
				var err error
				if route != nil {
					err = got.ReleasePath(route, al.Interval)
				} else {
					err = got.Release(al)
				}
				if want := ref.Release(al) == nil; (err == nil) != want {
					t.Fatalf("Release(%v) = %v, oracle succeeded = %v", al, err, want)
				}
				if err != nil {
					sameOccupancy(t, "after a refused release", got, before, fibers)
				} else {
					live = nil // part of the live set is gone
				}
			case 4: // continue on forks, the first one by path into a spare's words
				parents = append(parents, frozen{parent: got, snapshot: ref.Clone()})
				if route != nil {
					got, spare = got.ForkInto(spare), nil
				} else {
					got = got.Fork()
				}
				ref = ref.Fork()
			case 5: // an exact allocation, decided elsewhere
				iv := Interval{Start: z%160 - 4, Count: (z / 4) % 20}
				var err error
				if route != nil {
					err = got.AllocatePath(route, iv)
				} else {
					err = got.AllocateExact(path, iv)
				}
				if wantErr := ref.AllocateExact(path, iv); fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("AllocateExact(%v, %v) = %v; oracle says %v", path, iv, err, wantErr)
				}
				if err == nil {
					live = append(live, Allocation{Fibers: path, Interval: iv})
				}
			}
			sameOccupancy(t, "allocator against oracle", got, ref, fibers)
		}
		if err, want := got.Verify(live), ref.Verify(live); (err == nil) != (want == nil) || live != nil && err != nil {
			t.Fatalf("Verify(live) = %v; oracle says %v", err, want)
		}
		for i, p := range parents {
			sameOccupancy(t, fmt.Sprintf("allocator forked at fork %d", i), p.parent, p.snapshot, fibers)
		}
	})
}
