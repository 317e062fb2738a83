package spectrum

import (
	"fmt"
	"reflect"
	"testing"
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
				al := &Allocator{grid: g, fibers: map[FiberID]fiberMap{"f": {Map: m}}}
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

// sameOccupancy reports the first fiber on which two allocators differ;
// a fiber without a map and an all-free one are the same occupancy.
func sameOccupancy(t *testing.T, what string, got, want *Allocator, fibers []FiberID) {
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

// FuzzForkOperations drives a Fork lineage and a Clone lineage with the
// same arbitrary operation stream — allocations, releases (valid or not),
// and further forks taken mid-stream: every answer and every fiber's
// occupancy must agree, and each allocator a fork was taken from must
// still read as it did at that moment, however its forks were written.
// Claim runs on the fork against Find then AllocateExact on the clone, so
// the one-pass placement is held to the two halves' outcome on borrowed
// maps, repeated fibers and refusals alike.
func FuzzForkOperations(f *testing.F) {
	f.Add([]byte{0, 9, 4, 0, 1, 3, 4, 0, 2, 0, 0, 17, 2, 1})
	f.Add([]byte{1, 200, 4, 0, 4, 0, 2, 0, 3, 77, 0, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 4, 0, 2, 1, 2, 0, 4, 0, 0, 4, 3, 9})
	// Claims: on a–b, the same best fit, an empty path, a–a; a fork; then on
	// its borrowed maps no width, wider than the grid, and 16 pixels on a–b–c.
	f.Add([]byte{17, 12, 17, 140, 17, 255, 17, 4, 4, 0, 5, 12, 251, 12, 29, 108})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := Grid{PixelGHz: 12.5, Pixels: 150}
		fibers := []FiberID{"a", "b", "c", "d", "never-written"}
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
		fork, clone := NewAllocator(g), NewAllocator(g)
		type frozen struct{ parent, snapshot *Allocator }
		var parents []frozen
		var live []Allocation
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int(ops[i]), int(ops[i+1])
			switch a % 6 {
			case 0, 1: // find and claim, first or best fit
				path, count, fit := pathOf(b), 1+(a/6)%40, Fit(a%2)
				iv, err := fork.Find(path, count, fit)
				want, wantErr := clone.Find(path, count, fit)
				if (err == nil) != (wantErr == nil) || iv != want {
					t.Fatalf("Find(%v, %d, %v) = %v, %v; clone says %v, %v", path, count, fit, iv, err, want, wantErr)
				}
				if err != nil {
					continue
				}
				got, want2 := fork.AllocateExact(path, iv) == nil, clone.AllocateExact(path, iv) == nil
				if got != want2 {
					t.Fatalf("AllocateExact(%v, %v) succeeded = %v, clone says %v", path, iv, got, want2)
				}
				if got {
					live = append(live, Allocation{Fibers: path, Interval: iv})
				}
			case 2: // release a live allocation
				if len(live) > 0 {
					idx := b % len(live)
					if err := fork.Release(live[idx]); err != nil {
						t.Fatalf("Release live %v: %v", live[idx], err)
					}
					if err := clone.Release(live[idx]); err != nil {
						t.Fatalf("clone: Release live %v: %v", live[idx], err)
					}
					live = append(live[:idx], live[idx+1:]...)
				}
			case 3: // arbitrary (mostly invalid) release: all or nothing
				al := Allocation{Fibers: pathOf(b), Interval: Interval{Start: (a / 6) * 3, Count: 1 + b%12}}
				before := fork.Clone()
				got, want := fork.Release(al) == nil, clone.Release(al) == nil
				if got != want {
					t.Fatalf("Release(%v) succeeded = %v, clone says %v", al, got, want)
				}
				if !got {
					sameOccupancy(t, "after a refused release", fork, before, fibers)
				} else {
					live = nil // part of the live set is gone
				}
			case 4: // continue on a fork of the fork and a clone of the clone
				parents = append(parents, frozen{parent: fork, snapshot: fork.Clone()})
				fork, clone = fork.Fork(), clone.Clone()
			case 5: // Claim against Find then AllocateExact
				path, count, fit := pathOf(b), (a/6)*4, Fit(b>>7) // widths 0 to 164 on 150 pixels
				if b == 255 {
					path = nil
				}
				before := fork.Clone()
				iv, err := fork.Claim(path, count, fit)
				want, wantErr := clone.Find(path, count, fit)
				if wantErr == nil {
					if wantErr = clone.AllocateExact(path, want); wantErr != nil {
						want = Interval{}
					}
				}
				if iv != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("Claim(%v, %d, %v) = %v, %v; Find then AllocateExact on the clone say %v, %v", path, count, fit, iv, err, want, wantErr)
				}
				if err != nil {
					sameOccupancy(t, "after a refused claim", fork, before, fibers)
				} else {
					live = append(live, Allocation{Fibers: path, Interval: iv})
				}
			}
			sameOccupancy(t, "fork against clone", fork, clone, fibers)
			if !reflect.DeepEqual(fork.Fibers(), clone.Fibers()) {
				t.Fatalf("Fibers() = %v, clone says %v", fork.Fibers(), clone.Fibers())
			}
		}
		if err := fork.Verify(live); err != nil && live != nil {
			t.Fatalf("Verify(live): %v", err)
		}
		for i, p := range parents {
			sameOccupancy(t, fmt.Sprintf("allocator forked at fork %d", i), p.parent, p.snapshot, fibers)
		}
	})
}
