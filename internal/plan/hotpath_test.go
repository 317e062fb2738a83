package plan

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
)

// expandProvision flattens a mode multiset into one mode per wavelength:
// what placeOne used to sort and walk before it walked the provision's
// distinct modes. Kept as the oracle for that walk.
func expandProvision(prov transponder.Provision) []transponder.Mode {
	var out []transponder.Mode
	for i, n := range prov.Counts {
		for j := 0; j < n; j++ {
			out = append(out, prov.Modes[i])
		}
	}
	return out
}

// Walking a provision's distinct modes widest-first tries the same modes
// in the same order as walking the expanded multiset and skipping the
// immediate repeats (which fail exactly as their first attempt did).
func TestDistinctModeWalkMatchesExpandedWalk(t *testing.T) {
	for _, cat := range []transponder.Catalog{transponder.Fixed100G(), transponder.RADWAN(), transponder.SVT()} {
		table := cat.Provisions()
		for dist := 50.0; dist <= 5000; dist += 150 {
			for capacity := 100; capacity <= 12000; capacity += 100 {
				prov, ok := table.MinProvision(capacity, dist)
				if !ok {
					continue
				}
				expanded := expandProvision(prov)
				sort.SliceStable(expanded, func(i, j int) bool { return expanded[i].SpacingGHz > expanded[j].SpacingGHz })
				want := slices.Compact(expanded)

				got := slices.Clone(prov.Modes)
				slices.SortStableFunc(got, func(a, b transponder.Mode) int { return cmp.Compare(b.SpacingGHz, a.SpacingGHz) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s, %d Gbps over %v km: distinct walk %v, expanded walk %v", cat.Name, capacity, dist, got, want)
				}
			}
		}
	}
}

// A planned result is read concurrently (the service's plan cache hands
// one *Result to every restore job on that key): Find, FindPath, HoldsPath,
// FiberMap and Verify on a shared result must not write. Run under -race.
func TestResultConcurrentReaders(t *testing.T) {
	g, ip := randomNetwork(rand.New(rand.NewSource(7)))
	p := Problem{Optical: g, IP: ip, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid()}
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				if err := Verify(p, res); err != nil {
					t.Errorf("Verify: %v", err)
					return
				}
				// Probe fibers the plan never touched as well.
				for _, f := range g.Fibers() {
					path := []spectrum.FiberID{spectrum.FiberID(f.ID), "not-in-the-plan"}
					if _, err := res.Allocator.Find(path, 400, spectrum.FirstFit); err == nil {
						t.Errorf("Find placed 400 pixels on a 384-pixel grid")
						return
					}
					_, _ = res.Allocator.Find(path, 4, spectrum.BestFit)
					_ = res.Allocator.FiberMap(path[0]).FreePixels()
				}
				for _, w := range res.Wavelengths {
					if err := res.Allocator.HoldsPath(w.Path, w.Interval); err != nil {
						t.Errorf("HoldsPath: %v", err)
						return
					}
					_, _ = res.Allocator.FindPath(w.Path, w.Interval.Count, spectrum.FirstFit)
				}
			}
		}()
	}
	wg.Wait()
}
