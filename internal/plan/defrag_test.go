package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// fragmentedPlan builds a plan with two links, removes the first, and
// returns the holey result.
func fragmentedPlan(t *testing.T) (Problem, *Result) {
	t.Helper()
	p := Problem{
		Optical: lineTopology(t),
		IP: ipLinks(t,
			topology.IPLink{ID: "low", A: "A", B: "B", DemandGbps: 1200},
			topology.IPLink{ID: "high", A: "A", B: "B", DemandGbps: 1200},
		),
		Catalog: transponder.SVT(),
		Grid:    spectrum.DefaultGrid(),
		K:       1,
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible() {
		t.Fatalf("unserved: %v", r.Unserved)
	}
	// Remove whichever link got the lower spectrum, creating a hole.
	victim := "low"
	minStart := map[string]int{}
	for _, w := range r.Wavelengths {
		if cur, ok := minStart[w.LinkID]; !ok || w.Interval.Start < cur {
			minStart[w.LinkID] = w.Interval.Start
		}
	}
	if minStart["high"] < minStart["low"] {
		victim = "high"
	}
	if _, err := Decommission(r, victim); err != nil {
		t.Fatal(err)
	}
	return p, r
}

func TestDefragmentCompacts(t *testing.T) {
	p, r := fragmentedPlan(t)
	// Before: surviving wavelengths start above the hole.
	lowestBefore := p.Grid.Pixels
	for _, w := range r.Wavelengths {
		if w.Interval.Start < lowestBefore {
			lowestBefore = w.Interval.Start
		}
	}
	if lowestBefore == 0 {
		t.Fatal("test setup: no hole at the bottom of the spectrum")
	}
	moves, err := Defragment(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 {
		t.Fatal("nothing moved")
	}
	// After: the lowest wavelength sits at pixel 0 and the set is packed
	// on the single shared path (total pixels == span of occupied run).
	lowestAfter := p.Grid.Pixels
	for _, w := range r.Wavelengths {
		if w.Interval.Start < lowestAfter {
			lowestAfter = w.Interval.Start
		}
	}
	if lowestAfter != 0 {
		t.Errorf("lowest start after defrag = %d, want 0", lowestAfter)
	}
	if err := r.Allocator.Verify(allAllocations(r)); err != nil {
		t.Errorf("allocator inconsistent after defrag: %v", err)
	}
	// Idempotent once compacted.
	again, err := Defragment(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("second defrag moved %d wavelengths", again)
	}
	// Fragmentation strictly improved on the path's fiber.
	m := r.Allocator.FiberMap("f1")
	if m.LargestFreeRun().Count == 0 {
		t.Error("no free run after defrag")
	}
}

func TestDefragmentValidation(t *testing.T) {
	p, _ := fragmentedPlan(t)
	if _, err := Defragment(p, nil); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := Defragment(p, &Result{}); err == nil {
		t.Error("result without allocator accepted")
	}
}

// Property: defragmentation never changes capacity, modes, or paths; it
// only lowers interval starts, and Verify stays clean.
func TestDefragmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ip := randomNetwork(rng)
		if len(ip.Links) < 2 {
			return true
		}
		p := Problem{Optical: g, IP: ip, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid()}
		r, err := Solve(p)
		if err != nil {
			return false
		}
		// Punch random holes.
		if _, err := Decommission(r, ip.Links[rng.Intn(len(ip.Links))].ID); err != nil {
			return false
		}
		type key struct {
			link string
			mode transponder.Mode
		}
		countBefore := map[key]int{}
		startSum := 0
		for _, w := range r.Wavelengths {
			countBefore[key{w.LinkID, *w.Mode}]++
			startSum += w.Interval.Start
		}
		if _, err := Defragment(p, r); err != nil {
			return false
		}
		countAfter := map[key]int{}
		startSumAfter := 0
		for _, w := range r.Wavelengths {
			countAfter[key{w.LinkID, *w.Mode}]++
			startSumAfter += w.Interval.Start
		}
		if len(countBefore) != len(countAfter) {
			return false
		}
		for k, n := range countBefore {
			if countAfter[k] != n {
				return false
			}
		}
		if startSumAfter > startSum {
			return false // defrag may only move wavelengths down
		}
		return r.Allocator.Verify(allAllocations(r)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
