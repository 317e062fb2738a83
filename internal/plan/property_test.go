package plan

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// randomNetwork builds a connected random instance: ring + chords with
// random demands between random site pairs.
func randomNetwork(rng *rand.Rand) (*topology.Optical, *topology.IPTopology) {
	n := 5 + rng.Intn(6)
	g := topology.New()
	names := make([]topology.NodeID, n)
	for i := range names {
		names[i] = topology.NodeID(fmt.Sprintf("n%02d", i))
	}
	fid := 0
	addFiber := func(a, b topology.NodeID) {
		fid++
		_ = g.AddFiber(fmt.Sprintf("f%03d", fid), a, b, 60+rng.Float64()*700)
	}
	for i := 0; i < n; i++ {
		addFiber(names[i], names[(i+1)%n])
	}
	for i := 0; i < n/2; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			addFiber(names[a], names[b])
		}
	}
	ip := &topology.IPTopology{}
	nLinks := 2 + rng.Intn(6)
	for i := 0; i < nLinks; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		_ = ip.AddLink(topology.IPLink{
			ID: fmt.Sprintf("e%02d", i), A: names[a], B: names[b],
			DemandGbps: (1 + rng.Intn(20)) * 100,
		})
	}
	return g, ip
}

// Property: on any random connected instance, for every catalog, Solve
// either serves a link fully or reports it unserved, never violates a
// constraint (Verify), and FlexWAN never uses more transponders than
// RADWAN, which never uses more than 100G-WAN (on links all can serve).
func TestSolvePropertyRandomNetworks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ip := randomNetwork(rng)
		if len(ip.Links) == 0 {
			return true
		}
		counts := map[string]int{}
		feasible := map[string]bool{}
		for _, cat := range []transponder.Catalog{transponder.Fixed100G(), transponder.RADWAN(), transponder.SVT()} {
			p := Problem{Optical: g, IP: ip, Catalog: cat, Grid: spectrum.DefaultGrid()}
			r, err := Solve(p)
			if err != nil {
				return false
			}
			if err := Verify(p, r); err != nil {
				t.Logf("seed %d %s: %v", seed, cat.Name, err)
				return false
			}
			counts[cat.Name] = r.Transponders()
			feasible[cat.Name] = r.Feasible()
		}
		// Cost ordering only comparable when all three serve everything.
		if feasible["100G-WAN"] && feasible["RADWAN"] && feasible["FlexWAN"] {
			if !(counts["FlexWAN"] <= counts["RADWAN"] && counts["RADWAN"] <= counts["100G-WAN"]) {
				t.Logf("seed %d: counts %v", seed, counts)
				return false
			}
		}
		// SVT feasibility dominates RADWAN's (superset catalog).
		if feasible["RADWAN"] && !feasible["FlexWAN"] {
			t.Logf("seed %d: RADWAN feasible but FlexWAN not", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Extend never disturbs existing wavelengths and keeps the
// allocator consistent, on random instances and random growth sequences.
func TestExtendPropertyRandomGrowth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, ip := randomNetwork(rng)
		if len(ip.Links) == 0 {
			return true
		}
		p := Problem{Optical: g, IP: ip, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid()}
		r, err := Solve(p)
		if err != nil {
			return false
		}
		for step := 0; step < 4; step++ {
			link := ip.Links[rng.Intn(len(ip.Links))]
			before := make(map[int]Wavelength, len(r.Wavelengths))
			for i, w := range r.Wavelengths {
				before[i] = w
			}
			if _, err := Extend(p, r, link.ID, (1+rng.Intn(8))*100); err != nil {
				return false
			}
			for i, w := range before {
				got := r.Wavelengths[i]
				if got.LinkID != w.LinkID || got.Interval != w.Interval || *got.Mode != *w.Mode {
					return false // existing wavelength disturbed
				}
			}
			if err := r.Allocator.Verify(allAllocations(r)); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: restoration on random failures never exceeds affected
// capacity, never reuses occupied spectrum, and exact ≥ heuristic does
// not need checking here (covered in restore tests); instead check that
// Decommission+Extend round-trips leave a verifiable plan.
func TestDecommissionExtendRoundTripProperty(t *testing.T) {
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
		victim := ip.Links[rng.Intn(len(ip.Links))]
		if _, err := Decommission(r, victim.ID); err != nil {
			return false
		}
		if _, err := Extend(p, r, victim.ID, victim.DemandGbps); err != nil {
			return false
		}
		return r.Allocator.Verify(allAllocations(r)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
