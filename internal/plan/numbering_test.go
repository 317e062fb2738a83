package plan

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// byID returns a copy of the result whose candidate paths, and the
// wavelengths on them, know their fibers by ID only, as a plan built by
// hand or decoded from JSON does; the allocator is a fork of the result's.
func byID(r *Result) *Result {
	c := *r
	c.Allocator = r.Allocator.Fork()
	c.Paths = make(map[string][]topology.Path, len(r.Paths))
	for id, ps := range r.Paths {
		for _, p := range ps {
			c.Paths[id] = append(c.Paths[id], topology.Path{Nodes: p.Nodes, Fibers: p.Fibers, LengthKm: p.LengthKm})
		}
	}
	c.Wavelengths = slices.Clone(r.Wavelengths)
	for i := range c.Wavelengths {
		w := &c.Wavelengths[i]
		w.Path = &c.Paths[w.LinkID][w.PathIndex]
	}
	c.PerLink, c.Unserved = maps.Clone(r.PerLink), slices.Clone(r.Unserved)
	return &c
}

// render prints what a plan decides, pointers followed.
func render(ws []Wavelength) string {
	var b strings.Builder
	for _, w := range ws {
		fmt.Fprintf(&b, "%s %d %v %v %v\n", w.LinkID, w.PathIndex, w.Path.Fibers, *w.Mode, w.Interval)
	}
	return b.String()
}

// A plan whose paths carry no fiber numbers goes through the allocator's
// ID lookups and evolves exactly as the numbered plan does: Verify accepts
// both, and Extend, Decommission and Defragment make the same decisions.
func TestPathsByIDPlanTheSame(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g, ip := randomNetwork(rand.New(rand.NewSource(seed)))
		p := Problem{Optical: g, IP: ip, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid()}
		numbered, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		plain := byID(numbered)
		for _, r := range []*Result{numbered, plain} {
			if err := Verify(p, r); err != nil {
				t.Fatalf("seed %d: Verify: %v", seed, err)
			}
		}
		for i, l := range ip.Links {
			a, errA := Extend(p, numbered, l.ID, 100*(1+i%4))
			b, errB := Extend(p, plain, l.ID, 100*(1+i%4))
			if fmt.Sprint(errA) != fmt.Sprint(errB) || render(a) != render(b) {
				t.Fatalf("seed %d: Extend(%s) by number placed\n%s(%v), by ID\n%s(%v)", seed, l.ID, render(a), errA, render(b), errB)
			}
		}
		if len(ip.Links) > 0 {
			for _, r := range []*Result{numbered, plain} {
				if _, err := Decommission(r, ip.Links[0].ID); err != nil {
					t.Fatalf("seed %d: Decommission: %v", seed, err)
				}
			}
			p.IP = &topology.IPTopology{Links: ip.Links[1:]}
		}
		movesA, errA := Defragment(p, numbered)
		movesB, errB := Defragment(p, plain)
		if movesA != movesB || fmt.Sprint(errA) != fmt.Sprint(errB) || render(numbered.Wavelengths) != render(plain.Wavelengths) {
			t.Fatalf("seed %d: Defragment moved %d (%v) by number, %d (%v) by ID", seed, movesA, errA, movesB, errB)
		}
		for _, r := range []*Result{numbered, plain} {
			if err := Verify(p, r); err != nil {
				t.Fatalf("seed %d: Verify after evolving: %v", seed, err)
			}
		}
		if numbered.Allocator.UsedPixels() != plain.Allocator.UsedPixels() {
			t.Fatalf("seed %d: %d pixels used by number, %d by ID", seed, numbered.Allocator.UsedPixels(), plain.Allocator.UsedPixels())
		}
	}
}
