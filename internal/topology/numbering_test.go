package topology

import (
	"math/rand"
	"testing"
)

// checkNumbered fails unless every path is numbered by num and its Index
// names exactly its Fibers.
func checkNumbered(t *testing.T, what string, num *Numbering, paths []Path) {
	t.Helper()
	for i, p := range paths {
		if p.Numbering != num {
			t.Fatalf("%s: path %d is numbered by %p, want the topology's %p", what, i, p.Numbering, num)
		}
		if len(p.Index) != len(p.Fibers) {
			t.Fatalf("%s: path %d has %d numbers for %d fibers", what, i, len(p.Index), len(p.Fibers))
		}
		for h, n := range p.Index {
			if num.ID(n) != p.Fibers[h] {
				t.Fatalf("%s: path %d hop %d is fiber %s, numbered %d = %s", what, i, h, p.Fibers[h], n, num.ID(n))
			}
		}
	}
}

// Every path KShortestPaths or ShortestPath returns, on a built topology
// and on Without views of it, carries numbers that name exactly its fibers,
// in the one numbering the topology and its views share.
func TestPathsCarryTheirFiberNumbers(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _, nodes := twinGraphs(rng)
		num := g.Numbering()
		if num.Len() != g.NumFibers() {
			t.Fatalf("seed %d: numbering of %d fibers, topology has %d", seed, num.Len(), g.NumFibers())
		}
		for _, f := range g.Fibers() {
			if n, ok := num.Lookup(f.ID); !ok || num.ID(n) != f.ID {
				t.Fatalf("seed %d: fiber %s numbered %d (%v)", seed, f.ID, n, ok)
			}
		}
		fibers := g.Fibers()
		views := []*Optical{g, g.Without(fibers[rng.Intn(len(fibers))].ID)}
		views = append(views, views[1].Without(fibers[rng.Intn(len(fibers))].ID, "no-such-fiber"))
		for vi, v := range views {
			if v.Numbering() != num {
				t.Fatalf("seed %d: view %d has a numbering of its own", seed, vi)
			}
			for _, a := range nodes {
				for _, b := range nodes {
					checkNumbered(t, "KShortestPaths", num, v.KShortestPaths(a, b, 1+rng.Intn(4)))
					if p, ok := v.ShortestPath(a, b); ok {
						checkNumbered(t, "ShortestPath", num, []Path{p})
					}
				}
			}
		}
	}
}

// Adding a fiber in place gives the topology a new numbering, as it drops
// the path memo; the old one, which allocators may still hold, does not
// change. A topology whose index a view shares moves to a copy instead, and
// the view keeps the numbering it had.
func TestAddFiberRenumbers(t *testing.T) {
	g := diamond(t)
	old := g.Numbering()
	if g.Numbering() != old {
		t.Fatal("a second Numbering call built another numbering")
	}
	if err := g.AddFiber("6", "A", "D", 500); err != nil {
		t.Fatal(err)
	}
	num := g.Numbering()
	if num == old || num.Len() != old.Len()+1 {
		t.Fatalf("after an in-place AddFiber: numbering %p of %d fibers, was %p of %d", num, num.Len(), old, old.Len())
	}
	if _, ok := old.Lookup("6"); ok || old.Len() != 5 {
		t.Fatalf("the old numbering changed: %d fibers, knows the new one: %v", old.Len(), ok)
	}
	checkNumbered(t, "after AddFiber", num, g.KShortestPaths("A", "D", 4))

	view := g.Without("1")
	if err := g.AddFiber("7", "B", "D", 50); err != nil {
		t.Fatal(err)
	}
	if view.Numbering() != num {
		t.Fatal("the view's numbering changed when its parent grew")
	}
	grown := g.Numbering()
	if grown == num || grown.Len() != num.Len()+1 {
		t.Fatalf("the grown parent's numbering: %p of %d fibers", grown, grown.Len())
	}
	checkNumbered(t, "grown parent", grown, g.KShortestPaths("A", "D", 4))
	checkNumbered(t, "view", num, view.KShortestPaths("A", "D", 4))
}

// Resolve numbers a hand-built path in the topology's numbering, and
// leaves one crossing a fiber the topology lacks as it was.
func TestResolve(t *testing.T) {
	g := diamond(t)
	p := Path{Nodes: []NodeID{"A", "B", "D"}, Fibers: []string{"1", "3"}, LengthKm: 200}
	if !g.Resolve(&p) {
		t.Fatal("Resolve refused a path over the topology's fibers")
	}
	checkNumbered(t, "resolved", g.Numbering(), []Path{p})
	q := Path{Fibers: []string{"1", "9"}}
	if g.Resolve(&q) || q.Numbering != nil || q.Index != nil {
		t.Fatalf("Resolve over an unknown fiber: %+v", q)
	}
}
