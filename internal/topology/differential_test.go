package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// twinGraphs builds the same seeded random multigraph as an indexed
// topology and as the map-based oracle: a ring for connectivity plus
// chords, many of them parallel fibers; small integer lengths, so equal
// path lengths are the rule; and fiber IDs that are prefixes of one
// another or contain the '|' the old dedup keys were joined with, so the
// ID tie-breaks are exercised where they are subtle.
func twinGraphs(rng *rand.Rand) (*Optical, *mapGraph, []NodeID) {
	n := 4 + rng.Intn(7)
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = NodeID(fmt.Sprintf("n%d", i))
	}
	g, ref := New(), newMapGraph()
	ids := 0
	add := func(a, b int) {
		ids++
		id := fmt.Sprintf("f%d", ids)
		switch rng.Intn(4) {
		case 0:
			id = fmt.Sprintf("f%d|%d", ids/3, ids)
		case 1:
			id = fmt.Sprintf("f%da", ids)
		}
		km := float64(1 + rng.Intn(4))
		if err := g.AddFiber(id, nodes[a], nodes[b], km); err != nil {
			panic(err)
		}
		if err := ref.AddFiber(id, nodes[a], nodes[b], km); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n)
	}
	for extra := rng.Intn(2 * n); extra > 0; extra-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			add(a, b)
		}
	}
	// A site no fiber reaches.
	g.AddNode("island")
	ref.AddNode("island")
	return g, ref, append(nodes, "island")
}

func samePaths(got, want []Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d paths, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Nodes, want[i].Nodes) || !reflect.DeepEqual(got[i].Fibers, want[i].Fibers) ||
			math.Float64bits(got[i].LengthKm) != math.Float64bits(want[i].LengthKm) {
			return fmt.Errorf("path %d is %v over %v, oracle has %v over %v", i, got[i], got[i].Fibers, want[i], want[i].Fibers)
		}
	}
	return nil
}

// compareGraphs checks every read the API offers, and KSP between every
// pair of sites, against the oracle.
func compareGraphs(t *testing.T, what string, g *Optical, ref *mapGraph, nodes []NodeID) {
	t.Helper()
	if !reflect.DeepEqual(g.Nodes(), ref.Nodes()) || g.NumNodes() != ref.NumNodes() {
		t.Fatalf("%s: nodes %v, oracle has %v", what, g.Nodes(), ref.Nodes())
	}
	if !reflect.DeepEqual(g.Fibers(), ref.Fibers()) || g.NumFibers() != ref.NumFibers() {
		t.Fatalf("%s: fibers %v (%d), oracle has %v (%d)", what, g.Fibers(), g.NumFibers(), ref.Fibers(), ref.NumFibers())
	}
	for _, a := range nodes {
		for _, b := range nodes {
			for _, k := range []int{1, 3, 7} {
				if err := samePaths(g.KShortestPaths(a, b, k), ref.KShortestPaths(a, b, k)); err != nil {
					t.Fatalf("%s: KSP %s→%s k=%d: %v", what, a, b, k, err)
				}
			}
			got, ok := g.ShortestPath(a, b)
			want, wantOK := ref.ShortestPath(a, b)
			if ok != wantOK || (ok && samePaths([]Path{got}, []Path{want}) != nil) {
				t.Fatalf("%s: shortest %s→%s is %v, %v; oracle has %v, %v", what, a, b, got, ok, want, wantOK)
			}
		}
	}
}

// TestIndexedYenMatchesMapBased: same paths, same order, same LengthKm
// bits as the map-based Dijkstra and Yen, on seeded random multigraphs.
func TestIndexedYenMatchesMapBased(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		g, ref, nodes := twinGraphs(rand.New(rand.NewSource(seed)))
		compareGraphs(t, fmt.Sprintf("seed %d", seed), g, ref, nodes)
	}
}

// TestWithoutViewMatchesRebuiltCopy: a Without view, and a view of a
// view, answer everything as the oracle's rebuilt copies do — including
// unknown and repeated cut IDs — and adding to either side afterwards
// leaves the other as it was.
func TestWithoutViewMatchesRebuiltCopy(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, ref, nodes := twinGraphs(rng)
		fibers := g.Fibers()
		pick := func() string { return fibers[rng.Intn(len(fibers))].ID }
		cut1 := []string{pick(), "no-such-fiber", pick()}
		cut2 := []string{pick(), cut1[0]}
		what := fmt.Sprintf("seed %d without %v", seed, cut1)

		v1, r1 := g.Without(cut1...), ref.Without(cut1...)
		compareGraphs(t, what, v1, r1, nodes)
		for _, id := range cut1 {
			if _, ok := v1.Fiber(id); ok {
				t.Fatalf("%s: cut fiber %s still there", what, id)
			}
		}
		v2, r2 := v1.Without(cut2...), r1.Without(cut2...)
		compareGraphs(t, what+" then "+fmt.Sprint(cut2), v2, r2, nodes)
		compareGraphs(t, "parent of "+what, g, ref, nodes)

		// Grow the parent: the views must not see it.
		if err := g.AddFiber("late", nodes[0], nodes[2], 1); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddFiber("late", nodes[0], nodes[2], 1); err != nil {
			t.Fatal(err)
		}
		compareGraphs(t, "grown parent of "+what, g, ref, nodes)
		compareGraphs(t, what+" after the parent grew", v1, r1, nodes)
		// Grow a view, re-adding a fiber it had cut: the parent and the
		// view's own view must not see it.
		if err := v1.AddFiber(cut1[0], nodes[1], nodes[3], 2); err != nil {
			t.Fatal(err)
		}
		if err := r1.AddFiber(cut1[0], nodes[1], nodes[3], 2); err != nil {
			t.Fatal(err)
		}
		compareGraphs(t, "grown "+what, v1, r1, nodes)
		compareGraphs(t, what+" then "+fmt.Sprint(cut2)+" after its parent grew", v2, r2, nodes)
		compareGraphs(t, "grown parent of grown "+what, g, ref, nodes)
	}
}
