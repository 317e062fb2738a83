package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
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

// uncached is KShortestPaths as it was before the memo: the search, run
// again on every call.
func uncached(g *Optical, src, dst NodeID, k int) []Path {
	si, okS := g.ix.nodeIdx[src]
	di, okD := g.ix.nodeIdx[dst]
	if k <= 0 || !okS || !okD {
		return nil
	}
	return g.yen(si, di, k)
}

// compareMemo asks every pair twice — the miss that fills the memo and
// the hit it then serves — and wants the uncached search's answer both
// times: same paths, same order, same LengthKm bits.
func compareMemo(t *testing.T, what string, g *Optical, nodes []NodeID) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, a := range nodes {
			for _, b := range nodes {
				for _, k := range []int{1, 3, 7} {
					if err := samePaths(g.KShortestPaths(a, b, k), uncached(g, a, b, k)); err != nil {
						t.Fatalf("%s, round %d: KSP %s→%s k=%d: %v", what, round, a, b, k, err)
					}
				}
			}
		}
	}
}

// TestMemoisedYenMatchesUncached: on the seeded random multigraphs, a
// topology, its views, views of views and topologies grown after being
// shared all answer from the memo what the search answers — a parent and
// a view that cuts something never through the same entry.
func TestMemoisedYenMatchesUncached(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _, nodes := twinGraphs(rng)
		fibers := g.Fibers()
		pick := func() string { return fibers[rng.Intn(len(fibers))].ID }
		what := fmt.Sprintf("seed %d", seed)

		compareMemo(t, what+" unshared", g, nodes)
		filled := len(g.ix.memo)
		if filled == 0 {
			t.Fatalf("%s: nothing memoised", what)
		}
		v1 := g.Without(pick(), "no-such-fiber")
		v2 := v1.Without(pick(), pick())
		same := g.Without("no-such-fiber") // cuts nothing: the parent's entries are its own
		compareMemo(t, what+" view", v1, nodes)
		compareMemo(t, what+" view of view", v2, nodes)
		compareMemo(t, what+" view that cuts nothing", same, nodes)
		compareMemo(t, what+" parent after its views", g, nodes)
		if v1.ix != g.ix || v2.ix != g.ix {
			t.Fatalf("%s: views do not share the parent's index", what)
		}
		for key := range g.ix.memo {
			if key.cut != "" && key.cut != v1.cutKey && key.cut != v2.cutKey {
				t.Fatalf("%s: memo entry under a cut set nobody asked with", what)
			}
		}
		if v1.cutKey == "" || same.cutKey != "" {
			t.Fatalf("%s: cut keys %q (one fiber cut), %q (none cut)", what, v1.cutKey, same.cutKey)
		}
		// The same cut set reached two ways is one cut set.
		if a, b := g.Without(fibers[0].ID).Without(fibers[1].ID), g.Without(fibers[1].ID, fibers[0].ID); a.cutKey != b.cutKey {
			t.Fatalf("%s: one cut set, two keys", what)
		}

		// Growing a shared topology moves it to an index, and a memo, of
		// its own; the views keep theirs.
		if err := g.AddFiber("late", nodes[0], nodes[2], 0.5); err != nil {
			t.Fatal(err)
		}
		if g.ix == v1.ix || len(g.ix.memo) != 0 {
			t.Fatalf("%s: grown parent still answers from the shared memo", what)
		}
		compareMemo(t, what+" grown parent", g, nodes)
		compareMemo(t, what+" view after the parent grew", v1, nodes)
	}
}

// An AddFiber that writes the index in place (no view shares it) drops
// what was memoised on it; an AddNode needs to drop nothing.
func TestMemoDroppedByInPlaceGrowth(t *testing.T) {
	g := New()
	for _, f := range []Fiber{{"ab", "a", "b", 10}, {"bc", "b", "c", 10}} {
		if err := g.AddFiber(f.ID, f.A, f.B, f.LengthKm); err != nil {
			t.Fatal(err)
		}
	}
	if p, ok := g.ShortestPath("a", "c"); !ok || p.LengthKm != 20 {
		t.Fatalf("a→c = %v, %v; want 20 km", p, ok)
	}
	if got := g.KShortestPaths("a", "c", 3); len(got) != 1 {
		t.Fatalf("%d paths a→c, want 1", len(got))
	}
	ix := g.ix
	g.AddNode("d")
	if got := g.KShortestPaths("a", "d", 3); got != nil {
		t.Fatalf("paths to a site without fibers: %v", got)
	}
	if err := g.AddFiber("ac", "a", "c", 5); err != nil {
		t.Fatal(err)
	}
	if g.ix != ix {
		t.Fatal("unshared topology moved to a new index")
	}
	if p, ok := g.ShortestPath("a", "c"); !ok || p.LengthKm != 5 {
		t.Errorf("a→c after the shortcut = %v, %v; want the 5 km fiber", p, ok)
	}
	if got := g.KShortestPaths("a", "c", 3); len(got) != 2 || got[0].Fibers[0] != "ac" {
		t.Errorf("a→c k=3 after the shortcut = %v; want the shortcut, then the old path", got)
	}
	if err := g.AddFiber("cd", "c", "d", 1); err != nil {
		t.Fatal(err)
	}
	if got := g.KShortestPaths("a", "d", 3); len(got) != 2 || got[0].LengthKm != 6 {
		t.Errorf("a→d once d has a fiber = %v; want 6 km first", got)
	}
	compareMemo(t, "grown in place", g, []NodeID{"a", "b", "c", "d"})
}

// The memo starts over when it is full instead of growing without limit.
func TestMemoIsBounded(t *testing.T) {
	g := New()
	if err := g.AddFiber("ab", "a", "b", 1); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= kspMemoCap+10; k++ { // every k is a question of its own
		if got := g.KShortestPaths("a", "b", k); len(got) != 1 || got[0].Fibers[0] != "ab" {
			t.Fatalf("k=%d: %v", k, got)
		}
		if len(g.ix.memo) > kspMemoCap {
			t.Fatalf("memo holds %d entries, cap is %d", len(g.ix.memo), kspMemoCap)
		}
	}
	if n := len(g.ix.memo); n == 0 || n > 10 {
		t.Errorf("memo holds %d entries after starting over 10 questions ago", n)
	}
}

// Eight goroutines ask a topology and its views at once, hits and misses
// mixed. Run under -race.
func TestMemoConcurrentParentAndViews(t *testing.T) {
	g, _, nodes := twinGraphs(rand.New(rand.NewSource(11)))
	fibers := g.Fibers()
	views := []*Optical{g, g.Without(fibers[0].ID), g.Without(fibers[1].ID), g.Without(fibers[0].ID).Without(fibers[2].ID)}
	type question struct {
		view int
		a, b NodeID
	}
	want := make(map[question][]Path)
	for vi, v := range views {
		for _, a := range nodes {
			for _, b := range nodes {
				want[question{vi, a, b}] = uncached(v, a, b, 3)
			}
		}
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; i < 400; i++ {
				q := question{rng.Intn(len(views)), nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
				// A worker's own view over the same cut shares the entries too.
				v := views[q.view]
				if i%3 == 0 {
					v = v.Without()
				}
				if err := samePaths(v.KShortestPaths(q.a, q.b, 3), want[q]); err != nil {
					t.Errorf("view %d, %s→%s: %v", q.view, q.a, q.b, err)
					return
				}
			}
		}(worker)
	}
	wg.Wait()
}
