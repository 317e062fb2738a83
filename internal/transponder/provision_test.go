package transponder

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// reachClasses returns one distance inside every reach class of the
// catalog (each distinct reach) plus one beyond all of them.
func reachClasses(c Catalog) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, m := range c.Modes {
		if !seen[m.ReachKm] {
			seen[m.ReachKm] = true
			out = append(out, m.ReachKm)
		}
	}
	return append(out, c.MaxReachKm()+1)
}

// printAlike is a catalog of two 100G modes one ulp of spacing apart, so
// that they print alike and tie everywhere but in the last bit.
func printAlike() Catalog {
	return Catalog{Name: "alike", Modes: []Mode{newMode(100, math.Nextafter(75, 100), 3000), newMode(100, 75, 3000)}}
}

// unreachable has a mode whose reach is NaN — WithReaches keeps one
// when its function returns NaN — which reaches no distance.
func unreachable() Catalog {
	return Catalog{Name: "unreachable", Modes: []Mode{newMode(100, 50, 3000), newMode(200, 75, math.NaN()), newMode(300, 75, 1000)}}
}

// wideCatalog has more modes than a machine word has bits: 70 rates in
// scrambled order, each at a spacing and a reach of its own, so that the
// optimal multisets mix modes on both sides of bit 64.
func wideCatalog() Catalog {
	cat := Catalog{Name: "wide"}
	for i := 0; i < 70; i++ {
		cat.Modes = append(cat.Modes, newMode(100+10*(i*37%70), 50+12.5*float64(i%9), float64(4000-50*i)))
	}
	return cat
}

// TestProvisionTableMatchesFreshDP checks the reused table against a
// from-scratch DP for every capacity 1…20 000 Gbps in every reach class
// of all three catalogs, the print-alike, unreachable and wide ones, in
// ascending order, and a sample of them in descending and scattered
// order, so the table is extended step by step, extended in jumps, and
// read far below its end (the wide catalog against every 61st fresh DP).
// At every capacity the distinct-mode query must list the provision's
// modes in the provision's order, asked before it and after it.
func TestProvisionTableMatchesFreshDP(t *testing.T) {
	const maxGbps = 20000
	for _, cat := range []Catalog{Fixed100G(), RADWAN(), SVT(), printAlike(), unreachable(), wideCatalog()} {
		dists := reachClasses(cat)
		if cat.Name == "wide" { // a class on each side of, and across, a word of modes
			dists = []float64{dists[0], dists[5], dists[63], dists[64], dists[69], dists[70]}
		}
		for _, dist := range dists {
			cat, dist := cat, dist
			t.Run(fmt.Sprintf("%s/%vkm", cat.Name, dist), func(t *testing.T) {
				t.Parallel()
				up, down, strided := newProvisionTable(cat), newProvisionTable(cat), newProvisionTable(cat)
				var buf []*Mode
				low, high := false, false // a provision used a mode below bit 64 together with one above
				check := func(table *ProvisionTable, c int) {
					rc := table.Class(dist)
					if rc != nil {
						buf = rc.AppendModes(buf[:0], c) // before the provision: the query extends the table itself
					}
					got, ok := table.MinProvision(c, dist)
					if ok != (rc != nil) || !sameModes(buf, got.Modes) {
						t.Fatalf("%d Gbps: distinct modes %v, provision %+v, %v", c, buf, got, ok)
					}
					if ok {
						if buf = rc.AppendModes(buf[:0], c); !sameModes(buf, got.Modes) {
							t.Fatalf("%d Gbps: distinct modes %v after the provision %+v", c, buf, got)
						}
					}
					for _, m := range got.Modes {
						i := slices.Index(cat.Modes, m)
						low, high = low || i < 64, high || i >= 64
					}
					if !(low && high) {
						low, high = false, false
					}
					if cat.Name == "wide" && c%61 != 0 {
						return // a fresh DP over 70 modes is slow: sample it
					}
					want, wantOK := freshMinProvision(cat, c, dist)
					if ok != wantOK || !sameProvision(got, want) {
						t.Fatalf("%d Gbps: table says %+v, %v; fresh DP says %+v, %v", c, got, ok, want, wantOK)
					}
					if ok && math.Float64bits(got.SpectrumGHz()) != math.Float64bits(want.SpectrumGHz()) {
						t.Fatalf("%d Gbps: spectrum bits differ", c)
					}
				}
				for c := 1; c <= maxGbps; c++ {
					check(up, c)
				}
				if len(cat.FeasibleModes(dist)) > 64 && !(low && high) {
					t.Error("no provision mixes modes across the word boundary: the catalog does not test it")
				}
				// Read far below the table's end, and extend it in jumps.
				for c := 1; c <= maxGbps; c += 37 {
					check(down, maxGbps+1-c)
					check(strided, 1+(c*7919)%maxGbps)
				}
			})
		}
	}
}

// sameModes reports whether the modes pointed at are the modes listed.
func sameModes(ptrs []*Mode, modes []Mode) bool {
	return slices.EqualFunc(ptrs, modes, func(p *Mode, m Mode) bool { return *p == m })
}

func sameProvision(a, b Provision) bool {
	if len(a.Modes) != len(b.Modes) || len(a.Counts) != len(b.Counts) || len(a.Modes) != len(a.Counts) {
		return false
	}
	for i := range a.Modes {
		if a.Modes[i] != b.Modes[i] || a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// A table shared across distances keeps one DP per reach class and must
// not let one class's cells answer for another.
func TestProvisionTableSharedAcrossDistances(t *testing.T) {
	svt := SVT()
	table := newProvisionTable(svt)
	for round := 0; round < 2; round++ {
		for _, dist := range reachClasses(svt) {
			for _, c := range []int{100, 750, 800, 2300, 6100} {
				got, ok := table.MinProvision(c, dist)
				want, wantOK := freshMinProvision(svt, c, dist)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("%d Gbps at %v km: table says %+v, %v; fresh DP says %+v, %v", c, dist, got, ok, want, wantOK)
				}
			}
		}
	}
}

// Two modes that print alike must not share a count. The provision of
// 300 Gbps here uses both of two 100G modes one ulp of spacing apart
// (the wider one wins a cell only where its extra ulp is absorbed in the
// spectrum sum), twice and once; pairing counts back to modes through
// Mode.String() gave both the same count.
func TestMinProvisionModesThatPrintAlike(t *testing.T) {
	cat := printAlike()
	if wide, narrow := cat.Modes[0], cat.Modes[1]; wide.String() != narrow.String() {
		t.Fatalf("test needs modes that print alike: %v, %v", wide, narrow)
	}
	p, ok := cat.MinProvision(300, 1000)
	if !ok {
		t.Fatal("no provision")
	}
	if p.Transponders() != 3 || p.CapacityGbps() != 300 {
		t.Errorf("provision %v × %v: %d transponders, %d Gbps; want 3 and 300", p.Modes, p.Counts, p.Transponders(), p.CapacityGbps())
	}
	want, _ := freshMinProvision(cat, 300, 1000)
	if !reflect.DeepEqual(p, want) || len(p.Modes) != 2 {
		t.Errorf("provision %v × %v, fresh DP says %v × %v with both modes in use", p.Modes, p.Counts, want.Modes, want.Counts)
	}
}

// The distinct-mode query is the planner's per-wavelength call: it must
// not allocate once its buffer and the table have grown, and a class's
// fall-back order is the feasible modes by rate, then spacing.
func TestReachClassQueriesOnTheHotPath(t *testing.T) {
	svt := SVT()
	table := newProvisionTable(svt)
	rc := table.Class(1200)
	buf := rc.AppendModes(make([]*Mode, 0, len(svt.Modes)), 20000)
	if allocs := testing.AllocsPerRun(100, func() {
		for c := 100; c <= 20000; c += 700 {
			buf = rc.AppendModes(buf[:0], c)
		}
	}); allocs != 0 {
		t.Errorf("AppendModes allocates %v times a round on a grown table", allocs)
	}
	if got := rc.AppendModes(buf[:0], 0); len(got) != 0 {
		t.Errorf("distinct modes of a zero demand: %v", got)
	}
	if table.Class(1200) != rc || table.Class(1150) != rc {
		t.Error("distances with one feasible set do not share a class")
	}
	if table.Class(svt.MaxReachKm()+1) != nil {
		t.Error("a distance no mode reaches has a class")
	}
	want := svt.FeasibleModes(1200)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].DataRateGbps != want[j].DataRateGbps {
			return want[i].DataRateGbps > want[j].DataRateGbps
		}
		return want[i].SpacingGHz < want[j].SpacingGHz
	})
	// Pointer equality: both sides are rows of svt.Modes, not copies of them.
	got := make([]*Mode, rc.Len())
	for i := range got {
		got[i] = rc.ByRate(i)
	}
	if !slices.Equal(got, want) {
		t.Errorf("ByRate = %v, want %v", got, want)
	}
	for _, m := range rc.AppendModes(nil, 20000) {
		if i := slices.Index(want, m); i < 0 {
			t.Errorf("AppendModes returned %v, which is not a row of the catalog", m)
		}
	}
}

// One table serves every goroutine that asks its catalog. The goroutines
// start together and query scattered capacities in every reach class of a
// table nobody has asked yet, so that several of them extend one class at
// once while others read it; every answer must be the fresh DP's. Run
// under -race.
func TestProvisionTableConcurrentQueries(t *testing.T) {
	const (
		goroutines = 8
		queries    = 60
		maxGbps    = 20000
	)
	for _, cat := range []Catalog{
		SVT().WithReaches("cold", func(m Mode) float64 { return m.ReachKm }),
		withTable(wideCatalog()),
	} {
		table, dists := cat.Provisions(), reachClasses(cat)
		if cat.Name == "wide" {
			dists = []float64{dists[0], dists[63], dists[64], dists[69]}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				var buf []*Mode
				for q := 0; q < queries; q++ {
					// The first query of every goroutine asks the class of
					// every mode for a large capacity of its own: they extend
					// it concurrently.
					dist, c := slices.Min(dists), maxGbps-g
					if q > 0 {
						dist, c = dists[(q*7+g)%len(dists)], 1+(q*7919+g*104729)%maxGbps
					}
					got, ok := table.MinProvision(c, dist)
					want, wantOK := freshMinProvision(cat, c, dist)
					if ok != wantOK || !sameProvision(got, want) {
						t.Errorf("%s, %d Gbps at %v km: table says %+v, %v; fresh DP says %+v, %v", cat.Name, c, dist, got, ok, want, wantOK)
						return
					}
					if rc := table.Class(dist); rc != nil {
						if buf = rc.AppendModes(buf[:0], c); !sameModes(buf, want.Modes) {
							t.Errorf("%s, %d Gbps at %v km: distinct modes %v, fresh DP says %v", cat.Name, c, dist, buf, want.Modes)
							return
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}

// The three families are built once: every call hands out the same modes
// and the same table, which their copies share. A derived catalog gets a
// table of its own, and a catalog whose modes are not the ones its table
// was built on — a hand-built one, or a copy given other modes — gets a
// new table on every call.
func TestCatalogsShareTheirTable(t *testing.T) {
	for _, ctor := range []func() Catalog{Fixed100G, RADWAN, SVT} {
		a, b := ctor(), ctor()
		if &a.Modes[0] != &b.Modes[0] || len(a.Modes) != len(b.Modes) {
			t.Errorf("%s: two calls hand out different modes", a.Name)
		}
		if a.Provisions() != b.Provisions() || a.Provisions() == nil {
			t.Errorf("%s: two calls hand out different tables", a.Name)
		}
		derived := a.WithReaches(a.Name+"/2", func(m Mode) float64 { return m.ReachKm / 2 })
		if derived.Provisions() == a.Provisions() || derived.Provisions() != derived.Provisions() {
			t.Errorf("%s: a derived catalog does not own one table", a.Name)
		}
		if got, want := derived.MaxRateAt(a.Modes[0].ReachKm), a.MaxRateAt(2*a.Modes[0].ReachKm); got != want {
			t.Errorf("%s: derived catalog answers %d Gbps at half the reach, want %d", a.Name, got, want)
		}
		grown := a
		grown.Modes = append(grown.Modes, newMode(100, 50, 1e6))
		if len(ctor().Modes) != len(a.Modes) || &grown.Modes[0] == &a.Modes[0] {
			t.Errorf("%s: appending to a copy's modes wrote into the shared catalog", a.Name)
		}
		if grown.Provisions() == a.Provisions() || grown.MaxReachKm() != 1e6 || grown.Provisions().Class(1e6) == nil {
			t.Errorf("%s: a copy with other modes answers from the shared table", a.Name)
		}
		literal := Catalog{Name: a.Name, Modes: a.Modes}
		if literal.Provisions() == literal.Provisions() {
			t.Errorf("%s: a hand-built catalog shares a table", a.Name)
		}
	}
}
