package transponder

import (
	"fmt"
	"math"
	"reflect"
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

// TestProvisionTableMatchesFreshDP checks the reused table against a
// from-scratch DP for every capacity 1…20 000 Gbps in every reach class
// of all three catalogs in ascending order, and a sample of them in
// descending and scattered order, so the table is extended step by step,
// extended in jumps, and read far below its end.
func TestProvisionTableMatchesFreshDP(t *testing.T) {
	const maxGbps = 20000
	for _, cat := range []Catalog{Fixed100G(), RADWAN(), SVT()} {
		for _, dist := range reachClasses(cat) {
			cat, dist := cat, dist
			t.Run(fmt.Sprintf("%s/%vkm", cat.Name, dist), func(t *testing.T) {
				t.Parallel()
				up, down, strided := NewProvisionTable(cat), NewProvisionTable(cat), NewProvisionTable(cat)
				check := func(table *ProvisionTable, c int) {
					got, ok := table.MinProvision(c, dist)
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
				// Read far below the table's end, and extend it in jumps.
				for c := 1; c <= maxGbps; c += 37 {
					check(down, maxGbps+1-c)
					check(strided, 1+(c*7919)%maxGbps)
				}
			})
		}
	}
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
	table := NewProvisionTable(svt)
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
	wide, narrow := newMode(100, math.Nextafter(75, 100), 3000), newMode(100, 75, 3000)
	if wide.String() != narrow.String() {
		t.Fatalf("test needs modes that print alike: %v, %v", wide, narrow)
	}
	cat := Catalog{Name: "alike", Modes: []Mode{wide, narrow}}
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
