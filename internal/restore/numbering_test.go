package restore

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"flexwan/internal/plan"
	"flexwan/internal/topology"
)

// renderSweep prints what a sweep restored, pointers followed.
func renderSweep(s SweepResult) string {
	var b strings.Builder
	for _, r := range s.Results {
		fmt.Fprintf(&b, "%s %d/%d\n", r.Scenario.ID, r.RestoredGbps, r.AffectedGbps)
		for _, w := range r.Restored {
			var original string
			if w.Original != nil {
				original = fmt.Sprint(w.Original.LinkID, w.Original.Path.Fibers, w.Original.Interval)
			}
			fmt.Fprintf(&b, "  %s %s %v %v %v\n", w.LinkID, original, w.Path.Fibers, *w.Mode, w.Interval)
		}
	}
	fmt.Fprintf(&b, "failed %v\n", s.FailedIDs())
	return b.String()
}

// A base plan whose wavelengths' paths know their fibers by ID only — built
// by hand, or decoded from JSON — or by the numbers of another topology
// (the same fibers added in reverse order) is claimed and released through
// the allocator's ID lookups, and restores exactly what the numbered plan
// does, at one worker and at one per core.
func TestBasePathsByIDRestoreTheSame(t *testing.T) {
	for name, p := range plannedNetworks(t) {
		fibers := p.Optical.Fibers()
		other := topology.New()
		for i := len(fibers) - 1; i >= 0; i-- {
			f := fibers[i]
			if err := other.AddFiber(f.ID, f.A, f.B, f.LengthKm); err != nil {
				t.Fatal(err)
			}
		}
		for variant, renumber := range map[string]func(*topology.Path){
			"by fiber ID": func(*topology.Path) {},
			"numbered by another topology": func(path *topology.Path) {
				if !other.Resolve(path) {
					t.Fatalf("%s: path %v has a fiber the copy lacks", name, path.Fibers)
				}
			},
		} {
			plain := *p.Base
			plain.Wavelengths = slices.Clone(p.Base.Wavelengths)
			for i := range plain.Wavelengths {
				w := &plain.Wavelengths[i]
				w.Path = &topology.Path{Nodes: w.Path.Nodes, Fibers: w.Path.Fibers, LengthKm: w.Path.LengthKm}
				renumber(w.Path)
			}
			q := p
			q.Base = &plain
			scs := cutsOf(p, 45)
			for _, workers := range []int{1, runtime.NumCPU()} {
				want, err := SweepWithOptions(p, scs, SweepOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := SweepWithOptions(q, scs, SweepOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if renderSweep(got) != renderSweep(want) {
					t.Fatalf("%s, %d workers: a base plan %s restores differently", name, workers, variant)
				}
			}
			if err := plan.Verify(plan.Problem{Optical: p.Optical, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid}, &plain); err != nil {
				t.Fatalf("%s: Verify on the plan %s: %v", name, variant, err)
			}
		}
	}
}

// A base wavelength may cross a fiber the topology does not number (a
// hand-built plan naming one). Cutting that fiber fails the wavelength, as
// it does in the replay oracle, alone and beside a numbered fiber.
func TestBaseFiberOffTheTopologyFailsWithItsCut(t *testing.T) {
	p := plannedNetworks(t)["tbackbone-1"]
	plain := *p.Base
	plain.Wavelengths = slices.Clone(p.Base.Wavelengths)
	w := &plain.Wavelengths[0]
	w.Path = &topology.Path{Nodes: w.Path.Nodes, Fibers: append(slices.Clone(w.Path.Fibers), "ghost"), LengthKm: w.Path.LengthKm}
	p.Base = &plain
	scs := append(SingleFiberScenarios(p.Optical),
		Scenario{ID: "ghost", CutFibers: []string{"ghost"}},
		Scenario{ID: "ghost+first", CutFibers: []string{"ghost", w.Path.Fibers[0]}})
	sweep, err := SweepWithOptions(p, scs, SweepOptions{Workers: 2})
	if err != nil || sweep.Failed() != 0 {
		t.Fatalf("sweep: %v, failed %v", err, sweep.FailedIDs())
	}
	for i, sc := range scs {
		q := p
		q.Scenario = sc
		want, err := replaySolve(q)
		if err != nil {
			t.Fatalf("cut %v: oracle: %v", sc.CutFibers, err)
		}
		if !reflect.DeepEqual(sweep.Results[i], want) {
			t.Fatalf("cut %v: restored %d of %d Gbps, the replay heuristic %d of %d",
				sc.CutFibers, sweep.Results[i].RestoredGbps, sweep.Results[i].AffectedGbps, want.RestoredGbps, want.AffectedGbps)
		}
	}
	if got := sweep.Results[len(scs)-2].AffectedGbps; got == 0 {
		t.Fatal("cutting the fiber off the topology failed nothing")
	}
}
