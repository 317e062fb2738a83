package restore

import (
	"fmt"
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
// by hand, or decoded from JSON — is claimed and released through the
// allocator's ID lookups, and restores exactly what the numbered plan does,
// at one worker and at one per core.
func TestBasePathsByIDRestoreTheSame(t *testing.T) {
	for name, p := range plannedNetworks(t) {
		plain := *p.Base
		plain.Wavelengths = slices.Clone(p.Base.Wavelengths)
		for i := range plain.Wavelengths {
			w := &plain.Wavelengths[i]
			w.Path = &topology.Path{Nodes: w.Path.Nodes, Fibers: w.Path.Fibers, LengthKm: w.Path.LengthKm}
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
				t.Fatalf("%s, %d workers: a base plan by fiber ID restores differently", name, workers)
			}
		}
		if err := plan.Verify(plan.Problem{Optical: p.Optical, IP: p.IP, Catalog: p.Catalog, Grid: p.Grid}, &plain); err != nil {
			t.Fatalf("%s: Verify on the plan by fiber ID: %v", name, err)
		}
	}
}
