// Command restoration walks through the paper's Figure 4 scenario: a
// fiber cut forces a wavelength onto a restoration path twice as long as
// its primary. RADWAN's fixed 75 GHz grid must drop the data rate;
// FlexWAN's spacing-variable transponder widens the channel instead and
// revives the full capacity.
package main

import (
	"fmt"
	"log"

	"flexwan"
)

func main() {
	// The Fig. 4 ring: a 600 km primary path A–B and a 1200 km detour
	// via C.
	optical := flexwan.NewOptical()
	for _, f := range []struct {
		id   string
		a, b flexwan.NodeID
		km   float64
	}{
		{"primary", "A", "B", 600},
		{"west", "A", "C", 500},
		{"east", "C", "B", 700},
	} {
		if err := optical.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			log.Fatal(err)
		}
	}
	ip := &flexwan.IPTopology{}
	if err := ip.AddLink(flexwan.IPLink{ID: "a-b", A: "A", B: "B", DemandGbps: 300}); err != nil {
		log.Fatal(err)
	}

	for _, catalog := range []flexwan.Catalog{flexwan.RADWAN(), flexwan.SVT()} {
		problem := flexwan.PlanProblem{
			Optical: optical, IP: ip, Catalog: catalog, Grid: flexwan.DefaultGrid(),
		}
		base, err := flexwan.Plan(problem)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s plans the 600 km primary:\n", catalog.Name)
		for _, w := range base.Wavelengths {
			fmt.Printf("  %d Gbps @ %.1f GHz (reach %.0f km)\n",
				w.Mode.DataRateGbps, w.Mode.SpacingGHz, w.Mode.ReachKm)
		}

		res, err := flexwan.Restore(flexwan.RestoreProblem{
			Optical: optical, IP: ip, Catalog: catalog, Grid: flexwan.DefaultGrid(),
			Base:     base,
			Scenario: flexwan.Scenario{ID: "backhoe", CutFibers: []string{"primary"}},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after the cut (1200 km detour): restored %d of %d Gbps (capability %.2f)\n",
			res.RestoredGbps, res.AffectedGbps, res.Capability())
		for _, r := range res.Restored {
			fmt.Printf("  re-modulated to %d Gbps @ %.1f GHz (reach %.0f km), path ×%.1f longer\n",
				r.Mode.DataRateGbps, r.Mode.SpacingGHz, r.Mode.ReachKm, r.PathStretch())
		}
		fmt.Println()
	}

	// Sweep every 1-fiber failure with FlexWAN and report the aggregate.
	problem := flexwan.PlanProblem{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: flexwan.DefaultGrid(),
	}
	base, err := flexwan.Plan(problem)
	if err != nil {
		log.Fatal(err)
	}
	sweep, err := flexwan.RestoreSweepWithOptions(flexwan.RestoreProblem{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: flexwan.DefaultGrid(), Base: base,
	}, flexwan.SingleFiberScenarios(optical), flexwan.SweepOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FlexWAN mean restoration capability over all 1-fiber cuts: %.2f\n", sweep.MeanCapability())
}
