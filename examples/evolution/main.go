// Command evolution demonstrates FlexWAN's smooth backbone evolution (§9
// of the paper) on a live control plane: device agents on loopback TCP
// and the controller that configures them. Demands grow, a link is added
// and another retired, and live wavelengths never move — each change adds
// or removes channels only, the spectrum-sliced OLS absorbs every new
// channel width, and only the devices a change touches are pushed. After
// each step the controller audits the fleet by reading every device's
// configuration back. The demo ends with what-if restoration for every
// single-fiber cut of the evolved backbone.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"flexwan"
)

func main() {
	optical := flexwan.NewOptical()
	for _, f := range []struct {
		id   string
		a, b flexwan.NodeID
		km   float64
	}{
		{"f1", "A", "B", 600},
		{"f2", "A", "C", 500},
		{"f3", "C", "B", 700},
		{"f4", "B", "D", 300},
		{"f5", "C", "D", 450},
	} {
		if err := optical.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			log.Fatal(err)
		}
	}
	ip := &flexwan.IPTopology{}
	for _, l := range []flexwan.IPLink{
		{ID: "ab", A: "A", B: "B", DemandGbps: 800},
		{ID: "bd", A: "B", B: "D", DemandGbps: 400},
	} {
		if err := ip.AddLink(l); err != nil {
			log.Fatal(err)
		}
	}

	// The testbed plans the network, starts one agent per transponder, WSS
	// and amplifier, and applies the plan: month 0.
	tb, err := flexwan.NewChaosTestbed(flexwan.Network{Name: "evolution", Optical: optical, IP: ip},
		flexwan.ChaosOptions{
			SparesPerSite: 4,
			Logf:          func(format string, args ...interface{}) { fmt.Printf("  "+format+"\n", args...) },
		})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	ctrl := tb.Ctrl

	docs := map[string]string{} // fiber → its WSS document, as last reported
	report := func(event string) {
		// The WSS documents this step changed: the fibers it touched.
		var changed []string
		for fiber, doc := range ctrl.Snapshot().WSSConfig {
			if now := fmt.Sprint(doc); now != docs[fiber] {
				changed = append(changed, fiber)
				docs[fiber] = now
			}
		}
		sort.Strings(changed)

		utils, err := ctrl.Utilization()
		if err != nil {
			log.Fatal(err)
		}
		var bottleneck flexwan.FiberUtilization
		for _, u := range utils {
			if u.UsedGHz > bottleneck.UsedGHz {
				bottleneck = u
			}
		}
		gbps := 0
		for _, g := range ctrl.LiveCapacityGbps() {
			gbps += g
		}
		audit, err := ctrl.Audit()
		if err != nil {
			log.Fatal(err)
		}
		verdict := "clean"
		if !audit.Clean() {
			verdict = fmt.Sprintf("DIRTY %+v", audit)
		}
		fmt.Printf("%-28s %2d channels, %4d Gbps; WSS documents changed: %s\n",
			event, len(ctrl.Channels()), gbps, strings.Join(changed, " "))
		fmt.Printf("%-28s bottleneck %s at %.0f/%.0f GHz (headroom %.1fx); audit %s\n",
			"", bottleneck.FiberID, bottleneck.UsedGHz, bottleneck.TotalGHz,
			bottleneck.TotalGHz/bottleneck.UsedGHz, verdict)
	}
	report("month 0: initial plan")

	// Month 3: the A–B demand doubles. Only new channels are added.
	if _, err := ctrl.GrowDemand("ab", 800); err != nil {
		log.Fatal(err)
	}
	report("month 3: A-B +800G")

	// Month 7: a new data center region comes online at D.
	if _, err := ctrl.AddLink(flexwan.IPLink{ID: "ad", A: "A", B: "D", DemandGbps: 600}); err != nil {
		log.Fatal(err)
	}
	report("month 7: new link A-D")

	// Month 12: the B–D service is decommissioned; its spectrum frees.
	if _, err := ctrl.RemoveLink("bd"); err != nil {
		log.Fatal(err)
	}
	report("month 12: B-D retired")

	// What restoration would revive on today's channels, per fiber cut.
	fmt.Println("\nwhat-if restoration:")
	for _, sc := range flexwan.SingleFiberScenarios(optical) {
		res, err := ctrl.WhatIfCut(sc.CutFibers...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s affected %4d Gbps → restored %4d Gbps (capability %.2f)\n",
			sc.ID, res.AffectedGbps, res.RestoredGbps, res.Capability())
	}
}
