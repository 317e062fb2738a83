// Command multivendor demonstrates the multi-vendor safety property of
// Controller.Apply's candidate/commit protocol (§4.3): a change set
// spanning a pixel-wise (LCoS) WSS vendor and a legacy rigid-grid vendor
// is staged on every device first; the legacy vendor's rejection of an
// off-grid passband discards the entire network change, leaving no device
// — and no controller state — half-configured. Swapping the legacy device
// for a pixel-wise one makes the identical change commit.
package main

import (
	"fmt"
	"log"

	"flexwan"
)

func buildFleet(ctrl *flexwan.Controller, fabric *flexwan.Fabric, legacyF1 bool) (cleanup func()) {
	grid := flexwan.DefaultGrid()
	var closers []func()
	var fleet []flexwan.DeviceDescriptor
	register := func(desc flexwan.DeviceDescriptor, start func(string) (string, error), close func()) {
		addr, err := start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		closers = append(closers, close)
		desc.Address = addr
		fleet = append(fleet, desc)
	}
	for _, site := range []flexwan.NodeID{"A", "B", "C"} {
		for i := 0; i < 2; i++ {
			desc := flexwan.DeviceDescriptor{
				ID: fmt.Sprintf("svt-%s-%d", site, i), Class: flexwan.ClassTransponder,
				Vendor: "vendor-A", Address: "pending", Site: string(site),
			}
			agent := flexwan.NewTransponderAgent(desc, grid, flexwan.SVT(), fabric)
			register(desc, agent.Start, agent.Close)
		}
	}
	for _, f := range []struct {
		id   string
		site flexwan.NodeID
	}{{"f1", "A"}, {"f2", "A"}, {"f3", "C"}} {
		desc := flexwan.DeviceDescriptor{
			ID: "wss-" + f.id, Class: flexwan.ClassWSS,
			Vendor: "vendor-B (LCoS)", Address: "pending", Site: string(f.site), Fiber: f.id,
		}
		if legacyF1 && f.id == "f1" {
			desc.Vendor = "vendor-L (75 GHz fixed grid)"
			w := flexwan.NewFixedGridWSS(desc, grid, 75)
			register(desc, w.Start, w.Close)
			continue
		}
		w := flexwan.NewWSSAgent(desc, grid)
		register(desc, w.Start, w.Close)
	}
	for _, err := range ctrl.DevMgr().RegisterAll(fleet) {
		if err != nil {
			log.Fatal(err)
		}
	}
	return func() {
		for _, c := range closers {
			c()
		}
	}
}

func run(legacyF1 bool) {
	fabric := flexwan.NewFabric(flexwan.DefaultLink())
	optical := flexwan.NewOptical()
	for _, f := range []struct {
		id   string
		a, b flexwan.NodeID
		km   float64
	}{
		{"f1", "A", "B", 600},
		{"f2", "A", "C", 500},
		{"f3", "C", "B", 700},
	} {
		if err := optical.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			log.Fatal(err)
		}
		if err := fabric.AddFiber(f.id, f.km); err != nil {
			log.Fatal(err)
		}
	}
	ip := &flexwan.IPTopology{}
	// 500 Gbps at 600 km plans as one 500G@87.5 GHz channel — a 7-pixel
	// passband no 75 GHz fixed-grid vendor can provide.
	if err := ip.AddLink(flexwan.IPLink{ID: "a-b", A: "A", B: "B", DemandGbps: 500}); err != nil {
		log.Fatal(err)
	}
	ctrl, err := flexwan.NewController(flexwan.ControllerConfig{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: flexwan.DefaultGrid(), K: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ctrl.Close()
	cleanup := buildFleet(ctrl, fabric, legacyF1)
	defer cleanup()

	result, err := ctrl.PlanNetwork()
	if err != nil {
		log.Fatal(err)
	}
	w := result.Wavelengths[0]
	fmt.Printf("plan: %d Gbps @ %.1f GHz on f1 (legacy f1 vendor: %v)\n",
		w.Mode.DataRateGbps, w.Mode.SpacingGHz, legacyF1)
	if err := ctrl.Apply(result); err != nil {
		fmt.Printf("  apply refused: %d live channels, capacity %v\n    %v\n",
			len(ctrl.Channels()), ctrl.LiveCapacityGbps(), err)
		return
	}
	report, err := ctrl.Audit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  apply committed: capacity %v, audit clean = %v\n",
		ctrl.LiveCapacityGbps(), report.Clean())
}

func main() {
	fmt.Println("--- change set against a legacy fixed-grid vendor on f1 ---")
	run(true)
	fmt.Println("--- same change set with pixel-wise WSS everywhere ---")
	run(false)
}
