// Command controller runs the full control plane end to end on one
// machine: simulated multi-vendor devices (SVT transponders, pixel-wise
// WSS, amplifiers) listening on real TCP management endpoints, the
// centralized controller planning and pushing configuration, the
// telemetry data stream detecting a staged fiber cut, and automatic
// optical restoration — the §4 pipeline of the paper in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flexwan"
)

func main() {
	grid := flexwan.DefaultGrid()
	fabric := flexwan.NewFabric(flexwan.DefaultLink())
	optical := flexwan.NewOptical()

	fibers := []struct {
		id   string
		a, b flexwan.NodeID
		km   float64
	}{
		{"f-direct", "A", "B", 600},
		{"f-west", "A", "C", 500},
		{"f-east", "C", "B", 700},
	}
	for _, f := range fibers {
		if err := optical.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			log.Fatal(err)
		}
		if err := fabric.AddFiber(f.id, f.km); err != nil {
			log.Fatal(err)
		}
	}
	ip := &flexwan.IPTopology{}
	if err := ip.AddLink(flexwan.IPLink{ID: "a-b", A: "A", B: "B", DemandGbps: 400}); err != nil {
		log.Fatal(err)
	}

	ctrl, err := flexwan.NewController(flexwan.ControllerConfig{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: grid, K: 3,
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ctrl.Close()

	// Spin up the device fleet on loopback TCP and register all of it in
	// one wave with the controller's device manager, which holds the one
	// session per device that configuration and telemetry share.
	var fleet []flexwan.DeviceDescriptor
	register := func(desc flexwan.DeviceDescriptor, start func(string) (string, error)) {
		addr, err := start("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
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
			defer agent.Close()
			register(desc, agent.Start)
		}
	}
	for _, f := range fibers {
		wssDesc := flexwan.DeviceDescriptor{
			ID: "wss-" + f.id, Class: flexwan.ClassWSS,
			Vendor: "vendor-B", Address: "pending", Site: string(f.a), Fiber: f.id,
		}
		wss := flexwan.NewWSSAgent(wssDesc, grid)
		defer wss.Close()
		register(wssDesc, wss.Start)

		ampDesc := flexwan.DeviceDescriptor{
			ID: "edfa-" + f.id, Class: flexwan.ClassAmplifier,
			Vendor: "vendor-C", Address: "pending", Site: string(f.a), Fiber: f.id,
		}
		amp := flexwan.NewAmplifierAgent(ampDesc, fabric, f.id)
		defer amp.Close()
		register(ampDesc, amp.Start)
	}
	for i, err := range ctrl.DevMgr().RegisterAll(fleet) {
		if err != nil {
			log.Fatal(err)
		}
		desc := fleet[i]
		fmt.Printf("registered %-12s (%s, %s) at %s\n", desc.ID, desc.Class, desc.Vendor, desc.Address)
	}

	// Plan, apply, audit.
	result, err := ctrl.PlanNetwork()
	if err != nil {
		log.Fatal(err)
	}
	if err := ctrl.Apply(result); err != nil {
		log.Fatal(err)
	}
	report, err := ctrl.Audit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplied %d wavelengths; audit: %d channels, %d inconsistencies, %d conflicts\n",
		result.Transponders(), report.ChannelsChecked, len(report.Inconsistencies), len(report.Conflicts))
	fmt.Printf("live capacity: %v Gbps\n\n", ctrl.LiveCapacityGbps())

	// Start the data stream and stage a fiber cut.
	store := flexwan.NewTelemetryStore(1024)
	collector := flexwan.NewCollector(store, 100*time.Millisecond, ctrl.DevMgr().Devices(), ctrl.DevMgr())
	collector.Run()
	defer collector.Stop()

	done := make(chan struct{})
	go ctrl.WatchContext(context.Background(), collector.Events(), func(rep *flexwan.RestoreReport) {
		if res := rep.Result; res != nil {
			fmt.Printf("restoration complete: revived %d of %d Gbps\n", res.RestoredGbps, res.AffectedGbps)
			close(done)
		}
	})

	fmt.Println("*** backhoe cuts fiber f-direct ***")
	fabric.Cut("f-direct")

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		log.Fatal("restoration did not complete")
	}

	report, err = ctrl.Audit()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-restoration audit: %d channels, clean = %v\n", report.ChannelsChecked, report.Clean())
	fmt.Printf("live capacity after cut: %v Gbps\n", ctrl.LiveCapacityGbps())
}
