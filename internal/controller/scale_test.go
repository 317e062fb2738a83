package controller

import (
	"fmt"
	"testing"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/phy"
	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// TestProductionScaleDeployment deploys the full synthetic T-backbone as
// live device agents — hundreds of transponders, one WSS and one
// amplifier per fiber, all on loopback TCP — and drives the whole
// pipeline: plan, apply, audit, cut the busiest fiber, restore, re-audit.
// This is the control plane at production shape rather than toy size.
func TestProductionScaleDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("production-scale deployment is slow; skipped with -short")
	}
	n := workload.TBackbone(1)
	grid := spectrum.DefaultGrid()
	fabric := device.NewFabric(phy.DefaultLink())
	for _, f := range n.Optical.Fibers() {
		if err := fabric.AddFiber(f.ID, f.LengthKm); err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := New(Config{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Size the per-site transponder pools from the plan itself.
	pre, err := plan.Solve(plan.Problem{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	need := map[string]int{}
	for _, w := range pre.Wavelengths {
		need[string(w.Path.Src())]++
		need[string(w.Path.Dst())]++
	}
	var fleet []devmodel.Descriptor
	for _, site := range n.Optical.Nodes() {
		// Spares for restoration retunes plus headroom.
		count := need[string(site)] + 2
		for i := 0; i < count; i++ {
			desc := devmodel.Descriptor{
				ID: fmt.Sprintf("tx-%s-%02d", site, i), Class: devmodel.ClassTransponder,
				Vendor: "vendorA", Address: "pending", Site: string(site),
			}
			agent := device.NewTransponder(desc, grid, transponder.SVT(), fabric)
			addr, err := agent.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(agent.Close)
			desc.Address = addr
			fleet = append(fleet, desc)
		}
	}
	for _, f := range n.Optical.Fibers() {
		desc := devmodel.Descriptor{
			ID: "wss-" + f.ID, Class: devmodel.ClassWSS,
			Vendor: "vendorB", Address: "pending", Site: string(f.A), Fiber: f.ID,
		}
		w := device.NewWSS(desc, grid)
		addr, err := w.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		desc.Address = addr
		fleet = append(fleet, desc)
	}
	registerAll(t, ctrl, fleet)
	t.Logf("registered %d devices for %d wavelengths", len(fleet), len(pre.Wavelengths))

	res, err := ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatalf("unserved: %v", res.Unserved)
	}
	if err := ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	report, err := ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.ChannelsChecked != len(res.Wavelengths) {
		t.Fatalf("audit = %+v", report)
	}

	// Cut the fiber carrying the most channels.
	load := map[string]int{}
	for _, w := range res.Wavelengths {
		for _, f := range w.Path.Fibers {
			load[f]++
		}
	}
	busiest, best := "", 0
	for f, l := range load {
		if l > best || (l == best && f < busiest) {
			busiest, best = f, l
		}
	}
	t.Logf("cutting busiest fiber %s (%d channels)", busiest, best)
	rep, err := ctrl.HandleFiberCutReport(busiest)
	if err != nil {
		t.Fatal(err)
	}
	rres := rep.Result
	if rres.AffectedGbps == 0 {
		t.Fatal("busiest fiber carried nothing?")
	}
	if rres.Capability() < 0.5 {
		t.Errorf("restoration capability %.2f on an underloaded network", rres.Capability())
	}
	report, err = ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("post-restoration audit dirty: %d inconsistencies, %d conflicts",
			len(report.Inconsistencies), len(report.Conflicts))
	}
}
