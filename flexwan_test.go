package flexwan_test

import (
	"testing"

	"flexwan"
)

// buildNetwork assembles a small backbone through the public API only.
func buildNetwork(t testing.TB) (*flexwan.Optical, *flexwan.IPTopology) {
	t.Helper()
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
			t.Fatal(err)
		}
	}
	ip := &flexwan.IPTopology{}
	// 400G: restorable in full on the 1200 km detour (400G@112.5 GHz
	// reaches 1600 km in Table 2).
	if err := ip.AddLink(flexwan.IPLink{ID: "ab", A: "A", B: "B", DemandGbps: 400}); err != nil {
		t.Fatal(err)
	}
	return optical, ip
}

func TestPublicAPIPlanRestore(t *testing.T) {
	optical, ip := buildNetwork(t)
	problem := flexwan.PlanProblem{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: flexwan.DefaultGrid(),
	}
	result, err := flexwan.Plan(problem)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Feasible() || result.Transponders() == 0 {
		t.Fatalf("plan = %d transponders, feasible %v", result.Transponders(), result.Feasible())
	}
	if err := flexwan.VerifyPlan(problem, result); err != nil {
		t.Fatal(err)
	}
	res, err := flexwan.Restore(flexwan.RestoreProblem{
		Optical: optical, IP: ip, Catalog: flexwan.SVT(), Grid: flexwan.DefaultGrid(),
		Base:     result,
		Scenario: flexwan.Scenario{ID: "cut", CutFibers: []string{"f1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoredGbps != 400 {
		t.Errorf("restored %d, want 400", res.RestoredGbps)
	}
	// Scenario generators.
	if got := len(flexwan.SingleFiberScenarios(optical)); got != 3 {
		t.Errorf("single-fiber scenarios = %d", got)
	}
	if got := len(flexwan.DoubleFiberScenarios(optical)); got != 3 {
		t.Errorf("double-fiber scenarios = %d", got)
	}
	if got := flexwan.ProbabilisticScenarios(optical, 1, 5, 0.8); len(got) == 0 {
		t.Error("no probabilistic scenarios")
	}
}

func TestPublicAPICatalogsAndPhysics(t *testing.T) {
	if n := len(flexwan.SVT().Modes); n != 36 {
		t.Errorf("SVT modes = %d", n)
	}
	if flexwan.RADWAN().MaxRateAt(600) != 300 {
		t.Error("RADWAN MaxRateAt(600) != 300")
	}
	if flexwan.Fixed100G().Modes[0].ReachKm != 3000 {
		t.Error("100G reach != 3000")
	}
	// Shannon helpers behave per the paper's motivation.
	if flexwan.ShannonMinSNRdB(800, 75) < 30 {
		t.Error("800G at 75 GHz should need > 30 dB")
	}
	link := flexwan.DefaultLink()
	if link.OSNRdB(800) >= link.OSNRdB(80) {
		t.Error("OSNR should degrade with distance")
	}
	grid := flexwan.DefaultGrid()
	if grid.Pixels != 384 {
		t.Errorf("default grid pixels = %d", grid.Pixels)
	}
}

// TestPublicAPIBackbone evolves a backbone on live loopback agents
// through the controller: grow a link, read utilization, ask a what-if.
func TestPublicAPIBackbone(t *testing.T) {
	optical, ip := buildNetwork(t)
	tb, err := flexwan.NewChaosTestbed(flexwan.Network{Name: "api", Optical: optical, IP: ip}, flexwan.ChaosOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	var ctrl *flexwan.Controller = tb.Ctrl
	if _, err := ctrl.GrowDemand("ab", 200); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.LiveCapacityGbps()["ab"]; got < 600 {
		t.Errorf("ab carries %d Gbps after growing to 600", got)
	}
	utils, err := ctrl.Utilization()
	if err != nil {
		t.Fatal(err)
	}
	var bottleneck flexwan.FiberUtilization
	for _, u := range utils {
		if u.UsedGHz > bottleneck.UsedGHz {
			bottleneck = u
		}
	}
	if bottleneck.UsedGHz == 0 || bottleneck.TotalGHz/bottleneck.UsedGHz <= 1 {
		t.Errorf("bottleneck %+v", bottleneck)
	}
	res, err := ctrl.WhatIfCut("f1")
	if err != nil || res.AffectedGbps == 0 {
		t.Errorf("what-if = %+v, %v", res, err)
	}
	if audit, err := ctrl.Audit(); err != nil || !audit.Clean() {
		t.Errorf("audit %+v, %v", audit, err)
	}
}

func TestWorkloadsViaPublicAPI(t *testing.T) {
	tb := flexwan.TBackbone(1)
	if tb.Optical.NumNodes() == 0 || tb.IP.TotalDemandGbps() == 0 {
		t.Error("empty T-backbone")
	}
	ce := flexwan.Cernet(1)
	if ce.Optical.NumNodes() == 0 {
		t.Error("empty Cernet")
	}
	var n flexwan.Network = tb
	if n.Name != "T-backbone" {
		t.Errorf("name = %s", n.Name)
	}
}
