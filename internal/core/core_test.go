package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

func testBackbone(t *testing.T) *Backbone {
	t.Helper()
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, b topology.NodeID
		km   float64
	}{
		{"f1", "A", "B", 600},
		{"f2", "A", "C", 500},
		{"f3", "C", "B", 700},
		{"f4", "B", "D", 300},
	} {
		if err := g.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			t.Fatal(err)
		}
	}
	ip := &topology.IPTopology{}
	for _, l := range []topology.IPLink{
		{ID: "ab", A: "A", B: "B", DemandGbps: 600},
		{ID: "bd", A: "B", B: "D", DemandGbps: 400},
	} {
		if err := ip.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	b, err := New(Config{
		Optical: g, IP: ip, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(), K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBackboneLifecycle(t *testing.T) {
	b := testBackbone(t)

	// Operations before planning fail cleanly.
	if _, err := b.Result(); err == nil {
		t.Error("Result before Plan succeeded")
	}
	if _, err := b.GrowDemand("ab", 100); err == nil {
		t.Error("GrowDemand before Plan succeeded")
	}
	if _, err := b.WhatIfCut("f1"); err == nil {
		t.Error("WhatIfCut before Plan succeeded")
	}
	if _, err := b.Utilization(); err == nil {
		t.Error("Utilization before Plan succeeded")
	}

	res, err := b.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Fatalf("unserved: %v", res.Unserved)
	}
	got, err := b.Result()
	if err != nil || got != res {
		t.Errorf("Result = %v, %v", got, err)
	}
}

func TestBackboneGrowth(t *testing.T) {
	b := testBackbone(t)
	if _, err := b.Plan(); err != nil {
		t.Fatal(err)
	}
	before, _ := b.Result()
	txBefore := before.Transponders()

	added, err := b.GrowDemand("ab", 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) == 0 {
		t.Fatal("no wavelengths added")
	}
	after, _ := b.Result()
	if after.Transponders() != txBefore+len(added) {
		t.Errorf("transponders = %d", after.Transponders())
	}
	if _, err := b.GrowDemand("ghost", 100); err == nil {
		t.Error("growth on unknown link succeeded")
	}
}

func TestBackboneAddRemoveLink(t *testing.T) {
	b := testBackbone(t)
	if _, err := b.Plan(); err != nil {
		t.Fatal(err)
	}
	added, err := b.AddLink(topology.IPLink{ID: "ad", A: "A", B: "D", DemandGbps: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) == 0 {
		t.Fatal("no capacity for new link")
	}
	res, _ := b.Result()
	if lp := res.PerLink["ad"]; lp.DemandGbps != 300 || lp.ProvisionedGbps < 300 {
		t.Errorf("new link plan = %+v", lp)
	}
	// Duplicate link rejected.
	if _, err := b.AddLink(topology.IPLink{ID: "ad", A: "A", B: "D", DemandGbps: 100}); err == nil {
		t.Error("duplicate AddLink succeeded")
	}

	freed, err := b.RemoveLink("ad")
	if err != nil {
		t.Fatal(err)
	}
	if freed != len(added) {
		t.Errorf("freed %d, want %d", freed, len(added))
	}
	res, _ = b.Result()
	if _, ok := res.PerLink["ad"]; ok {
		t.Error("removed link still planned")
	}
}

func TestBackboneWhatIf(t *testing.T) {
	b := testBackbone(t)
	if _, err := b.Plan(); err != nil {
		t.Fatal(err)
	}
	res, err := b.WhatIfCut("f1")
	if err != nil {
		t.Fatal(err)
	}
	if res.AffectedGbps != 600 {
		t.Errorf("affected = %d, want 600 (link ab)", res.AffectedGbps)
	}
	if res.RestoredGbps <= 0 {
		t.Error("nothing restored on the detour")
	}
	// What-if must not change live state.
	live, _ := b.Result()
	capacity := 0
	for _, w := range live.Wavelengths {
		capacity += w.Mode.DataRateGbps
	}
	if capacity < 1000 {
		t.Errorf("live capacity mutated by what-if: %d", capacity)
	}
}

func TestBackbonePrecomputeRestoration(t *testing.T) {
	b := testBackbone(t)
	if _, err := b.Plan(); err != nil {
		t.Fatal(err)
	}
	scenarios := restore.SingleFiberScenarios(testOptical(t))
	playbook, err := b.PrecomputeRestoration(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(playbook) != 4 {
		t.Errorf("playbook size = %d, want 4", len(playbook))
	}
	// The playbook, solved as one sweep, holds what asking about each cut
	// on its own answers.
	restoredAny := false
	for _, sc := range scenarios {
		got, ok := playbook[sc.ID]
		if !ok {
			t.Fatalf("playbook has no entry %s", sc.ID)
		}
		want, err := b.WhatIfCut(sc.CutFibers...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Scenario, sc) {
			t.Errorf("%s: entry records scenario %+v", sc.ID, got.Scenario)
		}
		want.Scenario = sc
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: playbook restores %d of %d Gbps, WhatIfCut %d of %d", sc.ID, got.RestoredGbps, got.AffectedGbps, want.RestoredGbps, want.AffectedGbps)
		}
		restoredAny = restoredAny || got.RestoredGbps > 0
	}
	if !restoredAny {
		t.Error("no scenario restored anything: the comparison is vacuous")
	}

	// A scenario that cannot be solved fails the playbook, and the error
	// names the first such scenario in input order.
	for i := range b.result.Wavelengths {
		b.result.Wavelengths[i].LinkID = "ghost" // no such IP link
	}
	slices.Reverse(scenarios)
	if _, err := b.PrecomputeRestoration(scenarios); err == nil || !strings.HasPrefix(err.Error(), "core: scenario cut-f4: ") {
		t.Errorf("playbook over a plan with a ghost link: %v; want the failure of cut-f4, first in input order", err)
	}
}

// testOptical mirrors testBackbone's optical topology for scenario
// enumeration.
func testOptical(t *testing.T) *topology.Optical {
	t.Helper()
	g := topology.New()
	for _, f := range []struct {
		id   string
		a, b topology.NodeID
		km   float64
	}{
		{"f1", "A", "B", 600}, {"f2", "A", "C", 500},
		{"f3", "C", "B", 700}, {"f4", "B", "D", 300},
	} {
		if err := g.AddFiber(f.id, f.a, f.b, f.km); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestBackboneUtilization(t *testing.T) {
	b := testBackbone(t)
	if _, err := b.Plan(); err != nil {
		t.Fatal(err)
	}
	utils, err := b.Utilization()
	if err != nil {
		t.Fatal(err)
	}
	if len(utils) != 4 {
		t.Fatalf("utilization rows = %d", len(utils))
	}
	usedSomewhere := false
	for _, u := range utils {
		if u.UsedGHz < 0 || u.UsedGHz > u.TotalGHz {
			t.Errorf("fiber %s: used %v of %v", u.FiberID, u.UsedGHz, u.TotalGHz)
		}
		if u.UsedGHz > 0 {
			usedSomewhere = true
		}
	}
	if !usedSomewhere {
		t.Error("no fiber carries spectrum")
	}
	bn, err := b.BottleneckFiber()
	if err != nil {
		t.Fatal(err)
	}
	if bn.UsedGHz == 0 {
		t.Error("bottleneck has zero usage")
	}
	head, err := b.Headroom()
	if err != nil {
		t.Fatal(err)
	}
	if head <= 1 {
		t.Errorf("headroom = %v, want > 1 on an underloaded network", head)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestHeadroomEmptyBackbone(t *testing.T) {
	// A planned backbone with zero demand has no bottleneck to divide by.
	g := testOptical(t)
	ip := &topology.IPTopology{}
	b, err := New(Config{Optical: g, IP: ip, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Headroom(); err == nil {
		t.Error("Headroom with no spectrum in use should error")
	}
	if _, err := b.PrecomputeRestoration(nil); err != nil {
		t.Errorf("empty playbook precompute: %v", err)
	}
	if _, err := b.RemoveLink("ghost"); err != nil {
		t.Errorf("removing unknown link should be a no-op, got %v", err)
	}
}
