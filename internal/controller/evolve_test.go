package controller

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"flexwan/internal/device"
	"flexwan/internal/netconf"
	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
)

// evolutionFibers is the examples/evolution network: the Fig. 4 ring plus
// a site D reached from B and from C.
var evolutionFibers = []fiberSpec{
	{"f1", "A", "B", 600},
	{"f2", "A", "C", 500},
	{"f3", "C", "B", 700},
	{"f4", "B", "D", 300},
	{"f5", "C", "D", 450},
}

// applied builds a fleet, plans its demands and applies the plan.
func applied(t *testing.T, fibers []fiberSpec, grid spectrum.Grid, nTx int, demands ...topology.IPLink) *harness {
	t.Helper()
	h := newFleet(t, fibers, grid, nTx, demands...)
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	return h
}

// wssWrites records which fibers' WSSes took a configuration write.
type wssWrites struct {
	mu     sync.Mutex
	fibers map[string]bool
}

// watchWSSWrites installs a recording interceptor on every WSS of the
// harness. A staged document counts as a write: a change set reaches its
// WSSes through edit-candidate, restoration and RemoveLink through
// edit-config.
func watchWSSWrites(h *harness) *wssWrites {
	ww := &wssWrites{fibers: make(map[string]bool)}
	for fiber, w := range h.wss {
		w.Server().SetInterceptor(func(op string) netconf.FaultDecision {
			if op == netconf.OpEditConfig || op == device.OpEditCandidate {
				ww.mu.Lock()
				ww.fibers[fiber] = true
				ww.mu.Unlock()
			}
			return netconf.FaultDecision{}
		})
	}
	return ww
}

// take returns the fibers written since the last take, sorted.
func (ww *wssWrites) take() []string {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	out := make([]string, 0, len(ww.fibers))
	for f := range ww.fibers {
		out = append(out, f)
	}
	sort.Strings(out)
	clear(ww.fibers)
	return out
}

// fibersOf lists, sorted and once each, the fibers the wavelengths cross.
func fibersOf(ws []plan.Wavelength) []string {
	var out []string
	for _, w := range ws {
		out = append(out, w.Path.Fibers...)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// checkStep requires a clean read-back audit, every WSS running the
// recorded intent, and WSS writes on exactly the fibers the step touched.
func checkStep(t *testing.T, h *harness, ww *wssWrites, step string, touched []string) {
	t.Helper()
	if audit, err := h.ctrl.Audit(); err != nil || !audit.Clean() {
		t.Errorf("%s: audit %+v, %v", step, audit, err)
	}
	checkFleetMatchesIntent(t, h)
	if got := ww.take(); !slices.Equal(got, touched) {
		t.Errorf("%s: WSS of %v pushed, the step touched %v", step, got, touched)
	}
}

// TestEvolutionPushesOnlyTouchedDevices grows a link, adds one and
// retires one on a live fleet: after each step the audit reads clean,
// every WSS runs the intent, and only the WSSes of the fibers the step's
// channels cross took a write.
func TestEvolutionPushesOnlyTouchedDevices(t *testing.T) {
	h := applied(t, ringFibers, spectrum.DefaultGrid(), 4, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	ww := watchWSSWrites(h)

	grown, err := h.ctrl.GrowDemand("e1", 800)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) == 0 || h.ctrl.LiveCapacityGbps()["e1"] < 1200 {
		t.Fatalf("grew %d channels to %d Gbps, want ≥ 1200", len(grown), h.ctrl.LiveCapacityGbps()["e1"])
	}
	checkStep(t, h, ww, "GrowDemand", fibersOf(grown))

	added, err := h.ctrl.AddLink(topology.IPLink{ID: "e2", A: "A", B: "C", DemandGbps: 300})
	if err != nil {
		t.Fatal(err)
	}
	if h.ctrl.LiveCapacityGbps()["e2"] < 300 {
		t.Fatalf("new link carries %d Gbps, want ≥ 300", h.ctrl.LiveCapacityGbps()["e2"])
	}
	checkStep(t, h, ww, "AddLink", fibersOf(added))

	var retiring []plan.Wavelength
	for _, ch := range h.ctrl.LiveChannels() {
		if ch.Wavelength.LinkID == "e1" {
			retiring = append(retiring, ch.Wavelength)
		}
	}
	freed, err := h.ctrl.RemoveLink("e1")
	if err != nil {
		t.Fatal(err)
	}
	if freed != len(retiring) {
		t.Errorf("freed %d pairs, e1 had %d channels", freed, len(retiring))
	}
	checkStep(t, h, ww, "RemoveLink", fibersOf(retiring))
	if got := h.ctrl.LiveCapacityGbps(); got["e1"] != 0 || got["e2"] < 300 {
		t.Errorf("capacity after retiring e1: %v", got)
	}
	// Only e2's pair is still claimed at A.
	if got := h.ctrl.DevMgr().FreeTransponders("A"); got != 4-len(added) {
		t.Errorf("%d free transponders at A, want %d", got, 4-len(added))
	}
	for id, tr := range h.transponders {
		if _, claimed := h.ctrl.DevMgr().Assignment(id); !claimed && tr.State().Config.Enabled {
			t.Errorf("%s is free but still lit", id)
		}
	}
}

// TestWhatIfCutSurvivesRemoveLink: a what-if answer describes the channels
// it was solved against, and retiring a link afterwards rewrites none of
// its Originals.
func TestWhatIfCutSurvivesRemoveLink(t *testing.T) {
	h := applied(t, evolutionFibers, spectrum.DefaultGrid(), 4,
		topology.IPLink{ID: "ab", A: "A", B: "B", DemandGbps: 800},
		topology.IPLink{ID: "bd", A: "B", B: "D", DemandGbps: 400})
	res, err := h.ctrl.WhatIfCut("f4")
	if err != nil {
		t.Fatal(err)
	}
	before, originals := make([]string, len(res.Restored)), 0
	for i, r := range res.Restored {
		if r.Original != nil {
			before[i] = fmt.Sprintf("%s@%v", r.Original.LinkID, r.Original.Interval)
			originals++
		}
	}
	if originals == 0 {
		t.Fatal("cutting f4 restores no original channel: the check is vacuous")
	}
	if _, err := h.ctrl.RemoveLink("ab"); err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Restored {
		if r.Original == nil {
			continue
		}
		if got := fmt.Sprintf("%s@%v", r.Original.LinkID, r.Original.Interval); got != before[i] {
			t.Errorf("Restored[%d].Original was %s, reads %s after RemoveLink", i, before[i], got)
		}
	}
	// What-if changed nothing: the live bd channel still rides f4.
	if len(h.ctrl.downFibers) != 0 || h.ctrl.LiveCapacityGbps()["bd"] != 400 {
		t.Errorf("what-if left down fibers %v and bd at %d Gbps", h.ctrl.downFibers, h.ctrl.LiveCapacityGbps()["bd"])
	}
}

// TestEvolutionRefusals: an unknown link, nonpositive growth and a
// duplicate link fail without a write to any device or a change of state.
func TestEvolutionRefusals(t *testing.T) {
	h := applied(t, ringFibers, spectrum.DefaultGrid(), 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	ww := watchWSSWrites(h)
	before := fmt.Sprint(h.ctrl.Snapshot())
	for name, op := range map[string]func() error{
		"grow unknown":   func() error { _, err := h.ctrl.GrowDemand("ghost", 100); return err },
		"remove unknown": func() error { _, err := h.ctrl.RemoveLink("ghost"); return err },
		"grow by zero":   func() error { _, err := h.ctrl.GrowDemand("e1", 0); return err },
		"grow negative":  func() error { _, err := h.ctrl.GrowDemand("e1", -100); return err },
		"add zero":       func() error { _, err := h.ctrl.AddLink(topology.IPLink{ID: "e2", A: "A", B: "C"}); return err },
		"add duplicate": func() error {
			_, err := h.ctrl.AddLink(topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
			return err
		},
	} {
		if err := op(); err == nil {
			t.Errorf("%s succeeded", name)
		}
	}
	if got := fmt.Sprint(h.ctrl.Snapshot()); got != before {
		t.Errorf("refused operations changed the state:\n%s\nwas\n%s", got, before)
	}
	if got := ww.take(); len(got) != 0 {
		t.Errorf("refused operations wrote the WSS of %v", got)
	}
	if len(h.ctrl.cfg.IP.Links) != 1 || h.ctrl.cfg.IP.Links[0].DemandGbps != 400 {
		t.Errorf("IP layer after refusals: %+v", h.ctrl.cfg.IP.Links)
	}
}

// TestGrowthRefusedByDevice: a growth step whose change set a device
// refuses changes nothing — no channel, no passband, no claimed pair, no
// config version, the IP layer included — and leaves nothing staged.
func TestGrowthRefusedByDevice(t *testing.T) {
	h := applied(t, ringFibers, spectrum.DefaultGrid(), 4, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	store := NewMemStore()
	h.ctrl.SetConfigStore(store)
	var refusals atomic.Int64
	for _, w := range h.wss {
		w.Server().SetInterceptor(func(op string) netconf.FaultDecision {
			if op == device.OpEditCandidate {
				refusals.Add(1)
				return netconf.FaultDecision{Err: "vendor: passband refused"}
			}
			return netconf.FaultDecision{}
		})
	}
	// Sequence numbers stay spent; everything else must read as before.
	state := func() string { s := h.ctrl.Snapshot(); s.Seq = nil; return fmt.Sprint(s) }
	before := state()
	for name, op := range map[string]func() ([]plan.Wavelength, error){
		"grow": func() ([]plan.Wavelength, error) { return h.ctrl.GrowDemand("e1", 400) },
		"add link": func() ([]plan.Wavelength, error) {
			return h.ctrl.AddLink(topology.IPLink{ID: "e2", A: "A", B: "C", DemandGbps: 100})
		},
	} {
		n := refusals.Load()
		if added, err := op(); err == nil || added != nil {
			t.Errorf("%s against a refusing WSS: %d wavelengths, %v", name, len(added), err)
		}
		if refusals.Load() == n {
			t.Errorf("%s staged nothing: the refusal proves nothing", name)
		}
	}
	if got := state(); got != before {
		t.Errorf("refused growth changed the state:\n%s\nwas\n%s", got, before)
	}
	if links := h.ctrl.cfg.IP.Links; len(links) != 1 || links[0].DemandGbps != 400 {
		t.Errorf("IP layer after refused growth: %+v", links)
	}
	if store.Len() != 0 {
		t.Errorf("refused growth recorded %d config versions", store.Len())
	}
	checkNothingStaged(t, h)
	if audit, err := h.ctrl.Audit(); err != nil || !audit.Clean() {
		t.Errorf("audit %+v, %v", audit, err)
	}
	checkFleetMatchesIntent(t, h)
}

// TestPartialGrowth: when the spectrum runs out first, growth pushes what
// plan.Extend placed, reports the shortfall, and leaves a clean fleet.
func TestPartialGrowth(t *testing.T) {
	// 24 pixels (300 GHz) fit two 800G channels on f1 and little more on
	// the 1 200 km detour.
	grid := spectrum.Grid{PixelGHz: spectrum.DefaultPixelGHz, Pixels: 24}
	h := applied(t, ringFibers, grid, 8, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	ww := watchWSSWrites(h)
	grown, err := h.ctrl.GrowDemand("e1", 10000)
	if err == nil || !strings.Contains(err.Error(), "Gbps short") {
		t.Fatalf("growth past the spectrum: %v", err)
	}
	if len(grown) == 0 {
		t.Fatal("nothing placed: the growth is not partial")
	}
	placed := 0
	for _, w := range grown {
		placed += w.Mode.DataRateGbps
	}
	t.Logf("placed %d Gbps over %d channels: %v", placed, len(grown), err)
	if want := fmt.Sprintf("grew %d of 10000 Gbps", placed); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
	if got := h.ctrl.LiveCapacityGbps()["e1"]; got != 400+placed {
		t.Errorf("e1 carries %d Gbps, want 400 + the %d placed", got, placed)
	}
	checkStep(t, h, ww, "partial GrowDemand", fibersOf(grown))
}

// TestGrowthAvoidsDownFibers: with f1 cut, new channels take the detour.
func TestGrowthAvoidsDownFibers(t *testing.T) {
	h := applied(t, ringFibers, spectrum.DefaultGrid(), 4, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	if _, err := h.ctrl.HandleFiberCutReport("f1"); err != nil {
		t.Fatal(err)
	}
	grown, err := h.ctrl.GrowDemand("e1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := fibersOf(grown); slices.Contains(got, "f1") || len(got) == 0 {
		t.Errorf("growth with f1 down crosses %v", got)
	}
	if audit, err := h.ctrl.Audit(); err != nil || !audit.Clean() {
		t.Errorf("audit %+v, %v", audit, err)
	}
}

// TestUtilization: one row per fiber, sorted, each counting exactly the
// pixels of the live channels that cross it.
func TestUtilization(t *testing.T) {
	h := applied(t, ringFibers, spectrum.DefaultGrid(), 4, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	if _, err := h.ctrl.AddLink(topology.IPLink{ID: "e2", A: "A", B: "C", DemandGbps: 300}); err != nil {
		t.Fatal(err)
	}
	grid := spectrum.DefaultGrid()
	want := make(map[string]float64)
	for _, ch := range h.ctrl.LiveChannels() {
		for _, f := range ch.Wavelength.Path.Fibers {
			want[f] += float64(ch.Wavelength.Interval.Count) * grid.PixelGHz
		}
	}
	utils, err := h.ctrl.Utilization()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, u := range utils {
		ids = append(ids, u.FiberID)
		if u.UsedGHz != want[u.FiberID] || u.TotalGHz != grid.WidthGHz() {
			t.Errorf("%s: %v of %v GHz used, the live channels occupy %v", u.FiberID, u.UsedGHz, u.TotalGHz, want[u.FiberID])
		}
		if u.Fragmentation < 0 || u.Fragmentation > 1 {
			t.Errorf("%s: fragmentation %v", u.FiberID, u.Fragmentation)
		}
	}
	if fmt.Sprint(ids) != "[f1 f2 f3]" {
		t.Errorf("rows %v, want every fiber in order", ids)
	}
	if want["f1"] == 0 || want["f2"] == 0 {
		t.Errorf("the live channels occupy %v: the check is vacuous", want)
	}
}
