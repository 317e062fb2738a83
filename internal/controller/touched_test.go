package controller

import (
	"fmt"
	"sort"
	"testing"

	"flexwan/internal/devmodel"
	"flexwan/internal/topology"
)

// passbands renders a WSS document order-independently.
func passbands(cfg devmodel.WSSConfig) string {
	pbs := append([]devmodel.Passband(nil), cfg.Passbands...)
	sort.Slice(pbs, func(i, j int) bool { return pbs[i].Start < pbs[j].Start })
	return fmt.Sprint(pbs)
}

// checkFleetMatchesIntent compares, for every fiber of the harness, the
// document the WSS is running with the controller's recorded intent and
// with the document a fleet-wide push (wssPlanLocked(nil), what Apply and
// Repair send) would carry.
func checkFleetMatchesIntent(t *testing.T, h *harness) {
	t.Helper()
	intent := h.ctrl.Snapshot().WSSConfig
	h.ctrl.mu.Lock()
	fleet, err := h.ctrl.wssPlanLocked(nil)
	h.ctrl.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for fiber, w := range h.wss {
		running := passbands(w.Config())
		if want := passbands(intent[fiber]); running != want {
			t.Errorf("WSS of %s runs %s, intent is %s", fiber, running, want)
		}
		if doc, ok := fleet.docs["wss-"+fiber]; ok {
			if want := passbands(doc.cfg.(devmodel.WSSConfig)); running != want {
				t.Errorf("WSS of %s runs %s, a fleet-wide push would send %s", fiber, running, want)
			}
		} else if _, known := intent[fiber]; known {
			t.Errorf("fleet-wide plan carries no document for %s", fiber)
		}
	}
}

// TestRestorationPushesOnlyTouchedWSS: a cut that fails no channel pushes
// no WSS; a cut whose channel cannot be restored pushes only the old path's
// WSS; either way every WSS, pushed or not, runs what a fleet-wide push
// would have left on it.
func TestRestorationPushesOnlyTouchedWSS(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	rep, err := h.ctrl.HandleFiberCutReport("f3") // dark: e1 rides f1
	if err != nil {
		t.Fatal(err)
	}
	if rep.PushTxDevices != 0 || rep.PushWSSDevices != 0 {
		t.Errorf("a cut that failed nothing pushed %d transponders and %d WSSes", rep.PushTxDevices, rep.PushWSSDevices)
	}
	checkFleetMatchesIntent(t, h)

	rep, err = h.ctrl.HandleFiberCutReport("f1") // the detour over f3 is down too
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.RestoredGbps != 0 || rep.PushTxDevices != 2 || rep.PushWSSDevices != 1 {
		t.Errorf("restored %d Gbps pushing %d transponders and %d WSSes; want 0, 2 and f1's WSS alone",
			rep.Result.RestoredGbps, rep.PushTxDevices, rep.PushWSSDevices)
	}
	checkFleetMatchesIntent(t, h)
}

// TestSkippedTouchedWSSConvergedByRepair: a WSS on the new path that is
// unreachable during the restoration push is skipped and reported, its
// intent stays recorded, and the next Repair — still a fleet-wide push —
// converges it once it answers again.
func TestSkippedTouchedWSSConvergedByRepair(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	d := h.ctrl.DevMgr()
	desc, _ := d.Descriptor("wss-f2")
	h.wss["f2"].Server().Stop()
	awaitSessionDead(t, d, "wss-f2")

	rep, err := h.ctrl.HandleFiberCutReport("f1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.RestoredGbps != 100 || rep.PushWSSDevices != 3 {
		t.Fatalf("restored %d Gbps over %d WSSes, want 100 over the old and new paths' 3", rep.Result.RestoredGbps, rep.PushWSSDevices)
	}
	if fmt.Sprint(rep.SkippedDevices) != "[wss-f2]" {
		t.Fatalf("skipped %v, want the unreachable wss-f2", rep.SkippedDevices)
	}
	if len(h.wss["f2"].Config().Passbands) != 0 {
		t.Fatal("the stopped WSS took a document")
	}

	if _, err := h.wss["f2"].Server().Listen(desc.Address); err != nil {
		t.Fatal(err)
	}
	repaired, err := h.ctrl.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 1 {
		t.Errorf("Repair found %v inconsistent, want the one restored channel", repaired)
	}
	if audit, err := h.ctrl.Audit(); err != nil || !audit.Clean() {
		t.Errorf("audit after repair: %+v, %v", audit, err)
	}
	checkFleetMatchesIntent(t, h)
}
