package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// TestRegisterRejectionLeavesNoPhantom is the regression test for the
// registration-ordering bug: a WSS whose descriptor fails validation
// after the dial (no fiber binding, duplicate fiber) used to be indexed
// before the check fired, leaving a phantom device, a leaked session,
// and a permanently blocked re-registration. Every rejection must leave
// the registry untouched so a corrected descriptor succeeds.
func TestRegisterRejectionLeavesNoPhantom(t *testing.T) {
	d := NewDevMgr()
	grid := spectrum.DefaultGrid()
	agent := device.NewWSS(devmodel.Descriptor{ID: "wss-x", Class: devmodel.ClassWSS}, grid)
	addr, err := agent.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	noFiber := devmodel.Descriptor{
		ID: "wss-x", Class: devmodel.ClassWSS, Vendor: "v", Address: addr, Site: "A",
	}
	if err := d.Register(noFiber); err == nil {
		t.Fatal("WSS with no fiber binding registered")
	}
	if _, ok := d.Descriptor("wss-x"); ok {
		t.Fatal("rejected WSS left a phantom descriptor")
	}
	if _, ok := d.Client("wss-x"); ok {
		t.Fatal("rejected WSS left a live session in the registry")
	}

	good := noFiber
	good.Fiber = "f-x"
	if err := d.Register(good); err != nil {
		t.Fatalf("corrected re-registration under the same ID failed: %v", err)
	}
	if id, ok := d.WSSForFiber("f-x"); !ok || id != "wss-x" {
		t.Fatalf("fiber index = (%q, %v), want wss-x", id, ok)
	}

	// A duplicate fiber binding is rejected without stealing the index
	// or leaving a phantom under the new ID.
	agent2 := device.NewWSS(devmodel.Descriptor{ID: "wss-y", Class: devmodel.ClassWSS}, grid)
	addr2, err := agent2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent2.Close)
	dupFiber := devmodel.Descriptor{
		ID: "wss-y", Class: devmodel.ClassWSS, Vendor: "v", Address: addr2, Site: "A", Fiber: "f-x",
	}
	if err := d.Register(dupFiber); err == nil {
		t.Fatal("duplicate fiber binding registered")
	}
	if _, ok := d.Descriptor("wss-y"); ok {
		t.Fatal("rejected duplicate left a phantom descriptor")
	}
	dupFiber.Fiber = "f-y"
	if err := d.Register(dupFiber); err != nil {
		t.Fatalf("corrected fiber binding failed: %v", err)
	}
}

// TestRegisterRejectsUnreadableHello is the regression test for the
// hello-verification bug: a device whose greeting cannot be decoded
// used to be accepted as "identity verified" because only a clean read
// with a mismatched ID was rejected. An unreadable hello is a failed
// dial — and must not leave a phantom entry blocking a retry.
func TestRegisterRejectsUnreadableHello(t *testing.T) {
	// A server whose hello document is not a Descriptor.
	bogus := netconf.NewServer("not-a-descriptor", func(string, json.RawMessage) (interface{}, error) {
		return nil, nil
	})
	addr, err := bogus.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(bogus.Close)

	d := NewDevMgr()
	desc := devmodel.Descriptor{
		ID: "tx-x", Class: devmodel.ClassTransponder, Vendor: "v", Address: addr, Site: "A",
	}
	err = d.Register(desc)
	if err == nil {
		t.Fatal("registration with an unreadable hello succeeded")
	}
	if !strings.Contains(err.Error(), "hello") {
		t.Errorf("error %v does not name the hello exchange", err)
	}
	if _, ok := d.Descriptor("tx-x"); ok {
		t.Fatal("failed registration left a phantom descriptor")
	}

	// The same ID registers fine against a device that greets properly.
	agent := device.NewTransponder(devmodel.Descriptor{ID: "tx-x", Class: devmodel.ClassTransponder},
		spectrum.DefaultGrid(), transponder.SVT(), device.NewFabric(phy.DefaultLink()))
	good, err := agent.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	desc.Address = good
	if err := d.Register(desc); err != nil {
		t.Fatalf("re-registration after hello failure: %v", err)
	}
	if d.FreeTransponders("A") != 1 {
		t.Fatal("re-registered transponder missing from the free pool")
	}
}

// TestCallRedialsAfterHelloDrop is the regression test for the redial
// half of the hello bug: a dropped greeting on a redial used to hand
// Call an unverified session; it must instead count as a failed dial
// attempt that the retry loop rides out.
func TestCallRedialsAfterHelloDrop(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	d.SetDialOptions(netconf.DialOptions{DialTimeout: 150 * time.Millisecond, CallTimeout: 150 * time.Millisecond})
	d.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond,
		Sleep: func(time.Duration) {},
	})
	var helloDrops int32
	h.wss["f1"].Server().SetInterceptor(func(op string) netconf.FaultDecision {
		if op == netconf.OpHello && atomic.CompareAndSwapInt32(&helloDrops, 0, 1) {
			return netconf.FaultDecision{Fault: netconf.FaultDropRequest}
		}
		return netconf.FaultDecision{}
	})
	// Force the next Call onto the redial path.
	if client, ok := d.Client("wss-f1"); ok {
		d.invalidate("wss-f1", client)
	}
	var cfg devmodel.WSSConfig
	if err := d.Call("wss-f1", netconf.OpGetConfig, nil, &cfg); err != nil {
		t.Fatalf("Call did not recover from a dropped redial hello: %v", err)
	}
	if atomic.LoadInt32(&helloDrops) != 1 {
		t.Fatal("the hello drop never fired; the test proved nothing")
	}
}

// TestApplyRollbackDisablesConfiguredPeer guards the
// half-provisioned-channel leak: when txB refuses its document after txA
// accepted an enabled one, txA's staged document must be discarded — not
// committed, leaving a live laser the audit's conflict check can't even
// see — and the pair must go back to the pool.
func TestApplyRollbackDisablesConfiguredPeer(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	// The B-side transponder NACKs every document it is asked to stage.
	h.transponders["tx-B-0"].Server().SetInterceptor(func(op string) netconf.FaultDecision {
		if op == device.OpEditCandidate {
			return netconf.FaultDecision{Err: "vendor: unsupported mode"}
		}
		return netconf.FaultDecision{}
	})
	if err := h.ctrl.Apply(res); err == nil {
		t.Fatal("Apply succeeded with a NACKing endpoint")
	}
	checkNothingStaged(t, h)
	// Both transponders back in the pool, nothing assigned.
	for _, site := range []string{"A", "B"} {
		if free := h.ctrl.DevMgr().FreeTransponders(site); free != 1 {
			t.Errorf("site %s free pool = %d, want 1", site, free)
		}
	}
	if ch, ok := h.ctrl.DevMgr().Assignment("tx-A-0"); ok {
		t.Errorf("tx-A-0 still assigned to %s after rollback", ch)
	}
	// The survivor's laser is off.
	var cfg devmodel.TransponderConfig
	if err := h.ctrl.DevMgr().Call("tx-A-0", netconf.OpGetConfig, nil, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Enabled {
		t.Fatal("rolled-back endpoint tx-A-0 is still enabled on the device")
	}
	if len(h.ctrl.LiveChannels()) != 0 {
		t.Fatal("failed Apply left live channels")
	}
	audit, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean() {
		t.Fatalf("audit dirty after rollback: %+v", audit)
	}
}

// TestApplyDiscardsBehindLostReplies: a WSS that stages its document but
// whose acknowledgements are all lost looks unreachable. The refused
// change set must still send it a discard, so that no document the
// controller gave up on lingers in its candidate datastore.
func TestApplyDiscardsBehindLostReplies(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	d := h.ctrl.DevMgr()
	d.SetDialOptions(netconf.DialOptions{CallTimeout: 50 * time.Millisecond})
	if client, ok := d.Client("wss-f1"); ok {
		client.SetCallTimeout(50 * time.Millisecond) // dialed before SetDialOptions
	}
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}})
	h.wss["f1"].Server().SetInterceptor(func(op string) netconf.FaultDecision {
		if op == device.OpEditCandidate {
			return netconf.FaultDecision{Fault: netconf.FaultDropReply}
		}
		return netconf.FaultDecision{}
	})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); !errors.Is(err, netconf.ErrTimeout) || !strings.Contains(err.Error(), "wss-f1") {
		t.Fatalf("Apply with wss-f1's replies lost: %v, want its edit-candidate timeout", err)
	}
	checkNothingStaged(t, h)
	if got := h.ctrl.Channels(); len(got) != 0 {
		t.Errorf("live channels after the refusal: %v", got)
	}
}

// TestApplyAtomicSuccess: a change set every device accepts goes live
// whole. After Apply the audit is clean over every planned channel, the
// live capacity covers the demand, every staged document was committed
// and exactly one config version was recorded.
func TestApplyAtomicSuccess(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	store := NewMemStore()
	h.ctrl.SetConfigStore(store)
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	report, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.ChannelsChecked != len(res.Wavelengths) {
		t.Errorf("audit after apply = %+v", report)
	}
	if got := h.ctrl.LiveCapacityGbps()["e1"]; got < 800 {
		t.Errorf("live capacity = %d", got)
	}
	checkNothingStaged(t, h)
	if store.Len() != 1 {
		t.Errorf("one applied change set recorded %d config versions, want 1", store.Len())
	}
}

// TestApplyRefusedByFixedGridVendor: a change set that a legacy
// fixed-grid WSS cannot take is refused as a whole. A 500 Gbps demand on
// the 600 km path plans as one 500G@87.5 GHz wavelength over f1 — a
// 7-pixel passband a rigid 75 GHz vendor cannot slice — so Apply must
// return the vendor's rejection and leave no live channel, no staged or
// enabled device, full transponder pools, the passband intent as it was
// and no new config version.
func TestApplyRefusedByFixedGridVendor(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 500})

	// A second controller over the same fleet, except that f1's WSS is
	// the legacy vendor's.
	grid := spectrum.DefaultGrid()
	legacyDesc := devmodel.Descriptor{
		ID: "wss-legacy-f1", Class: devmodel.ClassWSS,
		Vendor: "legacy", Address: "pending", Site: "A", Fiber: "f1",
	}
	legacy := device.NewFixedGridWSS(legacyDesc, grid, 75)
	addr, err := legacy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(legacy.Close)
	legacyDesc.Address = addr
	ctrl, err := New(Config{Optical: h.optical, IP: h.ip, Catalog: transponder.SVT(), Grid: grid, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	var fleet []devmodel.Descriptor
	for _, desc := range h.devices {
		if desc.Class != devmodel.ClassWSS || desc.Fiber != "f1" {
			fleet = append(fleet, desc)
		}
	}
	registerAll(t, ctrl, append(fleet, legacyDesc))
	store := NewMemStore()
	ctrl.SetConfigStore(store)

	res, err := ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Wavelengths; len(w) != 1 || w[0].Mode.SpacingGHz != 87.5 || !slices.Equal(w[0].Path.Fibers, []string{"f1"}) {
		t.Fatalf("plan %+v is not one 87.5 GHz channel over f1: the refusal proves nothing", w)
	}
	before := ctrl.Snapshot()
	err = ctrl.Apply(res)
	var nack *netconf.RPCError
	if !errors.As(err, &nack) || !strings.Contains(err.Error(), "edit-candidate on wss-legacy-f1") {
		t.Fatalf("Apply against a fixed-grid vendor: %v, want its edit-candidate rejection", err)
	}
	if got := ctrl.Channels(); len(got) != 0 {
		t.Errorf("live channels after the refusal: %v", got)
	}
	checkNothingStaged(t, h)
	if legacy.HasStagedConfig() || len(legacy.Config().Passbands) != 0 {
		t.Errorf("legacy WSS staged %v, runs %+v", legacy.HasStagedConfig(), legacy.Config())
	}
	for id, tr := range h.transponders {
		if tr.State().Config.Enabled {
			t.Errorf("%s enabled by a refused change set", id)
		}
	}
	for _, site := range []string{"A", "B", "C"} {
		if got := ctrl.DevMgr().FreeTransponders(site); got != 3 {
			t.Errorf("site %s: %d free transponders, want 3", site, got)
		}
	}
	if got := ctrl.Snapshot(); fmt.Sprint(got.WSSConfig) != fmt.Sprint(before.WSSConfig) {
		t.Errorf("passband intent after the refusal %v, was %v", got.WSSConfig, before.WSSConfig)
	}
	if store.Len() != 0 {
		t.Errorf("a refused change set recorded %d config versions", store.Len())
	}
}

// TestRestorationRefusedRetuneLeavesTransponderDark: a reused transponder
// whose vendor catalog refuses the restored mode must not stay lit on its
// failed channel, a laser the audit cannot attribute. It ends disabled,
// reported as skipped, and its restored channel pending.
func TestRestorationRefusedRetuneLeavesTransponderDark(t *testing.T) {
	h := newHarness(t, 1, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Wavelengths) != 1 {
		t.Fatalf("plan has %d wavelengths, want 1", len(res.Wavelengths))
	}
	planned := *res.Wavelengths[0].Mode

	// A second controller over the same fleet, except that site A's
	// transponder is a vendor's whose catalog holds the planned mode alone.
	desc := devmodel.Descriptor{
		ID: "tx-A-narrow", Class: devmodel.ClassTransponder,
		Vendor: "narrow", Address: "pending", Site: "A",
	}
	narrow := device.NewTransponder(desc, spectrum.DefaultGrid(),
		transponder.Catalog{Name: "narrow", Modes: []transponder.Mode{planned}}, h.fabric)
	addr, err := narrow.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(narrow.Close)
	desc.Address = addr
	ctrl, err := New(Config{Optical: h.optical, IP: h.ip, Catalog: transponder.SVT(), Grid: spectrum.DefaultGrid(), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	var fleet []devmodel.Descriptor
	for _, d := range h.devices {
		if d.ID != "tx-A-0" {
			fleet = append(fleet, d)
		}
	}
	registerAll(t, ctrl, append(fleet, desc))
	if err := ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}

	rep, err := ctrl.HandleFiberCutReport("f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Restored) != 1 {
		t.Fatalf("restored %d channels, want 1", len(rep.Result.Restored))
	}
	if m := rep.Result.Restored[0].Mode; m.DataRateGbps == planned.DataRateGbps && m.SpacingGHz == planned.SpacingGHz {
		t.Fatalf("restored mode %v is the planned one: the refusal proves nothing", m)
	}
	var cfg devmodel.TransponderConfig
	if err := ctrl.DevMgr().Call(desc.ID, netconf.OpGetConfig, nil, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Enabled {
		t.Errorf("%s refused its retune and still runs %+v", desc.ID, cfg)
	}
	if !slices.Equal(rep.SkippedDevices, []string{desc.ID}) {
		t.Errorf("skipped %v, want [%s]", rep.SkippedDevices, desc.ID)
	}
	if chans := ctrl.Channels(); len(chans) != 1 || !slices.Equal(rep.PendingChannels, chans) {
		t.Errorf("pending %v, want the restored channel of %v", rep.PendingChannels, chans)
	}
}

// TestRestorationSendsOneDocumentPerDevice: a cut sends every device it
// pushes exactly one edit-config, a reused transponder included.
func TestRestorationSendsOneDocumentPerDevice(t *testing.T) {
	h := newHarness(t, 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ops := make(map[string][]string)
	record := func(id string, srv *netconf.Server) {
		srv.SetInterceptor(func(op string) netconf.FaultDecision {
			mu.Lock()
			ops[id] = append(ops[id], op)
			mu.Unlock()
			return netconf.FaultDecision{}
		})
	}
	for id, tr := range h.transponders {
		record(id, tr.Server())
	}
	for fiber, w := range h.wss {
		record("wss-"+fiber, w.Server())
	}

	rep, err := h.ctrl.HandleFiberCutReport("f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Restored) == 0 || rep.Degraded() {
		t.Fatalf("restored %d channels skipping %v: the cut proves nothing", len(rep.Result.Restored), rep.SkippedDevices)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ops) != rep.PushTxDevices+rep.PushWSSDevices {
		t.Errorf("%d devices received RPCs, the push reports %d transponders and %d WSSes",
			len(ops), rep.PushTxDevices, rep.PushWSSDevices)
	}
	for id, got := range ops {
		if !slices.Equal(got, []string{netconf.OpEditConfig}) {
			t.Errorf("%s received %v, want one %s", id, got, netconf.OpEditConfig)
		}
	}
}

// TestParallelPushConvergesUnderFaults drives the fan-out push through
// injected first-attempt drops on every device at once (run under -race
// in CI): each device loses its first edit-candidate request and its
// first commit reply, so the retried commit must be idempotent. Apply
// must converge, the audit must come back clean, nothing may stay
// staged, and the DevMgr's pool/assignment books must balance.
func TestParallelPushConvergesUnderFaults(t *testing.T) {
	h := newHarness(t, 2,
		topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100},
		topology.IPLink{ID: "e2", A: "A", B: "C", DemandGbps: 100},
		topology.IPLink{ID: "e3", A: "C", B: "B", DemandGbps: 100},
	)
	d := h.ctrl.DevMgr()
	d.SetDialOptions(netconf.DialOptions{CallTimeout: 150 * time.Millisecond})
	d.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}})
	// Every device drops its first stage request and its first commit
	// reply; retries succeed.
	var servers []*netconf.Server
	for _, tr := range h.transponders {
		servers = append(servers, tr.Server())
	}
	for _, w := range h.wss {
		servers = append(servers, w.Server())
	}
	fired := make([]struct{ staged, committed atomic.Bool }, len(servers))
	for i, srv := range servers {
		staged, committed := &fired[i].staged, &fired[i].committed
		srv.SetInterceptor(func(op string) netconf.FaultDecision {
			switch {
			case op == device.OpEditCandidate && staged.CompareAndSwap(false, true):
				return netconf.FaultDecision{Fault: netconf.FaultDropRequest}
			case op == device.OpCommit && committed.CompareAndSwap(false, true):
				return netconf.FaultDecision{Fault: netconf.FaultDropReply}
			}
			return netconf.FaultDecision{}
		})
	}
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatalf("parallel Apply under faults: %v", err)
	}
	audit, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Clean() {
		t.Fatalf("audit dirty after faulted parallel push: %+v", audit)
	}
	checkNothingStaged(t, h)
	for i := range fired {
		if !fired[i].staged.Load() || !fired[i].committed.Load() {
			t.Errorf("device %d missed a fault (stage %v, commit %v): the change set left it out",
				i, fired[i].staged.Load(), fired[i].committed.Load())
		}
	}
	// Book-keeping: every live channel's endpoints are assigned to it,
	// and free + assigned accounts for every registered transponder.
	assigned := 0
	for _, ch := range h.ctrl.LiveChannels() {
		for _, tx := range []string{ch.TxA, ch.TxB} {
			got, ok := d.Assignment(tx)
			if !ok || got != ch.Name {
				t.Errorf("endpoint %s of %s assigned to (%q, %v)", tx, ch.Name, got, ok)
			}
			assigned++
		}
	}
	free := 0
	for _, site := range []string{"A", "B", "C"} {
		free += d.FreeTransponders(site)
	}
	if free+assigned != len(h.transponders) {
		t.Errorf("pool books don't balance: %d free + %d assigned != %d registered",
			free, assigned, len(h.transponders))
	}
}
