package controller

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/restore"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

func TestSnapshotRoundTrip(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	snap := h.ctrl.Snapshot()
	if len(snap.Channels) != len(res.Wavelengths) {
		t.Errorf("snapshot channels = %d, want %d", len(snap.Channels), len(res.Wavelengths))
	}
	data, err := MarshalSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Channels) != len(snap.Channels) || len(back.WSSConfig) != len(snap.WSSConfig) {
		t.Errorf("round trip lost state: %d/%d channels, %d/%d WSS",
			len(back.Channels), len(snap.Channels), len(back.WSSConfig), len(snap.WSSConfig))
	}
	for name, ch := range snap.Channels {
		got := back.Channels[name]
		if got.TxA != ch.TxA || got.TxB != ch.TxB || *got.Wavelength.Mode != *ch.Wavelength.Mode {
			t.Errorf("channel %s differs after round trip", name)
		}
	}
	// The decoded wavelengths point at fresh copies of their path and mode;
	// what they encode to is what was read.
	again, err := MarshalSnapshot(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("snapshot re-encodes differently:\n%s\n%s", again, data)
	}
}

func TestStandbyFailover(t *testing.T) {
	// Primary plans and applies; a standby with its own sessions loads
	// the snapshot and carries on: audit clean, restoration works.
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	snap := h.ctrl.Snapshot()

	standby := newStandby(t, h)
	// Primary dies.
	h.ctrl.Close()

	if err := standby.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	report, err := standby.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.ChannelsChecked != len(snap.Channels) {
		t.Errorf("standby audit = %+v", report)
	}
	// The standby can drive restoration.
	r, err := standby.HandleFiberCutReport("f1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.RestoredGbps != 400 {
		t.Errorf("standby restored %d, want 400", r.Result.RestoredGbps)
	}
	if got := standby.LiveCapacityGbps()["e1"]; got != 400 {
		t.Errorf("live capacity after standby restoration = %d", got)
	}
}

// newStandby returns a fresh controller over the harness's network that
// has dialed and registered the harness's fleet; it is closed with the
// test.
func newStandby(t testing.TB, h *harness) *Controller {
	t.Helper()
	standby, err := New(Config{
		Optical: h.optical, IP: h.ip, Catalog: transponder.SVT(),
		Grid: h.ctrl.cfg.Grid, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(standby.Close)
	registerAll(t, standby, h.devices)
	return standby
}

// checkNothingAdopted fails unless the standby holds no state a snapshot
// could have given it: no channel, WSS document, down fiber or sequence
// number, and every transponder of the fleet back in its site's free pool.
func checkNothingAdopted(t testing.TB, standby *Controller, h *harness) {
	t.Helper()
	if n := len(standby.channels) + len(standby.wssConfig) + len(standby.downFibers) + len(standby.seq); n != 0 {
		t.Fatalf("refused snapshot left state behind: %d channels, %d WSS documents, %d down fibers, %d sequence numbers",
			len(standby.channels), len(standby.wssConfig), len(standby.downFibers), len(standby.seq))
	}
	free := map[string]int{}
	for _, desc := range h.devices {
		if desc.Class != devmodel.ClassTransponder {
			continue
		}
		if ch, taken := standby.DevMgr().Assignment(desc.ID); taken {
			t.Fatalf("refused snapshot left %s claimed for %s", desc.ID, ch)
		}
		free[desc.Site]++
	}
	for site, n := range free {
		if got := standby.DevMgr().FreeTransponders(site); got != n {
			t.Fatalf("site %s has %d free transponders after a refused snapshot, want %d", site, got, n)
		}
	}
}

// lastChannel returns the snapshot's channel that LoadSnapshot takes last.
func lastChannel(s Snapshot) string {
	last := ""
	for name := range s.Channels {
		last = max(last, name)
	}
	return last
}

// checkKnownFibers fails unless every fiber an accepted snapshot names on
// a channel's path or as a WSS document's key is one of the harness's.
func checkKnownFibers(t testing.TB, h *harness, s Snapshot) {
	t.Helper()
	num := h.optical.Numbering()
	for name, ch := range s.Channels {
		for _, fiber := range ch.Wavelength.Path.Fibers {
			if _, ok := num.Lookup(fiber); !ok {
				t.Fatalf("accepted channel %s over unknown fiber %s", name, fiber)
			}
		}
	}
	for fiber := range s.WSSConfig {
		if _, ok := num.Lookup(fiber); !ok {
			t.Fatalf("accepted a WSS document for unknown fiber %s", fiber)
		}
	}
}

// A snapshot refused halfway through its channels leaves the standby as it
// was, so the standby can still take over from a good snapshot.
func TestLoadSnapshotRefusalAdoptsNothing(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	good := h.ctrl.Snapshot()
	if len(good.Channels) < 2 {
		t.Fatalf("want a plan of several channels, got %d", len(good.Channels))
	}
	bad := h.ctrl.Snapshot()
	last := lastChannel(bad)
	ch := bad.Channels[last]
	ch.TxB = "tx-ghost"
	bad.Channels[last] = ch

	standby := newStandby(t, h)
	if err := standby.LoadSnapshot(bad); err == nil || !strings.Contains(err.Error(), "tx-ghost") {
		t.Fatalf("LoadSnapshot with an unknown transponder: %v", err)
	}
	checkNothingAdopted(t, standby, h)
	if err := standby.LoadSnapshot(good); err != nil {
		t.Fatalf("good snapshot after a refused one: %v", err)
	}
	report, err := standby.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.ChannelsChecked != len(good.Channels) {
		t.Errorf("standby audit = %+v", report)
	}
}

// A snapshot naming a fiber the standby's topology does not have — on a
// channel's path or as a WSS document's key — is refused with nothing
// adopted. Adopted, the standby could neither audit (no WSS for the fiber)
// nor restore a cut of the channel's real fibers.
func TestLoadSnapshotRefusesUnknownFiber(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"channel path", func(s *Snapshot) {
			last := lastChannel(*s)
			ch := s.Channels[last]
			path := *ch.Wavelength.Path
			path.Fibers = append([]string{"f-ghost"}, path.Fibers[1:]...)
			ch.Wavelength.Path = &path
			s.Channels[last] = ch
		}},
		{"WSS document", func(s *Snapshot) {
			s.WSSConfig["f-ghost"] = s.WSSConfig["f1"]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Round-trip through the codec, as replication does: a decoded
			// path carries fiber IDs only.
			data, err := MarshalSnapshot(h.ctrl.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			bad, err := UnmarshalSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&bad)
			standby := newStandby(t, h)
			if err := standby.LoadSnapshot(bad); err == nil || !strings.Contains(err.Error(), "f-ghost") {
				t.Fatalf("LoadSnapshot naming fiber f-ghost: %v", err)
			}
			checkNothingAdopted(t, standby, h)
			if err := standby.LoadSnapshot(h.ctrl.Snapshot()); err != nil {
				t.Fatalf("good snapshot after a refused one: %v", err)
			}
			if report, err := standby.Audit(); err != nil || !report.Clean() {
				t.Fatalf("standby audit = %+v, %v", report, err)
			}
		})
	}
}

// A controller that holds any state refuses a snapshot: two channel-less
// snapshots loaded one after the other must not merge their down fibers.
func TestLoadSnapshotNeverMerges(t *testing.T) {
	h := newHarness(t, 1)
	for _, second := range []string{
		`{"down-fibers":["f2"]}`,
		`{"wss-config":{"f2":{"passbands":[]}}}`,
		`{"seq":{"e1":3}}`,
	} {
		standby := newStandby(t, h)
		first, err := UnmarshalSnapshot([]byte(`{"down-fibers":["f1"]}`))
		if err != nil {
			t.Fatal(err)
		}
		if err := standby.LoadSnapshot(first); err != nil {
			t.Fatal(err)
		}
		snap, err := UnmarshalSnapshot([]byte(second))
		if err != nil {
			t.Fatal(err)
		}
		if err := standby.LoadSnapshot(snap); err == nil {
			t.Errorf("second snapshot %s merged into a loaded standby", second)
		}
		got := standby.Snapshot()
		if want := []string{"f1"}; !slices.Equal(got.DownFibers, want) || len(got.WSSConfig)+len(got.Seq) != 0 {
			t.Errorf("after refusing %s: down fibers %v, %d WSS documents, %d sequence numbers; want only %v",
				second, got.DownFibers, len(got.WSSConfig), len(got.Seq), want)
		}
	}
}

// FuzzSnapshot feeds arbitrary bytes to the snapshot codec and then to
// LoadSnapshot on a fresh standby. Nothing may panic; a refused snapshot
// must leave the standby with nothing adopted, and an accepted one must
// load identically onto a second fresh standby. The fleet's agents are
// built once per fuzzing process; each input gets standbys of its own.
func FuzzSnapshot(f *testing.F) {
	h := newHarness(f, 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		f.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		f.Fatal(err)
	}
	for _, mutate := range []func(*ChannelSnapshot){
		func(*ChannelSnapshot) {},
		func(ch *ChannelSnapshot) { ch.Wavelength.Path = nil },
		func(ch *ChannelSnapshot) {
			path := *ch.Wavelength.Path
			path.Fibers = append([]string{"f-ghost"}, path.Fibers[1:]...)
			ch.Wavelength.Path = &path
		},
		func(ch *ChannelSnapshot) { ch.TxA = "tx-ghost" },
	} {
		snap := h.ctrl.Snapshot()
		name := lastChannel(snap)
		ch := snap.Channels[name]
		mutate(&ch)
		snap.Channels[name] = ch
		data, err := MarshalSnapshot(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	ghostWSS := h.ctrl.Snapshot()
	ghostWSS.WSSConfig["f-ghost"] = devmodel.WSSConfig{}
	data, err := MarshalSnapshot(ghostWSS)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		standby := newStandby(t, h)
		if err := standby.LoadSnapshot(snap); err != nil {
			checkNothingAdopted(t, standby, h)
			return
		}
		checkKnownFibers(t, h, snap)
		again, err := UnmarshalSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		twin := newStandby(t, h)
		if err := twin.LoadSnapshot(again); err != nil {
			t.Fatalf("snapshot accepted once, refused on a second standby: %v", err)
		}
		got, err := MarshalSnapshot(standby.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		want, err := MarshalSnapshot(twin.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("one snapshot loads two ways:\n%s\n%s", got, want)
		}
		for _, desc := range h.devices {
			a, _ := standby.DevMgr().Assignment(desc.ID)
			b, _ := twin.DevMgr().Assignment(desc.ID)
			if a != b {
				t.Fatalf("%s carries %q on one standby, %q on the other", desc.ID, a, b)
			}
		}
	})
}

func TestLoadSnapshotValidation(t *testing.T) {
	h := newHarness(t, 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	snap := h.ctrl.Snapshot()
	// Loading onto a non-empty controller is rejected.
	if err := h.ctrl.LoadSnapshot(snap); err == nil {
		t.Error("LoadSnapshot on live controller accepted")
	}
	// A snapshot referencing unknown hardware is rejected.
	standby, err := New(Config{
		Optical: h.optical, IP: h.ip, Catalog: transponder.SVT(), Grid: h.ctrl.cfg.Grid,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if err := standby.LoadSnapshot(snap); err == nil {
		t.Error("LoadSnapshot without registered fleet accepted")
	}
	// A channel that decoded without its path ("Path": null, or the key
	// missing) is refused, not adopted to fail at the next cut.
	for name, ch := range snap.Channels {
		ch.Wavelength.Path = nil
		snap.Channels[name] = ch
	}
	if err := standby.LoadSnapshot(snap); err == nil || !strings.Contains(err.Error(), "no path or mode") {
		t.Errorf("LoadSnapshot of a channel without a path: %v", err)
	}
}

func TestRepairMisconnection(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 400})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	// Clean state: Repair is a no-op.
	fixed, err := h.ctrl.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 0 {
		t.Errorf("repair on clean state fixed %v", fixed)
	}

	// Sabotage: a vendor tool wipes the WSS passbands on f1 (the kind of
	// drift §9's misconnection lesson describes).
	wssAddr := h.wss["f1"].Descriptor().Address
	rogue, err := netconf.Dial(wssAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	if err := rogue.Call(netconf.OpEditConfig, devmodel.WSSConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	report, err := h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatal("audit missed the sabotage")
	}

	fixed, err = h.ctrl.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) == 0 {
		t.Error("repair reported nothing fixed")
	}
	report, err = h.ctrl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Errorf("audit still dirty after repair: %+v", report)
	}
	// The signal actually passes again.
	for _, ch := range h.ctrl.Channels() {
		st := h.ctrl.channels[ch]
		for _, f := range st.wavelength.Path.Fibers {
			if !h.wss[f].PassesInterval(st.wavelength.Interval) {
				t.Errorf("WSS on %s still clips %s after repair", f, ch)
			}
		}
	}
}

func TestClaimSpecific(t *testing.T) {
	h := newHarness(t, 2, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 100})
	dm := h.ctrl.DevMgr()
	if err := dm.ClaimSpecific("tx-A-1", "chan"); err != nil {
		t.Fatal(err)
	}
	if ch, ok := dm.Assignment("tx-A-1"); !ok || ch != "chan" {
		t.Errorf("assignment = %q, %v", ch, ok)
	}
	if err := dm.ClaimSpecific("tx-A-1", "other"); err == nil {
		t.Error("double claim accepted")
	}
	if err := dm.ClaimSpecific("ghost", "chan"); err == nil {
		t.Error("unknown device accepted")
	}
	if n := dm.FreeTransponders("A"); n != 1 {
		t.Errorf("free at A = %d, want 1", n)
	}
}

// A decoded snapshot's paths know their fibers by ID only. A standby whose
// topology numbers the fibers in another order numbers them again as it
// loads the snapshot, and then restores the same intervals as the primary.
func TestSnapshotPathsRenumberedOnStandby(t *testing.T) {
	h := newHarness(t, 3, topology.IPLink{ID: "e1", A: "A", B: "B", DemandGbps: 800})
	res, err := h.ctrl.PlanNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ctrl.Apply(res); err != nil {
		t.Fatal(err)
	}
	data, err := MarshalSnapshot(h.ctrl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	fibers := h.optical.Fibers()
	reversed := topology.New()
	for i := len(fibers) - 1; i >= 0; i-- {
		f := fibers[i]
		if err := reversed.AddFiber(f.ID, f.A, f.B, f.LengthKm); err != nil {
			t.Fatal(err)
		}
	}
	standby, err := New(Config{Optical: reversed, IP: h.ip, Catalog: transponder.SVT(), Grid: h.ctrl.cfg.Grid, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	registerAll(t, standby, h.devices)
	if err := standby.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	num := reversed.Numbering()
	for name, st := range standby.channels {
		p := st.wavelength.Path
		if p.Numbering != num || len(p.Index) != len(p.Fibers) {
			t.Fatalf("channel %s: path not numbered by the standby's topology", name)
		}
		for i, n := range p.Index {
			if num.ID(n) != p.Fibers[i] {
				t.Fatalf("channel %s: hop %d is %s, numbered as %s", name, i, p.Fibers[i], num.ID(n))
			}
		}
	}
	render := func(r *restore.Result) string {
		var b strings.Builder
		for _, w := range r.Restored {
			fmt.Fprintf(&b, "%s %v %v %v %v\n", w.LinkID, w.Original.Interval, w.Path.Fibers, *w.Mode, w.Interval)
		}
		return b.String()
	}
	want, err := h.ctrl.WhatIfCut("f1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := standby.WhatIfCut("f1")
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Restored) == 0 || render(got) != render(want) {
		t.Errorf("standby restores\n%s; primary\n%s", render(got), render(want))
	}
}
