package device

import (
	"encoding/json"
	"testing"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
)

func TestTransponderCandidateLifecycle(t *testing.T) {
	f := testFabric(t)
	tr, c := startTransponder(t, f, transponder.SVT())

	cfg := svtConfig()
	// Stage: validated but not applied.
	if err := c.Call(OpEditCandidate, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if !tr.HasStagedConfig() {
		t.Error("nothing staged after edit-candidate")
	}
	var running devmodel.TransponderConfig
	if err := c.Call(netconf.OpGetConfig, nil, &running); err != nil {
		t.Fatal(err)
	}
	if running.Enabled {
		t.Error("candidate leaked into running config before commit")
	}
	// Commit applies.
	if err := c.Call(OpCommit, nil, nil); err != nil {
		t.Fatal(err)
	}
	if tr.HasStagedConfig() {
		t.Error("staged config remains after commit")
	}
	if err := c.Call(netconf.OpGetConfig, nil, &running); err != nil {
		t.Fatal(err)
	}
	if !running.Enabled || running.DataRateGbps != cfg.DataRateGbps {
		t.Errorf("running config after commit = %+v", running)
	}
	// Commit with nothing staged is a no-op.
	if err := c.Call(OpCommit, nil, nil); err != nil {
		t.Errorf("empty commit: %v", err)
	}
}

func TestTransponderCandidateDiscard(t *testing.T) {
	f := testFabric(t)
	tr, c := startTransponder(t, f, transponder.SVT())
	if err := c.Call(OpEditCandidate, svtConfig(), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(OpDiscard, nil, nil); err != nil {
		t.Fatal(err)
	}
	if tr.HasStagedConfig() {
		t.Error("staged config survived discard")
	}
	if err := c.Call(OpCommit, nil, nil); err != nil {
		t.Fatal(err)
	}
	var running devmodel.TransponderConfig
	if err := c.Call(netconf.OpGetConfig, nil, &running); err != nil {
		t.Fatal(err)
	}
	if running.Enabled {
		t.Error("discarded config was applied")
	}
}

func TestTransponderCandidateValidatesAtStageTime(t *testing.T) {
	f := testFabric(t)
	tr, c := startTransponder(t, f, transponder.RADWAN())
	// A BVT vendor must reject a spacing-variable document at stage time.
	if err := c.Call(OpEditCandidate, svtConfig(), nil); err == nil {
		t.Fatal("BVT vendor staged a 150 GHz mode")
	}
	if tr.HasStagedConfig() {
		t.Error("rejected document left staged state")
	}
	// Malformed JSON rejected too.
	if err := c.Call(OpEditCandidate, "not-a-config", nil); err == nil {
		t.Error("malformed candidate accepted")
	}
}

func TestWSSCandidateLifecycle(t *testing.T) {
	grid := spectrum.DefaultGrid()
	desc := devmodel.Descriptor{ID: "w1", Class: devmodel.ClassWSS, Vendor: "lcos", Address: "x", Site: "A", Fiber: "f1"}
	w := NewWSS(desc, grid)
	addr, err := w.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, err := netconf.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := devmodel.WSSConfig{Passbands: []devmodel.Passband{{Channel: "e1:1", Start: 0, Count: 12}}}
	if err := c.Call(OpEditCandidate, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if !w.HasStagedConfig() {
		t.Error("nothing staged")
	}
	if got := w.Config(); len(got.Passbands) != 0 {
		t.Error("candidate visible in running WSS config")
	}
	if err := c.Call(OpCommit, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := w.Config(); len(got.Passbands) != 1 || got.Passbands[0].Channel != "e1:1" {
		t.Errorf("running config after commit = %+v", got)
	}
	// Overlapping passbands rejected at stage time.
	bad := devmodel.WSSConfig{Passbands: []devmodel.Passband{
		{Channel: "a", Start: 0, Count: 8}, {Channel: "b", Start: 4, Count: 8},
	}}
	if err := c.Call(OpEditCandidate, bad, nil); err == nil {
		t.Error("conflicting candidate accepted")
	}
	// Fixed-grid vendor restriction applies to candidates too.
	legacy := NewFixedGridWSS(devmodel.Descriptor{
		ID: "w2", Class: devmodel.ClassWSS, Vendor: "legacy", Address: "x", Site: "A", Fiber: "f2",
	}, grid, 75)
	addr2, err := legacy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	c2, err := netconf.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	off := devmodel.WSSConfig{Passbands: []devmodel.Passband{{Channel: "x", Start: 3, Count: 7}}}
	if err := c2.Call(OpEditCandidate, off, nil); err == nil {
		t.Error("fixed-grid vendor staged an off-grid passband")
	}
}

func TestAmplifierCandidateOpsNoOp(t *testing.T) {
	f := testFabric(t)
	desc := devmodel.Descriptor{ID: "a1", Class: devmodel.ClassAmplifier, Vendor: "edfa", Address: "x", Site: "A", Fiber: "f1"}
	a := NewAmplifier(desc, f, "f1")
	addr, err := a.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	c, err := netconf.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, op := range []string{OpEditCandidate, OpCommit, OpDiscard} {
		if err := c.Call(op, map[string]int{"x": 1}, nil); err != nil {
			t.Errorf("%s on amplifier: %v", op, err)
		}
	}
	// Descriptor accessors.
	if a.Descriptor().ID != "a1" {
		t.Error("amplifier descriptor wrong")
	}
}

func TestDescriptorAccessors(t *testing.T) {
	f := testFabric(t)
	tr, _ := startTransponder(t, f, transponder.SVT())
	if tr.Descriptor().ID != "t1" {
		t.Error("transponder descriptor wrong")
	}
	w := NewWSS(devmodel.Descriptor{ID: "w9", Class: devmodel.ClassWSS, Vendor: "v", Address: "x", Site: "A", Fiber: "f1"}, spectrum.DefaultGrid())
	if w.Descriptor().ID != "w9" {
		t.Error("WSS descriptor wrong")
	}
}

// Commit applies the value edit-candidate decoded and validated: the
// document is decoded once, and the staged value does not alias the
// request's bytes (a handler's payload is the session's read buffer).
func TestCandidateCommitsTheStagedValue(t *testing.T) {
	var c candidate[devmodel.WSSConfig]
	decodes := 0
	decode := func(payload json.RawMessage) (devmodel.WSSConfig, error) {
		decodes++
		var cfg devmodel.WSSConfig
		return cfg, json.Unmarshal(payload, &cfg)
	}
	var applied []devmodel.WSSConfig
	apply := func(cfg devmodel.WSSConfig) error {
		applied = append(applied, cfg)
		return nil
	}
	payload := json.RawMessage(`{"passbands":[{"channel":"e1:1","start":0,"count":12}]}`)
	if _, err := c.handleCandidateOp(OpEditCandidate, payload, decode, apply); err != nil {
		t.Fatal(err)
	}
	copy(payload, `{"passbands":[{"channel":"XX:9"`)
	if _, err := c.handleCandidateOp(OpCommit, nil, decode, apply); err != nil {
		t.Fatal(err)
	}
	if decodes != 1 {
		t.Errorf("stage and commit decoded %d times, want 1", decodes)
	}
	want := devmodel.Passband{Channel: "e1:1", Start: 0, Count: 12}
	if len(applied) != 1 || len(applied[0].Passbands) != 1 || applied[0].Passbands[0] != want {
		t.Fatalf("commit applied %+v, want one document holding %+v", applied, want)
	}
	// The staged value was consumed: a second commit acks and applies nothing.
	if _, err := c.handleCandidateOp(OpCommit, nil, decode, apply); err != nil || len(applied) != 1 {
		t.Errorf("second commit: err %v, %d documents applied", err, len(applied))
	}
}

// A crash loses the candidate datastore with the running configuration: a
// commit after the restart acks (an empty commit is a no-op) and applies
// nothing.
func TestTransponderCrashDropsCandidate(t *testing.T) {
	f := testFabric(t)
	tr, c := startTransponder(t, f, transponder.SVT())
	if err := c.Call(OpEditCandidate, svtConfig(), nil); err != nil {
		t.Fatal(err)
	}
	tr.Crash()
	if err := tr.Restart(); err != nil {
		t.Fatal(err)
	}
	c2, err := netconf.Dial(tr.Descriptor().Address)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Call(OpCommit, nil, nil); err != nil {
		t.Fatalf("commit after restart: %v", err)
	}
	var running devmodel.TransponderConfig
	if err := c2.Call(netconf.OpGetConfig, nil, &running); err != nil {
		t.Fatal(err)
	}
	if running.Enabled || tr.HasStagedConfig() {
		t.Errorf("after crash, restart and commit: running %+v, staged %v; want nothing applied or staged",
			running, tr.HasStagedConfig())
	}
}
