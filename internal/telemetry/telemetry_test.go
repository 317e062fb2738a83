package telemetry

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
)

func TestStoreAppendLatestSince(t *testing.T) {
	s := NewStore(4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		s.Append(Point{Device: "d", Metric: "m", Time: base.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	p, ok := s.Latest("d", "m")
	if !ok || p.Value != 5 {
		t.Errorf("Latest = %+v, %v", p, ok)
	}
	// Capacity 4: oldest two evicted.
	pts := s.Since("d", "m", base)
	if len(pts) != 4 || pts[0].Value != 2 {
		t.Errorf("Since = %v", pts)
	}
	pts = s.Since("d", "m", base.Add(4*time.Second))
	if len(pts) != 2 {
		t.Errorf("Since(4s) = %v", pts)
	}
	if _, ok := s.Latest("d", "other"); ok {
		t.Error("Latest for unknown series succeeded")
	}
	if s.SeriesCount() != 1 {
		t.Errorf("SeriesCount = %d", s.SeriesCount())
	}
}

func TestStoreDefaultCapacity(t *testing.T) {
	s := NewStore(0)
	if s.capacity != 1024 {
		t.Errorf("default capacity = %d", s.capacity)
	}
}

// testbed spins up one transponder on f1 and one amplifier per fiber.
func testbed(t *testing.T) (*device.Fabric, []Source) {
	t.Helper()
	fabric := device.NewFabric(phy.DefaultLink())
	for id, km := range map[string]float64{"f1": 600, "f2": 500} {
		if err := fabric.AddFiber(id, km); err != nil {
			t.Fatal(err)
		}
	}
	grid := spectrum.DefaultGrid()
	var sources []Source

	tr := device.NewTransponder(
		devmodel.Descriptor{ID: "t1", Class: devmodel.ClassTransponder, Vendor: "FlexWAN", Address: "x", Site: "A"},
		grid, transponder.SVT(), fabric)
	addr, err := tr.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	c, err := netconf.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cfg := devmodel.TransponderConfig{
		Enabled: true, DataRateGbps: 600, SpacingGHz: 150,
		IntervalStart: 0, IntervalCount: 12,
		PathFibers: []string{"f1"}, Channel: "e1:1",
	}
	if err := c.Call(netconf.OpEditConfig, cfg, nil); err != nil {
		t.Fatal(err)
	}
	desc := tr.Descriptor()
	sources = append(sources, Source{Desc: desc, Client: c})

	for _, fiber := range []string{"f1", "f2"} {
		amp := device.NewAmplifier(
			devmodel.Descriptor{ID: "amp-" + fiber, Class: devmodel.ClassAmplifier, Vendor: "edfa", Address: "x", Site: "A", Fiber: fiber},
			fabric, fiber)
		addr, err := amp.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(amp.Close)
		ac, err := netconf.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ac.Close() })
		sources = append(sources, Source{Desc: amp.Descriptor(), Client: ac})
	}
	return fabric, sources
}

func TestCollectorGathersMetrics(t *testing.T) {
	_, sources := testbed(t)
	store := NewStore(128)
	col := NewCollector(store, 50*time.Millisecond, sources)
	col.Run()
	defer col.Stop()

	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := store.Latest("t1", "post-fec-ber"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no transponder metrics collected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p, _ := store.Latest("t1", "post-fec-ber")
	if p.Value != 0 {
		t.Errorf("post-FEC BER = %v, want 0 on healthy 600 km circuit", p.Value)
	}
	if _, ok := store.Latest("amp-f1", "out-power-dbm"); !ok {
		t.Error("no amplifier metrics collected")
	}
}

func TestCollectorDetectsFiberCut(t *testing.T) {
	fabric, sources := testbed(t)
	store := NewStore(128)
	col := NewCollector(store, 50*time.Millisecond, sources)
	col.Run()
	defer col.Stop()

	time.Sleep(100 * time.Millisecond) // let the first sweep establish baselines
	fabric.Cut("f1")

	select {
	case ev := <-col.Events():
		if ev.Kind != "fiber-cut" || ev.Fiber != "f1" {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("fiber cut not detected")
	}

	// Repair produces a restoration event.
	fabric.Repair("f1")
	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev := <-col.Events():
			if ev.Kind == "fiber-restored" && ev.Fiber == "f1" {
				return
			}
		case <-deadline:
			t.Fatal("fiber repair not detected")
		}
	}
}

// TestCollectorRedialsAfterCrash crashes the amplifier watching f1 and
// restarts it on the same address: the collector must redial the alarm
// stream so a cut after the restart is still detected.
func TestCollectorRedialsAfterCrash(t *testing.T) {
	fabric := device.NewFabric(phy.DefaultLink())
	if err := fabric.AddFiber("f1", 600); err != nil {
		t.Fatal(err)
	}
	amp := device.NewAmplifier(
		devmodel.Descriptor{ID: "amp-f1", Class: devmodel.ClassAmplifier, Vendor: "edfa", Address: "x", Site: "A", Fiber: "f1"},
		fabric, "f1")
	addr, err := amp.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(amp.Close)
	c, err := netconf.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	col := NewCollector(NewStore(64), 25*time.Millisecond, []Source{{Desc: amp.Descriptor(), Client: c}})
	col.RedialInterval = 20 * time.Millisecond
	col.Run()
	defer col.Stop()

	time.Sleep(80 * time.Millisecond) // establish baselines on the live session
	amp.Server().Stop()               // crash: drops the collector's alarm session
	time.Sleep(80 * time.Millisecond) // let the redial loop observe the outage
	if _, err := amp.Server().Listen(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	// Give the collector a chance to redial, then cut. Until the redial
	// lands the cut goes unseen, so rearm with a repair and retry.
	deadline := time.Now().Add(3 * time.Second)
	for {
		fabric.Cut("f1")
		select {
		case ev := <-col.Events():
			if ev.Kind == "fiber-cut" && ev.Fiber == "f1" {
				return
			}
			// A fiber-restored from a prior rearm cycle: keep waiting.
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("fiber cut not detected after device restart")
			}
			fabric.Repair("f1") // rearm and try again once redial lands
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// TestPollDoesNotStallOnDeadSource: the sweep is serial, so a crashed
// source must cost it nothing — its dead session fails the poll at once
// rather than holding every later source behind the 5 s call timeout.
func TestPollDoesNotStallOnDeadSource(t *testing.T) {
	_, sources := testbed(t)
	crashed := netconf.NewServer(nil, func(string, json.RawMessage) (interface{}, error) { return nil, nil })
	addr, err := crashed.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	dead, err := netconf.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	crashed.Stop()
	select {
	case <-dead.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("session never noticed the crash")
	}
	first := Source{Desc: devmodel.Descriptor{ID: "t0", Class: devmodel.ClassTransponder}, Client: dead}

	store := NewStore(128)
	col := NewCollector(store, time.Hour, append([]Source{first}, sources...)) // never Run: the sweep is driven by hand
	start := time.Now()
	col.pollAll()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("sweep over one dead and three live sources took %v", elapsed)
	}
	if _, ok := store.Latest("t0", "los"); ok {
		t.Error("dead source produced a sample")
	}
	if _, ok := store.Latest("amp-f2", "los"); !ok {
		t.Error("sources after the dead one were not polled")
	}
}

func TestCollectorStopIdempotent(t *testing.T) {
	_, sources := testbed(t)
	col := NewCollector(NewStore(16), 50*time.Millisecond, sources)
	col.Run()
	col.Stop()
	col.Stop()
}

func TestCollectorBERDegradation(t *testing.T) {
	// Two circuits with the same mode: one comfortably inside reach, one
	// at the edge. Pick a detector threshold between their healthy
	// pre-FEC BER readings: only the edge circuit must alarm.
	fabric := device.NewFabric(phy.DefaultLink())
	if err := fabric.AddFiber("short", 160); err != nil {
		t.Fatal(err)
	}
	if err := fabric.AddFiber("edge", 800); err != nil { // 600G@150 reach is 800
		t.Fatal(err)
	}
	grid := spectrum.DefaultGrid()
	var sources []Source
	readings := map[string]float64{}
	for _, tc := range []struct{ id, fiber string }{{"tx-short", "short"}, {"tx-edge", "edge"}} {
		tr := device.NewTransponder(
			devmodel.Descriptor{ID: tc.id, Class: devmodel.ClassTransponder, Vendor: "v", Address: "x", Site: "A"},
			grid, transponder.SVT(), fabric)
		addr, err := tr.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		c, err := netconf.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		cfg := devmodel.TransponderConfig{
			Enabled: true, DataRateGbps: 600, SpacingGHz: 150,
			IntervalStart: 0, IntervalCount: 12,
			PathFibers: []string{tc.fiber}, Channel: tc.id,
		}
		if err := c.Call(netconf.OpEditConfig, cfg, nil); err != nil {
			t.Fatal(err)
		}
		readings[tc.id] = tr.State().PreFECBER
		sources = append(sources, Source{Desc: tr.Descriptor(), Client: c})
	}
	if readings["tx-edge"] <= readings["tx-short"] {
		t.Fatalf("test setup: edge BER %v not above short BER %v", readings["tx-edge"], readings["tx-short"])
	}
	threshold := math.Sqrt(readings["tx-edge"] * readings["tx-short"]) // geometric mean
	col := NewCollector(NewStore(64), 50*time.Millisecond, sources)
	col.DegradeBERThreshold = threshold
	col.Run()
	defer col.Stop()

	select {
	case ev := <-col.Events():
		if ev.Kind != "ber-degradation" || ev.Device != "tx-edge" {
			t.Errorf("event = %+v, want ber-degradation on tx-edge", ev)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no degradation event")
	}
	// No duplicate alarm while latched; short circuit never alarms.
	select {
	case ev := <-col.Events():
		t.Errorf("unexpected second event %+v", ev)
	case <-time.After(300 * time.Millisecond):
	}
}
