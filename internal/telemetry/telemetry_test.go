package telemetry_test

import (
	"math"
	"testing"
	"time"

	"flexwan/internal/controller"
	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/spectrum"
	"flexwan/internal/telemetry"
	"flexwan/internal/transponder"
)

func TestStoreAppendLatestSince(t *testing.T) {
	s := telemetry.NewStore(4)
	base := time.Now()
	for i := 0; i < 6; i++ {
		s.Append(telemetry.Point{Device: "d", Metric: "m", Time: base.Add(time.Duration(i) * time.Second), Value: float64(i)})
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
	s := telemetry.NewStore(0)
	base := time.Now()
	for i := 0; i < 1100; i++ {
		s.Append(telemetry.Point{Device: "d", Metric: "m", Time: base.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	if n := len(s.Since("d", "m", base)); n != 1024 {
		t.Errorf("default capacity = %d", n)
	}
}

// register starts an agent and registers it with the device manager, the
// owner of every management session the collector uses.
func register(t *testing.T, dm *controller.DevMgr, start func(string) (string, error), stop func(), desc func() devmodel.Descriptor) devmodel.Descriptor {
	t.Helper()
	if _, err := start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	d := desc()
	if err := dm.Register(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// newDevMgr returns a device manager closed when the test ends — after
// the test's deferred Collector.Stop, as an owner outlives its borrowers.
func newDevMgr(t *testing.T) *controller.DevMgr {
	dm := controller.NewDevMgr()
	t.Cleanup(dm.Close)
	return dm
}

// startTransponder registers a transponder and lights a 600G channel over
// the fiber.
func startTransponder(t *testing.T, dm *controller.DevMgr, fabric *device.Fabric, id, fiber string) (*device.Transponder, devmodel.Descriptor) {
	t.Helper()
	tr := device.NewTransponder(
		devmodel.Descriptor{ID: id, Class: devmodel.ClassTransponder, Vendor: "FlexWAN", Address: "x", Site: "A"},
		spectrum.DefaultGrid(), transponder.SVT(), fabric)
	desc := register(t, dm, tr.Start, tr.Close, tr.Descriptor)
	cfg := devmodel.TransponderConfig{
		Enabled: true, DataRateGbps: 600, SpacingGHz: 150,
		IntervalStart: 0, IntervalCount: 12,
		PathFibers: []string{fiber}, Channel: id,
	}
	if err := dm.Call(id, netconf.OpEditConfig, cfg, nil); err != nil {
		t.Fatal(err)
	}
	return tr, desc
}

// startAmplifier registers the amplifier watching the fiber.
func startAmplifier(t *testing.T, dm *controller.DevMgr, fabric *device.Fabric, fiber string) (*device.Amplifier, devmodel.Descriptor) {
	t.Helper()
	amp := device.NewAmplifier(
		devmodel.Descriptor{ID: "amp-" + fiber, Class: devmodel.ClassAmplifier, Vendor: "edfa", Address: "x", Site: "A", Fiber: fiber},
		fabric, fiber)
	return amp, register(t, dm, amp.Start, amp.Close, amp.Descriptor)
}

// testbed spins up one transponder on f1 and one amplifier per fiber, all
// registered with one device manager.
func testbed(t *testing.T) (*device.Fabric, *controller.DevMgr, []devmodel.Descriptor) {
	t.Helper()
	fabric := device.NewFabric(phy.DefaultLink())
	for id, km := range map[string]float64{"f1": 600, "f2": 500} {
		if err := fabric.AddFiber(id, km); err != nil {
			t.Fatal(err)
		}
	}
	dm := newDevMgr(t)
	_, tx := startTransponder(t, dm, fabric, "t1", "f1")
	devices := []devmodel.Descriptor{tx}
	for _, fiber := range []string{"f1", "f2"} {
		_, amp := startAmplifier(t, dm, fabric, fiber)
		devices = append(devices, amp)
	}
	return fabric, dm, devices
}

func TestCollectorGathersMetrics(t *testing.T) {
	_, dm, devices := testbed(t)
	store := telemetry.NewStore(128)
	col := telemetry.NewCollector(store, 50*time.Millisecond, devices, dm)
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
	fabric, dm, devices := testbed(t)
	store := telemetry.NewStore(128)
	col := telemetry.NewCollector(store, 50*time.Millisecond, devices, dm)
	col.Run()
	defer col.Stop()

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
// restarts it on the same address: the collector must get a live session
// from the device manager again, so a cut after the restart is still
// detected.
func TestCollectorRedialsAfterCrash(t *testing.T) {
	fabric := device.NewFabric(phy.DefaultLink())
	if err := fabric.AddFiber("f1", 600); err != nil {
		t.Fatal(err)
	}
	dm := newDevMgr(t)
	amp, desc := startAmplifier(t, dm, fabric, "f1")

	col := telemetry.NewCollector(telemetry.NewStore(64), 25*time.Millisecond, []devmodel.Descriptor{desc}, dm)
	col.RedialInterval = 20 * time.Millisecond
	col.Run()
	defer col.Stop()

	time.Sleep(80 * time.Millisecond) // establish baselines on the live session
	amp.Server().Stop()               // crash: drops the pooled session
	time.Sleep(80 * time.Millisecond) // let the alarm listener observe the outage
	if _, err := amp.Server().Listen(desc.Address); err != nil {
		t.Fatalf("restart on %s: %v", desc.Address, err)
	}
	awaitCut(t, col, fabric, "f1", 3*time.Second)
}

// awaitCut cuts the fiber until the collector reports it. Until the
// listener holds a live session again the cut may go unseen, so each
// unanswered round rearms with a repair and cuts again.
func awaitCut(t *testing.T, col *telemetry.Collector, fabric *device.Fabric, fiber string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		fabric.Cut(fiber)
		select {
		case ev := <-col.Events():
			if ev.Kind == "fiber-cut" && ev.Fiber == fiber {
				return
			}
			// A fiber-restored from a prior rearm cycle: keep waiting.
		case <-time.After(100 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("cut of %s not detected after device restart", fiber)
			}
			fabric.Repair(fiber) // rearm and try again once the session is back
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// TestCollectorNeverUsesImpostorSession: after the amplifier watching f1
// crashes, another device — the amplifier of f2 — comes up on its recycled
// address. Every redial greets under the wrong ID, so the collector must
// neither listen to nor poll that device: a cut of f2 there must not be
// reported, least of all as a cut of f1. Once the real amplifier is back
// on the address, detection resumes.
func TestCollectorNeverUsesImpostorSession(t *testing.T) {
	fabric := device.NewFabric(phy.DefaultLink())
	for _, id := range []string{"f1", "f2"} {
		if err := fabric.AddFiber(id, 500); err != nil {
			t.Fatal(err)
		}
	}
	dm := newDevMgr(t)
	amp, desc := startAmplifier(t, dm, fabric, "f1")
	store := telemetry.NewStore(64)
	col := telemetry.NewCollector(store, 20*time.Millisecond, []devmodel.Descriptor{desc}, dm)
	col.RedialInterval = 10 * time.Millisecond
	col.Run()
	defer col.Stop()

	time.Sleep(60 * time.Millisecond) // baselines on the live session
	amp.Server().Stop()
	impostor := device.NewAmplifier(
		devmodel.Descriptor{ID: "amp-f2", Class: devmodel.ClassAmplifier, Vendor: "edfa", Address: "x", Site: "A", Fiber: "f2"},
		fabric, "f2")
	if _, err := impostor.Start(desc.Address); err != nil {
		t.Fatalf("impostor on %s: %v", desc.Address, err)
	}
	defer impostor.Close()
	fabric.Cut("f2")
	select {
	case ev := <-col.Events():
		t.Fatalf("event %+v from a session greeting as amp-f2", ev)
	case <-time.After(300 * time.Millisecond): // many redial intervals and polls
	}
	if p, ok := store.Latest("amp-f1", "los"); ok && p.Value != 0 {
		t.Error("the impostor's loss of signal was polled as amp-f1's")
	}
	if client, ok := dm.Client("amp-f1"); ok && client.Err() == nil {
		t.Error("the device manager pooled a live session to the impostor")
	}

	impostor.Close()
	if _, err := amp.Server().Listen(desc.Address); err != nil {
		t.Fatalf("restart on %s: %v", desc.Address, err)
	}
	awaitCut(t, col, fabric, "f1", 3*time.Second)
}

// TestPollDoesNotStallOnDeadSource: a crashed device must cost the sweep
// nothing — its dead pooled session fails the poll at once, and the sweep
// never dials, rather than holding the wave open for a call or dial
// timeout.
func TestPollDoesNotStallOnDeadSource(t *testing.T) {
	fabric, dm, devices := testbed(t)
	crashed, first := startTransponder(t, dm, fabric, "t0", "f2")
	crashed.Crash()
	client, ok := dm.Client("t0")
	if !ok {
		t.Fatal("t0 has no pooled session")
	}
	select {
	case <-client.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("session never noticed the crash")
	}

	store := telemetry.NewStore(128)
	col := telemetry.NewCollector(store, time.Hour, append([]devmodel.Descriptor{first}, devices...), dm) // never Run: the sweep is driven by hand
	start := time.Now()
	col.PollAll()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("sweep over one dead and three live devices took %v", elapsed)
	}
	if _, ok := store.Latest("t0", "los"); ok {
		t.Error("dead device produced a sample")
	}
	if _, ok := store.Latest("amp-f2", "los"); !ok {
		t.Error("devices after the dead one were not polled")
	}
	if c, _ := dm.Client("t0"); c != client {
		t.Error("the sweep replaced the dead session: polling must not dial")
	}
}

// hangOnGetState registers one amplifier per fiber whose agent drops every
// get-state unanswered, so each poll of it waits out the call timeout.
// asked, when non-nil, is signalled as each get-state arrives.
func hangOnGetState(t *testing.T, dm *controller.DevMgr, fabric *device.Fabric, asked chan<- struct{}, fibers ...string) []devmodel.Descriptor {
	t.Helper()
	var hung []devmodel.Descriptor
	for _, fiber := range fibers {
		if err := fabric.AddFiber(fiber, 100); err != nil {
			t.Fatal(err)
		}
		amp, desc := startAmplifier(t, dm, fabric, fiber)
		// Installed after registering: the dial's hello passes through it too.
		amp.Server().SetInterceptor(func(op string) netconf.FaultDecision {
			if op != netconf.OpGetState {
				return netconf.FaultDecision{}
			}
			if asked != nil {
				select {
				case asked <- struct{}{}:
				default:
				}
			}
			return netconf.FaultDecision{Fault: netconf.FaultDropRequest}
		})
		hung = append(hung, desc)
	}
	return hung
}

// TestRunPrimesBaseline: Run returns with every live device sampled once,
// so a cut right after it is a transition from a known state.
func TestRunPrimesBaseline(t *testing.T) {
	_, dm, devices := testbed(t)
	store := telemetry.NewStore(16)
	col := telemetry.NewCollector(store, time.Hour, devices, dm) // only Run's own sweep
	col.Run()
	defer col.Stop()
	for _, d := range devices {
		if _, ok := store.Latest(d.ID, "los"); !ok {
			t.Errorf("Run returned before %s was sampled", d.ID)
		}
	}
}

// TestSweepIsOneWave: a sweep waits for its slowest device, not for the
// sum of them — three devices that never answer cost one call timeout
// together, and every live device behind them is still sampled.
func TestSweepIsOneWave(t *testing.T) {
	const callTimeout = 100 * time.Millisecond
	fabric, dm, live := testbed(t)
	dm.SetDialOptions(netconf.DialOptions{CallTimeout: callTimeout})
	hung := hangOnGetState(t, dm, fabric, nil, "h1", "h2", "h3")

	store := telemetry.NewStore(16)
	col := telemetry.NewCollector(store, time.Hour, append(hung, live...), dm) // never Run: the sweep is driven by hand
	start := time.Now()
	col.PollAll()
	if elapsed := time.Since(start); elapsed >= 2*callTimeout {
		t.Errorf("sweep over 3 hung and %d live devices took %v, want under %v", len(live), elapsed, 2*callTimeout)
	}
	for _, d := range live {
		if _, ok := store.Latest(d.ID, "los"); !ok {
			t.Errorf("live device %s was not sampled", d.ID)
		}
	}
	for _, d := range hung {
		if _, ok := store.Latest(d.ID, "los"); ok {
			t.Errorf("hung device %s produced a sample", d.ID)
		}
	}
}

// TestStopAbandonsWave: Stop does not wait out the call timeout of a
// device that hangs in Run's first sweep; it abandons the wave, and Run
// returns with it.
func TestStopAbandonsWave(t *testing.T) {
	fabric, dm, live := testbed(t)
	dm.SetDialOptions(netconf.DialOptions{CallTimeout: time.Second})
	asked := make(chan struct{}, 1)
	hung := hangOnGetState(t, dm, fabric, asked, "h1")

	col := telemetry.NewCollector(telemetry.NewStore(16), time.Hour, append(hung, live...), dm)
	ran := make(chan struct{})
	go func() {
		col.Run()
		close(ran)
	}()
	select {
	case <-asked:
	case <-time.After(2 * time.Second):
		t.Fatal("the hung device was never polled")
	}
	start := time.Now()
	col.Stop()
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("Stop took %v while a wave waited on a hung device", elapsed)
	}
	select {
	case <-ran:
	case <-time.After(50 * time.Millisecond):
		t.Error("Run did not return once Stop abandoned its sweep")
	}
}

func TestCollectorStopIdempotent(t *testing.T) {
	_, dm, devices := testbed(t)
	col := telemetry.NewCollector(telemetry.NewStore(16), 50*time.Millisecond, devices, dm)
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
	dm := newDevMgr(t)
	var devices []devmodel.Descriptor
	readings := map[string]float64{}
	for _, tc := range []struct{ id, fiber string }{{"tx-short", "short"}, {"tx-edge", "edge"}} {
		tr, desc := startTransponder(t, dm, fabric, tc.id, tc.fiber)
		readings[tc.id] = tr.State().PreFECBER
		devices = append(devices, desc)
	}
	if readings["tx-edge"] <= readings["tx-short"] {
		t.Fatalf("test setup: edge BER %v not above short BER %v", readings["tx-edge"], readings["tx-short"])
	}
	threshold := math.Sqrt(readings["tx-edge"] * readings["tx-short"]) // geometric mean
	col := telemetry.NewCollector(telemetry.NewStore(64), 50*time.Millisecond, devices, dm)
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
