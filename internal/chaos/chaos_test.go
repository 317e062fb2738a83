package chaos

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/restore"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// drillOnce builds a fresh testbed for the network and runs the
// scenario on it.
func drillOnce(t *testing.T, n workload.Network, opts Options, sc Scenario) (*Report, *Log) {
	t.Helper()
	tb, err := NewTestbed(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	rep, log, err := Run(tb, sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep, log
}

func ringScenario(seed int64) Scenario {
	return Scenario{
		Name: "ring-drill",
		Seed: seed,
		Faults: FaultConfig{
			DropRequestProb: 0.10,
			DropReplyProb:   0.05,
			DelayProb:       0.10,
			Delay:           5 * time.Millisecond,
		},
		CrashTransponders: 1,
	}
}

// TestRingDrillRecovers runs the full closed loop on a small ring:
// detection from the amplifier alarm, live restoration under 10% RPC
// drops with a crashed transponder, restart, Repair reconvergence, and
// oracle equality.
func TestRingDrillRecovers(t *testing.T) {
	rep, log := drillOnce(t, RingNetwork(4, 100, 200), Options{}, ringScenario(7))
	if rep.AffectedGbps == 0 {
		t.Fatal("drill cut a dark fiber")
	}
	if !rep.OracleMatch {
		t.Errorf("restored %d Gbps, oracle %d", rep.RestoredGbps, rep.OracleGbps)
	}
	if !rep.AuditClean {
		t.Error("audit dirty after repair")
	}
	if len(rep.Crashed) != 1 {
		t.Errorf("crashed %v, want one transponder", rep.Crashed)
	}
	if rep.LogHash != log.Hash() {
		t.Error("report hash does not match log")
	}
	if rep.DetectMs < 0 || rep.TotalMs <= 0 {
		t.Errorf("implausible latencies: %+v", rep)
	}
}

// TestDrillDeterminism is the contract test: the same seed must produce
// a byte-identical canonical event log on a fresh testbed, regardless
// of goroutine scheduling (run under -race in CI) and of the push window
// — every device in flight, the serial ablation, a window of four.
func TestDrillDeterminism(t *testing.T) {
	n := RingNetwork(4, 100, 200)
	sc := ringScenario(42)
	var log1 *Log
	var rep1 *Report
	for _, workers := range []int{0, 0, 1, 4} {
		tb, err := NewTestbed(n, Options{PushWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rep, log, err := Run(tb, sc)
		tb.Close()
		if err != nil {
			t.Fatal(err)
		}
		if log1 == nil {
			rep1, log1 = rep, log
			continue
		}
		if !bytes.Equal(log1.Marshal(), log.Marshal()) {
			t.Fatalf("event logs differ at push-workers %d:\n--- first run ---\n%s\n--- this run ---\n%s",
				workers, log1.Marshal(), log.Marshal())
		}
		if rep1.LogHash != rep.LogHash {
			t.Fatalf("hashes differ at push-workers %d: %s vs %s", workers, rep1.LogHash, rep.LogHash)
		}
	}
	// A different seed must (for these fault rates) shuffle the fault
	// schedule — byte-identical logs across seeds would mean the seed
	// is ignored.
	_, log3 := drillOnce(t, n, Options{}, ringScenario(43))
	if bytes.Equal(log1.Marshal(), log3.Marshal()) {
		t.Error("different seeds produced identical logs")
	}
}

// TestDrillFlap exercises the telemetry-flap phase: a cut that heals
// must be restored, then cleared, and must not pollute the main cut's
// solve or the determinism contract.
func TestDrillFlap(t *testing.T) {
	n := RingNetwork(5, 80, 200)
	sc := Scenario{
		Name:      "flap-drill",
		Seed:      11,
		Faults:    FaultConfig{DropRequestProb: 0.10},
		FlapFiber: "rfib00",
		CutFiber:  "rfib02",
	}
	rep1, log1 := drillOnce(t, n, Options{}, sc)
	if !rep1.OracleMatch || !rep1.AuditClean {
		t.Fatalf("flap drill failed: %+v", rep1)
	}
	_, log2 := drillOnce(t, n, Options{}, sc)
	if !bytes.Equal(log1.Marshal(), log2.Marshal()) {
		t.Fatalf("flap drill not deterministic:\n%s\nvs\n%s", log1.Marshal(), log2.Marshal())
	}
}

// TestCernetAcceptanceDrill is the issue's acceptance scenario: a
// seeded CERNET drill with a fiber cut, 10% RPC drop, and one
// transponder crash/restart must complete detection → restoration →
// push, restore exactly the offline oracle's Gbps, leave the audit
// clean, and reproduce a byte-identical event log on a second run — a
// serial one (push-workers 1), so the pair is also the serial-vs-parallel
// check at CERNET scale: every device in flight must not change a single
// fault decision.
func TestCernetAcceptanceDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("CERNET-scale drill is slow; skipped with -short")
	}
	n := workload.Cernet(1)
	sc := Scenario{
		Name:              "cernet-cut",
		Seed:              1,
		Faults:            FaultConfig{DropRequestProb: 0.10},
		CrashTransponders: 1,
	}
	rep1, log1 := drillOnce(t, n, Options{}, sc)
	if rep1.AffectedGbps == 0 {
		t.Fatal("busiest CERNET fiber carried nothing")
	}
	if !rep1.OracleMatch {
		t.Errorf("restored %d Gbps, oracle %d", rep1.RestoredGbps, rep1.OracleGbps)
	}
	if !rep1.AuditClean {
		t.Error("audit dirty after repair")
	}
	if len(rep1.Crashed) != 1 {
		t.Errorf("crashed %v, want one transponder", rep1.Crashed)
	}
	t.Logf("detect=%.1fms solve=%.1fms push=%.1fms total=%.1fms faults=%d skipped=%d",
		rep1.DetectMs, rep1.SolveMs, rep1.PushMs, rep1.TotalMs,
		rep1.FaultsInjected, len(rep1.SkippedDevices))

	rep2, log2 := drillOnce(t, n, Options{PushWorkers: 1}, sc)
	if !bytes.Equal(log1.Marshal(), log2.Marshal()) {
		t.Fatalf("CERNET drill not deterministic: parallel hash %s, serial %s", rep1.LogHash, rep2.LogHash)
	}
}

// TestDrillLogIndependentOfPushWorkers is the parallel-push half of the
// determinism contract: because every device receives exactly one
// batched RPC per push phase, the seeded fault decisions (keyed by
// device, op, seq) cannot depend on scheduling — so the serial path
// (push-workers=1), a bounded pool, and the full fan-out must all
// produce byte-identical event logs and converge to a clean audit,
// under resets as well as drops.
func TestDrillLogIndependentOfPushWorkers(t *testing.T) {
	n := RingNetwork(4, 100, 200)
	sc := Scenario{
		Name: "worker-sweep",
		Seed: 42,
		Faults: FaultConfig{
			DropRequestProb: 0.10,
			DropReplyProb:   0.05,
			ResetProb:       0.05,
		},
		CrashTransponders: 1,
	}
	var base []byte
	var baseHash string
	for _, w := range []int{1, 2, 0} {
		tb, err := NewTestbed(n, Options{PushWorkers: w})
		if err != nil {
			t.Fatal(err)
		}
		rep, lg, err := Run(tb, sc)
		tb.Close()
		if err != nil {
			t.Fatalf("push-workers=%d: %v", w, err)
		}
		if rep.PushWorkers != w {
			t.Errorf("report records push-workers=%d, want %d", rep.PushWorkers, w)
		}
		if !rep.OracleMatch || !rep.AuditClean {
			t.Errorf("push-workers=%d did not converge: oracle=%v audit=%v",
				w, rep.OracleMatch, rep.AuditClean)
		}
		if base == nil {
			base, baseHash = lg.Marshal(), rep.LogHash
			continue
		}
		if !bytes.Equal(base, lg.Marshal()) {
			t.Fatalf("push-workers=%d event log diverged from serial (hash %s vs %s):\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, baseHash, rep.LogHash, base, w, lg.Marshal())
		}
	}
}

// TestInjectorDecisionsArePure verifies the injector's core property:
// decisions depend only on (seed, device, op, seq), not on call order.
func TestInjectorDecisionsArePure(t *testing.T) {
	cfg := FaultConfig{DropRequestProb: 0.3, ResetProb: 0.1, DelayProb: 0.2}
	a := NewInjector(99, cfg, nil)
	b := NewInjector(99, cfg, nil)
	a.Arm()
	b.Arm()
	type call struct{ dev, op string }
	calls := []call{
		{"tx-1", "edit-config"}, {"tx-1", "edit-config"}, {"wss-1", "edit-config"},
		{"tx-2", "get-config"}, {"tx-1", "edit-config"}, {"wss-1", "edit-config"},
	}
	var first []interface{}
	for _, c := range calls {
		first = append(first, a.decide(c.dev, c.op))
	}
	// Same calls, interleaved differently per device — per-(device,op)
	// sequences are preserved, so decisions must be identical.
	order := []int{3, 0, 2, 1, 5, 4}
	second := make([]interface{}, len(calls))
	for _, i := range order {
		second[i] = b.decide(calls[i].dev, calls[i].op)
	}
	for i := range calls {
		if first[i] != second[i] {
			t.Errorf("call %d: %v vs %v", i, first[i], second[i])
		}
	}
	// get-state is outside the default op set and must never be
	// faulted or advance a sequence.
	if d := a.decide("tx-1", "get-state"); d != (b.decide("tx-9", "get-state")) {
		t.Error("get-state decisions differ")
	}
}

// TestInjectorDisarmed verifies a disarmed injector is a no-op.
func TestInjectorDisarmed(t *testing.T) {
	in := NewInjector(1, FaultConfig{DropRequestProb: 1}, nil)
	for i := 0; i < 10; i++ {
		if d := in.decide("tx-1", "edit-config"); d.Fault != 0 || d.Delay != 0 || d.Err != "" {
			t.Fatalf("disarmed injector injected %+v", d)
		}
	}
	if in.Injections() != 0 {
		t.Fatal("disarmed injector counted injections")
	}
}

// TestRingCrashDrillPushSkipsLadder is the seed-1 ring4 drill of the
// recovery ladder (DrillLadder, as flexwanctl -drill ring runs it). Seed
// 1 injects no RPC fault on the ring, so the
// only thing between the cut and the restoration is the crashed
// transponder — which must cost the push a refused probe, not a call
// timeout or a backoff ladder — while the event log, the degraded-push
// accounting and the reconvergence stay exactly what they were. The call
// timeout is set below the default ladder's shortest total (50 + 100 ms
// less 25 % jitter), so a push under it paid neither.
func TestRingCrashDrillPushSkipsLadder(t *testing.T) {
	const committedHash = "583291d9b1463930b99c4468228e519803a17bf09f43df4dab005dbd3026ef4d"
	const callTimeout = 100 * time.Millisecond
	tb, err := NewTestbed(RingNetwork(4, 100, 200), Options{Dial: netconf.DialOptions{CallTimeout: callTimeout}})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	rep, _, err := Run(tb, DrillLadder(1)[0].Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LogHash != committedHash {
		t.Errorf("event log hash %s, want the committed %s", rep.LogHash, committedHash)
	}
	if len(rep.SkippedDevices) != 1 || len(rep.PendingChannels) != 1 || rep.RepairActions != 1 {
		t.Errorf("skipped %v, pending %v, %d repair actions; want one of each",
			rep.SkippedDevices, rep.PendingChannels, rep.RepairActions)
	}
	if !rep.AuditClean || !rep.OracleMatch {
		t.Errorf("audit clean %v, oracle match %v", rep.AuditClean, rep.OracleMatch)
	}
	if rep.PushMs >= ms(callTimeout) {
		t.Errorf("push took %.1f ms: the crashed device cost a call timeout (%v) or a backoff ladder", rep.PushMs, callTimeout)
	}
}

// cernetRegion is the benchmark's failover network (benchmark/
// wl_failover.go): workload.Cernet(seed) cut down to the six cities
// nearest Wuhan, the fibers between them and every IP link whose shortest
// optical path stays inside.
func cernetRegion(seed int64) workload.Network {
	full := workload.Cernet(seed)
	adj := map[topology.NodeID][]topology.NodeID{}
	for _, f := range full.Optical.Fibers() {
		adj[f.A] = append(adj[f.A], f.B)
		adj[f.B] = append(adj[f.B], f.A)
	}
	inside := map[topology.NodeID]bool{"wuhan": true}
	for queue := []topology.NodeID{"wuhan"}; len(queue) > 0 && len(inside) < 6; queue = queue[1:] {
		for _, next := range adj[queue[0]] {
			if !inside[next] && len(inside) < 6 {
				inside[next] = true
				queue = append(queue, next)
			}
		}
	}
	g := topology.New()
	for _, f := range full.Optical.Fibers() {
		if inside[f.A] && inside[f.B] {
			if err := g.AddFiber(f.ID, f.A, f.B, f.LengthKm); err != nil {
				panic(err)
			}
		}
	}
	ip := &topology.IPTopology{}
	for _, l := range full.IP.Links {
		p, ok := full.Optical.ShortestPath(l.A, l.B)
		for _, n := range p.Nodes {
			ok = ok && inside[n]
		}
		if ok {
			if err := ip.AddLink(l); err != nil {
				panic(err)
			}
		}
	}
	return workload.Network{Name: "Cernet-region", Optical: g, IP: ip}
}

// passbands renders a WSS document order-independently.
func passbands(cfg devmodel.WSSConfig) string {
	pbs := append([]devmodel.Passband(nil), cfg.Passbands...)
	sort.Slice(pbs, func(i, j int) bool { return pbs[i].Start < pbs[j].Start })
	return fmt.Sprint(pbs)
}

// checkFleetRunsIntent reads every WSS's running document back by
// get-config — the whole fleet, whether or not a restoration pushed it —
// and compares it with the controller's recorded intent, which is what a
// fleet-wide push carries (pinned against wssPlanLocked by the controller
// package's own tests).
func checkFleetRunsIntent(t *testing.T, tb *Testbed) {
	t.Helper()
	intent := tb.Ctrl.Snapshot().WSSConfig
	for _, f := range tb.Net.Optical.Fibers() {
		var running devmodel.WSSConfig
		if err := tb.Ctrl.DevMgr().Call("wss-"+f.ID, netconf.OpGetConfig, nil, &running); err != nil {
			t.Fatal(err)
		}
		if got, want := passbands(running), passbands(intent[f.ID]); got != want {
			t.Errorf("WSS of %s runs %s, intent is %s", f.ID, got, want)
		}
	}
}

// TestTouchedOnlyWSSPush is the differential test for the restoration's
// WSS phase. After a clean drill the push has gone to exactly the fibers
// whose document the restoration changed — fewer than the fleet wherever
// the topology is more than one ring — and every WSS, untouched ones
// included, runs the controller's intent, as after a fleet-wide push.
func TestTouchedOnlyWSSPush(t *testing.T) {
	for _, n := range []workload.Network{RingNetwork(4, 100, 200), cernetRegion(1), workload.Cernet(1)} {
		t.Run(n.Name, func(t *testing.T) {
			if testing.Short() && n.Name == "Cernet" {
				t.Skip("CERNET-scale drill is slow; skipped with -short")
			}
			tb, err := NewTestbed(n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			before := tb.Ctrl.Snapshot().WSSConfig
			sc := Scenario{Name: "clean", Seed: 1}
			if n.Name == "Cernet-region" {
				sc.CutFiber = detourFiber(tb)
			}
			rep, _, err := Run(tb, sc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RestoredGbps == 0 || !rep.OracleMatch || !rep.AuditClean {
				t.Fatalf("drill restored %d Gbps, oracle match %v, audit clean %v", rep.RestoredGbps, rep.OracleMatch, rep.AuditClean)
			}
			after, changed := tb.Ctrl.Snapshot().WSSConfig, 0
			for _, f := range n.Optical.Fibers() {
				if passbands(before[f.ID]) != passbands(after[f.ID]) {
					changed++
				}
			}
			fleet := n.Optical.NumFibers()
			t.Logf("pushed %d transponders and %d of %d WSSes", rep.PushTxDevices, rep.PushWSSDevices, fleet)
			if rep.PushWSSDevices != changed {
				t.Errorf("pushed %d WSSes, the restoration changed the documents of %d", rep.PushWSSDevices, changed)
			}
			if ring := n.Name == "ring4"; ring != (rep.PushWSSDevices == fleet) {
				t.Errorf("pushed %d of the fleet's %d WSSes", rep.PushWSSDevices, fleet)
			}
			if rep.PushTxDevices == 0 {
				t.Error("no transponder pushed")
			}
			checkFleetRunsIntent(t, tb)
		})
	}
}

// detourFiber returns the busiest fiber whose cut restores something —
// the benchmark's cut rule, found here by asking the offline oracle.
func detourFiber(tb *Testbed) string {
	load := map[string]int{}
	for _, ch := range tb.Ctrl.LiveChannels() {
		for _, f := range ch.Wavelength.Path.Fibers {
			load[f] += ch.Wavelength.Mode.DataRateGbps
		}
	}
	fibers := make([]string, 0, len(load))
	for f := range load {
		fibers = append(fibers, f)
	}
	sort.Slice(fibers, func(i, j int) bool {
		if load[fibers[i]] != load[fibers[j]] {
			return load[fibers[i]] > load[fibers[j]]
		}
		return fibers[i] < fibers[j]
	})
	for _, f := range fibers {
		if res, err := oracle(tb, f); err == nil && res.RestoredGbps > 0 {
			return f
		}
	}
	return ""
}

func oracle(tb *Testbed, cut ...string) (*restore.Result, error) {
	return restore.Solve(restore.Problem{
		Optical: tb.Net.Optical, IP: tb.Net.IP, Catalog: transponder.SVT(), Grid: tb.Grid,
		Base: tb.Ctrl.CurrentPlan(), Scenario: restore.Scenario{ID: "probe", CutFibers: cut}, K: tb.K,
	})
}

// TestSecondCutWhileFirstCutsWSSPending: a WSS on the first restoration's
// new path is unreachable, so its document stays pending; a second cut
// arrives before any repair. The second restoration pushes only its own
// fibers — it does not converge the pending WSS by accident, and must not
// need to — and once the WSS is back Repair's fleet-wide push brings the
// fleet to a clean audit with every WSS on intent.
func TestSecondCutWhileFirstCutsWSSPending(t *testing.T) {
	tb, err := NewTestbed(cernetRegion(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	first := detourFiber(tb)
	probe, err := oracle(tb, first)
	if err != nil || len(probe.Restored) == 0 {
		t.Fatalf("no restorable cut in the region: %v", err)
	}
	pending := probe.Restored[0].Path.Fibers[0] // on the new path, so not the cut fiber
	wss := "wss-" + pending
	desc, _ := tb.Ctrl.DevMgr().Descriptor(wss)
	tb.servers[wss].Stop()

	rep, err := tb.Ctrl.HandleFiberCutReport(first)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep.SkippedDevices) != "["+wss+"]" {
		t.Fatalf("first cut skipped %v, want the stopped %s", rep.SkippedDevices, wss)
	}
	// The second cut: the busiest fiber still carrying traffic that is
	// neither cut nor the pending WSS's.
	second := ""
	for _, ch := range tb.Ctrl.LiveChannels() {
		for _, f := range ch.Wavelength.Path.Fibers {
			if f != first && f != pending && (second == "" || f < second) {
				second = f
			}
		}
	}
	rep2, err := tb.Ctrl.HandleFiberCutReport(second)
	if err != nil {
		t.Fatalf("second cut (%s) while %s is pending: %v", second, wss, err)
	}
	if rep2.Result.AffectedGbps == 0 || rep2.PushWSSDevices >= tb.Net.Optical.NumFibers() {
		t.Errorf("second cut affected %d Gbps and pushed %d of %d WSSes", rep2.Result.AffectedGbps, rep2.PushWSSDevices, tb.Net.Optical.NumFibers())
	}

	if _, err := tb.servers[wss].Listen(desc.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Ctrl.Repair(); err != nil {
		t.Fatal(err)
	}
	if audit, err := tb.Ctrl.Audit(); err != nil || !audit.Clean() {
		t.Fatalf("audit after the repair: %+v, %v", audit, err)
	}
	checkFleetRunsIntent(t, tb)
}
