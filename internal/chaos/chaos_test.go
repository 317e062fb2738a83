package chaos

import (
	"bytes"
	"testing"
	"time"

	"flexwan/internal/netconf"
	"flexwan/internal/workload"
)

// drillOnce builds a fresh testbed for the network and runs the
// scenario on it.
func drillOnce(t *testing.T, n workload.Network, sc Scenario) (*Report, *Log) {
	t.Helper()
	tb, err := NewTestbed(n, Options{})
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
	rep, log := drillOnce(t, RingNetwork(4, 100, 200), ringScenario(7))
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
// of goroutine scheduling (run under -race in CI).
func TestDrillDeterminism(t *testing.T) {
	n := RingNetwork(4, 100, 200)
	sc := ringScenario(42)
	rep1, log1 := drillOnce(t, n, sc)
	rep2, log2 := drillOnce(t, n, sc)
	if !bytes.Equal(log1.Marshal(), log2.Marshal()) {
		t.Fatalf("event logs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			log1.Marshal(), log2.Marshal())
	}
	if rep1.LogHash != rep2.LogHash {
		t.Fatalf("hashes differ: %s vs %s", rep1.LogHash, rep2.LogHash)
	}
	// A different seed must (for these fault rates) shuffle the fault
	// schedule — byte-identical logs across seeds would mean the seed
	// is ignored.
	_, log3 := drillOnce(t, n, ringScenario(43))
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
	rep1, log1 := drillOnce(t, n, sc)
	if !rep1.OracleMatch || !rep1.AuditClean {
		t.Fatalf("flap drill failed: %+v", rep1)
	}
	_, log2 := drillOnce(t, n, sc)
	if !bytes.Equal(log1.Marshal(), log2.Marshal()) {
		t.Fatalf("flap drill not deterministic:\n%s\nvs\n%s", log1.Marshal(), log2.Marshal())
	}
}

// TestCernetAcceptanceDrill is the issue's acceptance scenario: a
// seeded CERNET drill with a fiber cut, 10% RPC drop, and one
// transponder crash/restart must complete detection → restoration →
// push, restore exactly the offline oracle's Gbps, leave the audit
// clean, and reproduce a byte-identical event log on a second run.
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
	rep1, log1 := drillOnce(t, n, sc)
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

	rep2, log2 := drillOnce(t, n, sc)
	if !bytes.Equal(log1.Marshal(), log2.Marshal()) {
		t.Fatalf("CERNET drill not deterministic (hash %s vs %s)", rep1.LogHash, rep2.LogHash)
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
// recovery ladder (eval.RecoveryDrillLadder; the record committed in
// BENCH_recovery.json). Seed 1 injects no RPC fault on the ring, so the
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
	rep, _, err := Run(tb, Scenario{
		Name: "ring4-cut-drop10-crash1", Seed: 1,
		Faults: FaultConfig{DropRequestProb: 0.10}, CrashTransponders: 1,
	})
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
