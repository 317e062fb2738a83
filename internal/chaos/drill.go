package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"flexwan/internal/controller"
	"flexwan/internal/restore"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// Scenario scripts one recovery drill: an optional telemetry flap, a
// set of transponder crashes, then a fiber cut handled by the live
// controller loop under injected RPC faults, followed by restarts and
// reconciliation.
type Scenario struct {
	Name string
	// Seed drives every fault decision. Same seed, same event log.
	Seed   int64
	Faults FaultConfig
	// CutFiber is the fiber to cut; empty picks the fiber carrying the
	// most provisioned Gbps (lexicographically first on ties).
	CutFiber string
	// CrashTransponders crashes this many transponders carrying
	// channels through the cut fiber before the cut — they stay dark
	// through the restoration push (forcing the degraded path) and are
	// restarted afterwards for Repair to reconverge.
	CrashTransponders int
	// FlapFiber, when set, cuts and immediately repairs this fiber
	// before the main event: the controller restores it, then the
	// los-clear alarm clears the down mark. Exercises detection
	// hysteresis without polluting the main cut's solve.
	FlapFiber string
	// DetectTimeout bounds each wait for a recovery report (default 30s).
	DetectTimeout time.Duration
	// RepairAttempts bounds the post-restart reconciliation loop
	// (default 20, 50ms apart).
	RepairAttempts int
}

// Report is one drill's scorecard (what flexwanctl -drill prints and
// -drill-out writes). Latencies live here and only here; the event log
// stays wall-clock free so it can be byte-compared across runs.
type Report struct {
	Name    string `json:"name"`
	Network string `json:"network"`
	Seed    int64  `json:"seed"`
	Fiber   string `json:"fiber"`

	// PushWorkers is the controller's configured push fan-out for this
	// run (0 = one in-flight pipeline per device, 1 = legacy serial).
	PushWorkers int `json:"push_workers"`

	DetectMs float64 `json:"detect_ms"`
	SolveMs  float64 `json:"solve_ms"`
	PushMs   float64 `json:"push_ms"`
	// PushTxMs and PushWSSMs split the push between the transponder
	// fan-out and the WSS fan-out.
	PushTxMs  float64 `json:"push_tx_ms"`
	PushWSSMs float64 `json:"push_wss_ms"`
	// PushTxDevices and PushWSSDevices count the devices each phase
	// pushed; the WSS count is the fibers the restoration touched, not
	// the fleet.
	PushTxDevices  int     `json:"push_tx_devices"`
	PushWSSDevices int     `json:"push_wss_devices"`
	TotalMs        float64 `json:"total_ms"`

	AffectedGbps int  `json:"affected_gbps"`
	RestoredGbps int  `json:"restored_gbps"`
	OracleGbps   int  `json:"oracle_gbps"`
	OracleMatch  bool `json:"oracle_match"`
	Playbook     bool `json:"playbook"`

	Crashed         []string `json:"crashed,omitempty"`
	SkippedDevices  []string `json:"skipped_devices,omitempty"`
	PendingChannels []string `json:"pending_channels,omitempty"`
	FaultsInjected  int      `json:"faults_injected"`
	RepairActions   int      `json:"repair_actions"`
	AuditClean      bool     `json:"audit_clean"`

	Events  int    `json:"events"`
	LogHash string `json:"log_hash"`
}

// Drill pairs a network with the scenario to run on it.
type Drill struct {
	Network  workload.Network
	Scenario Scenario
}

// DrillLadder is the fixed ladder flexwanctl -drill runs: a small ring
// smoke drill and the CERNET acceptance scenario — busiest-fiber cut
// under 10% RPC request drops with one transponder crash/restart — at the
// given seed. Each drill needs a fresh testbed (NewTestbed, then Run).
func DrillLadder(seed int64) []Drill {
	faults := FaultConfig{DropRequestProb: 0.10}
	return []Drill{
		{
			Network: RingNetwork(4, 100, 200),
			Scenario: Scenario{
				Name: "ring4-cut-drop10-crash1", Seed: seed,
				Faults: faults, CrashTransponders: 1,
			},
		},
		{
			Network: workload.Cernet(seed),
			Scenario: Scenario{
				Name: "cernet-cut-drop10-crash1", Seed: seed,
				Faults: faults, CrashTransponders: 1,
			},
		},
	}
}

// Run executes the scenario against the testbed and returns the
// scorecard plus the event log. The testbed is consumed: a drill cuts
// fibers and moves channels, so build a fresh one per scenario.
func Run(tb *Testbed, sc Scenario) (*Report, *Log, error) {
	log := NewLog()
	inj := NewInjector(sc.Seed, sc.Faults, log)
	tb.BindInjector(inj)

	detectTimeout := sc.DetectTimeout
	if detectTimeout <= 0 {
		detectTimeout = 30 * time.Second
	}

	// Start the closed loop: collector → WatchContext → restoration.
	ctx, cancel := context.WithCancel(context.Background())
	reports := make(chan *controller.RestoreReport, 16)
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		tb.Ctrl.WatchContext(ctx, tb.Collector.Events(), func(rep *controller.RestoreReport) {
			reports <- rep
		})
	}()
	tb.Collector.Run()
	defer func() {
		cancel()
		watcher.Wait()
	}()

	// Phase 0 — telemetry flap: a cut that heals. The controller
	// restores it (reversion is a maintenance action, not a reflex) and
	// the los-clear must erase the down mark so the real cut's solve
	// sees exactly one failure.
	if sc.FlapFiber != "" {
		log.Step("flap", sc.FlapFiber)
		tb.Fabric.Cut(sc.FlapFiber)
		rep, err := awaitReport(reports, "fiber-cut", sc.FlapFiber, detectTimeout)
		if err != nil {
			return nil, nil, err
		}
		log.Outcome("flap-restored", fmt.Sprintf("%s gbps=%d/%d",
			sc.FlapFiber, rep.Result.RestoredGbps, rep.Result.AffectedGbps))
		tb.Fabric.Repair(sc.FlapFiber)
		if _, err := awaitReport(reports, "fiber-restored", sc.FlapFiber, detectTimeout); err != nil {
			return nil, nil, err
		}
		log.Outcome("flap-cleared", sc.FlapFiber)
	}

	fiber := sc.CutFiber
	if fiber == "" {
		fiber = busiestFiber(tb)
	}
	if fiber == "" {
		return nil, nil, fmt.Errorf("chaos: no live channels to cut")
	}

	// Phase 1 — crash transponders carrying traffic through the fiber.
	// Pinning crashes before the cut (and restarts after the report)
	// makes the set of devices the degraded push skips a function of
	// the scenario, not of scheduling.
	crashed := pickCrashTargets(tb, fiber, sc.CrashTransponders)
	for _, id := range crashed {
		log.Step("crash", id)
		tb.Transponders[id].Crash()
	}

	// Snapshot the live plan: the offline oracle must solve the same
	// instance the controller is about to.
	base := tb.Ctrl.CurrentPlan()

	// Phase 2 — the main event, under fire.
	inj.Arm()
	log.Step("cut", fiber)
	cutAt := time.Now()
	tb.Fabric.Cut(fiber)
	rep, err := awaitReport(reports, "fiber-cut", fiber, detectTimeout)
	if err != nil {
		return nil, nil, err
	}
	total := time.Since(cutAt)
	inj.Disarm()
	if rep.Result == nil {
		return nil, nil, fmt.Errorf("chaos: fiber-cut report for %s carries no result", fiber)
	}
	log.Outcome("restored", fmt.Sprintf("%s gbps=%d/%d channels=%d",
		fiber, rep.Result.RestoredGbps, rep.Result.AffectedGbps, len(rep.Result.Restored)))
	if rep.Degraded() {
		log.Outcome("degraded", strings.Join(rep.SkippedDevices, ","))
	}
	if len(rep.PendingChannels) > 0 {
		pending := append([]string(nil), rep.PendingChannels...)
		sort.Strings(pending)
		log.Outcome("pending", strings.Join(pending, ","))
	}

	// Phase 3 — restart the crashed hardware and reconcile. Repair
	// re-pushes the recorded intent (including channels the degraded
	// push left pending) until the audit is clean.
	for _, id := range crashed {
		log.Step("restart", id)
		if err := tb.Transponders[id].Restart(); err != nil {
			return nil, nil, fmt.Errorf("chaos: restarting %s: %w", id, err)
		}
	}
	attempts := sc.RepairAttempts
	if attempts <= 0 {
		attempts = 20
	}
	repairActions, auditClean := 0, false
	for i := 0; i < attempts; i++ {
		actions, err := tb.Ctrl.Repair()
		repairActions += len(actions)
		if err == nil {
			if audit, aerr := tb.Ctrl.Audit(); aerr == nil && audit.Clean() {
				auditClean = true
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	log.Outcome("audit", fmt.Sprintf("clean=%v", auditClean))

	// Phase 4 — score against the offline oracle on the same instance.
	oracle, err := restore.Solve(restore.Problem{
		Optical: tb.Net.Optical, IP: tb.Net.IP, Catalog: transponder.SVT(), Grid: tb.Grid,
		Base:     base,
		Scenario: restore.Scenario{ID: "oracle-" + fiber, CutFibers: []string{fiber}},
		K:        tb.K,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: oracle solve: %w", err)
	}
	match := oracle.RestoredGbps == rep.Result.RestoredGbps
	log.Outcome("oracle", fmt.Sprintf("gbps=%d match=%v", oracle.RestoredGbps, match))

	out := &Report{
		Name:            sc.Name,
		Network:         tb.Net.Name,
		Seed:            sc.Seed,
		Fiber:           fiber,
		PushWorkers:     tb.Ctrl.PushWorkers(),
		DetectMs:        ms(rep.Event.Time.Sub(cutAt)),
		SolveMs:         ms(rep.SolveTime),
		PushMs:          ms(rep.PushTime),
		PushTxMs:        ms(rep.PushTxTime),
		PushWSSMs:       ms(rep.PushWSSTime),
		PushTxDevices:   rep.PushTxDevices,
		PushWSSDevices:  rep.PushWSSDevices,
		TotalMs:         ms(total),
		AffectedGbps:    rep.Result.AffectedGbps,
		RestoredGbps:    rep.Result.RestoredGbps,
		OracleGbps:      oracle.RestoredGbps,
		OracleMatch:     match,
		Playbook:        rep.Playbook,
		Crashed:         crashed,
		SkippedDevices:  rep.SkippedDevices,
		PendingChannels: rep.PendingChannels,
		FaultsInjected:  inj.Injections(),
		RepairActions:   repairActions,
		AuditClean:      auditClean,
		Events:          log.Len(),
		LogHash:         log.Hash(),
	}
	return out, log, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// awaitReport waits for the recovery report matching (kind, fiber),
// discarding unrelated reports.
func awaitReport(reports <-chan *controller.RestoreReport, kind, fiber string, timeout time.Duration) (*controller.RestoreReport, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case rep := <-reports:
			if rep.Event.Kind == kind && rep.Event.Fiber == fiber {
				return rep, nil
			}
		case <-deadline.C:
			return nil, fmt.Errorf("chaos: no %s report for %s within %v", kind, fiber, timeout)
		}
	}
}

// busiestFiber returns the fiber carrying the most live Gbps,
// tie-broken lexicographically.
func busiestFiber(tb *Testbed) string {
	load := map[string]int{}
	for _, ch := range tb.Ctrl.LiveChannels() {
		for _, f := range ch.Wavelength.Path.Fibers {
			load[f] += ch.Wavelength.Mode.DataRateGbps
		}
	}
	best, bestLoad := "", -1
	for f, g := range load {
		if g > bestLoad || (g == bestLoad && f < best) {
			best, bestLoad = f, g
		}
	}
	return best
}

// pickCrashTargets chooses up to n transponders that carry channels
// through the fiber, in channel-name order (A end before B end) — a
// deterministic pick of hardware the restoration must touch.
func pickCrashTargets(tb *Testbed, fiber string, n int) []string {
	if n <= 0 {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	for _, ch := range tb.Ctrl.LiveChannels() {
		onFiber := false
		for _, f := range ch.Wavelength.Path.Fibers {
			if f == fiber {
				onFiber = true
				break
			}
		}
		if !onFiber {
			continue
		}
		for _, id := range []string{ch.TxA, ch.TxB} {
			if len(out) >= n {
				return out
			}
			if id != "" && !seen[id] && tb.Transponders[id] != nil {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}
