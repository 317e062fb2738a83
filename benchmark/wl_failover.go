package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"flexwan/internal/chaos"
	"flexwan/internal/controller"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/topology"
	"flexwan/internal/workload"
)

// One failover op is one chaos.Run on a fresh testbed (a drill consumes
// its fleet): loopback NETCONF agents for CERNET's central region, the
// plan applied, then the most-loaded fiber that has a detour is cut and
// the live loop handles it — telemetry detect → restore.Solve →
// controller push. Its latency is cut → restoration report.
//
// failover-clean injects nothing. failover-faulty crashes one transponder
// on the cut fiber and drops 2% of configuration RPCs, so the same layers
// run their other half: DevMgr.Call retry and backoff against a dead
// device, call timeouts, the degraded push and Repair. Its latency is a
// sum of timers, so a fast-fail gain must show here without costing
// failover-clean.
//
// Ports set the size. Every TCP connection of a torn-down testbed leaves
// a socket in TIME_WAIT for 60 s, holding a port of the 28 232 ephemeral
// ones. A drill on all 34 CERNET cities (~320 agents) leaves ~850: 33 of
// them in a minute exhaust the range ("address already in use"), and from
// about 11 000 sockets in TIME_WAIT on, the kernel's search for a free
// port shows as a doubled CPU time per drill that depends on what ran in
// the minute before. The driver runs back to back, about 2.7 runs a
// minute. So a drill runs on the regionCities cities around regionHub
// (~32 agents, ~53 sockets) and a run holds failoverRate drills per
// second of its length, however fast they are: with set-up 2 900 sockets
// in 20 s, under 8 000 in any minute. A run that finishes its drills
// early idles until its time is up, or the next run would start sooner
// and the budget would not hold. A faster drill therefore does not raise
// the op count, which is why the benchmark has no ops-per-second metric;
// latency and CPU per op carry it.
//
// The drills of a run are spread evenly over its length, so that a run
// samples every stretch of the host's speed, which drifts by ±15% over
// seconds. Between drills the harness keeps the cores spinning
// (runCtx.keepAwake) and does not sleep: a drill that starts after half a
// second of idling finds the cores clocked down and parked, and its
// sub-millisecond latency then measures how fast they come back. Paced
// with sleeps, the median of the same drills read 1.3 to 3.4 ms from run
// to run; in two back-to-back bursts 0.43 to 0.67 ms, depending on what
// the host did in those two half-seconds; kept awake, 0.56 to 0.62 ms.
//
// One region, one cut rule: the seed varies what it should — demands,
// hence plan, channels and the fiber that is busiest — and not the
// topology or the rank of the cut.
//
// The faulty drill's timers are the drill defaults divided by
// faultyTimerScale (call timeout 250 → 50 ms, backoff base 50 → 10 ms,
// cap 1 s → 200 ms): the retry ladder keeps its shape — three attempts,
// doubling, ±25% jitter, a timeout five times the base delay — and a
// drill fits its slot of the run. Its drop rate is low for the median's
// sake: a latency made of timers is quantised, each dropped RPC on the
// critical path adding one 60 ms step, and with a step in half the
// drills the median would jump between levels from run to run. At 2% a
// third of the drills see a drop; the median sits on the crash ladder,
// and bench.op_mean_ms in the traced run carries the steps.
const (
	regionHub        = "wuhan" // its neighbourhood holds a fiber cycle: the busiest fiber has a detour
	regionCities     = 6
	failoverRate     = 2.5 // drills per second of run length
	failoverPinned   = 8   // drills golden_seed1.json pins by cut fiber and restored capacity
	dropRequest      = 0.02
	faultyTimerScale = 5
)

var failoverLayer = []metricDef{
	{Name: "telemetry.detect_ms_p50", Unit: "ms", Better: lower},
	{Name: "telemetry.detect_ms_p90", Unit: "ms", Better: lower},
	{Name: "controller.solve_ms_p50", Unit: "ms", Better: lower},
	{Name: "controller.push_ms_p50", Unit: "ms", Better: lower},
	{Name: "controller.push_tx_ms_p50", Unit: "ms", Better: lower},
	{Name: "controller.push_wss_ms_p50", Unit: "ms", Better: lower},
	{Name: "controller.stages_share_of_op", Unit: "share", Better: higher},
	{Name: "controller.skipped_devices_per_op", Unit: "count", Better: lower},
	{Name: "controller.pending_channels_per_op", Unit: "count", Better: lower},
	{Name: "controller.repair_actions_per_op", Unit: "count", Better: lower},
	{Name: "controller.repair_ms_p50", Unit: "ms", Better: lower},
	{Name: "controller.audit_ms_p50", Unit: "ms", Better: lower},
	{Name: "netconf.rtt_us_p50", Unit: "us", Better: lower},
	{Name: "netconf.dial_us_p50", Unit: "us", Better: lower},
	{Name: "netconf.faults_injected_per_op", Unit: "count", Better: lower},
	{Name: "chaos.run_ms_p50", Unit: "ms", Better: lower},
	{Name: "chaos.testbed_build_ms_p50", Unit: "ms", Better: lower},
	{Name: "chaos.testbed_close_ms_p50", Unit: "ms", Better: lower},
	{Name: "chaos.agents", Unit: "count", Better: lower},
	{Name: "chaos.oracle_match_share", Unit: "share", Better: higher},
	{Name: "chaos.audit_clean_share", Unit: "share", Better: higher},
	{Name: "chaos.log_hash_stable", Unit: "share", Better: higher},
}

// drill is one op's inputs, all drawn from the workload seed.
type drill struct {
	netSeed   int64 // workload.Cernet demand randomization
	faultSeed int64 // chaos fault decisions
	jitter    int64 // retry backoff jitter
}

type failover struct {
	faulty bool
	rng    *rand.Rand
	first  drill
	reps   []*chaos.Report
	agents sample
}

func (w *failover) name() string {
	if w.faulty {
		return "failover-faulty"
	}
	return "failover-clean"
}
func (w *failover) close() {}

func (w *failover) nextDrill() drill {
	return drill{netSeed: w.rng.Int63n(1 << 30), faultSeed: w.rng.Int63n(1 << 30), jitter: w.rng.Int63()}
}

// setup is one testbed and one warm-up drill, the first of a stream of its
// own and so the same at every seed, then the seed's stream is opened.
func (w *failover) setup(c *runCtx) error {
	id := int64(3)
	if w.faulty {
		id = 4
	}
	w.rng = rand.New(rand.NewSource(warmupSeed + id))
	_, failure, _ := w.drill(c, w.nextDrill(), -1, nil)
	if failure != "" {
		return fmt.Errorf("warm-up drill: %s", failure)
	}
	w.rng = rand.New(rand.NewSource(c.seed*7919 + id))
	return nil
}

func (w *failover) run(c *runCtx) error {
	start := time.Now()
	window := c.deadline.Sub(start)
	drills := int(math.Ceil(failoverRate * c.seconds))
	for op := 0; op < drills && !c.expired(); op++ {
		c.keepAwake(start.Add(window * time.Duration(op) / time.Duration(drills)))
		d := w.nextDrill()
		if op == 0 {
			w.first = d
		}
		rep, failure, wrong := w.drill(c, d, op, nil)
		var lat time.Duration
		if rep != nil {
			lat = time.Duration(rep.TotalMs * float64(time.Millisecond))
			w.reps = append(w.reps, rep)
		}
		c.op(lat, failure, wrong)
		c.cpuMark(1)
	}
	time.Sleep(time.Until(c.deadline)) // the port budget counts on runs of full length
	return nil
}

// lockedRand makes one seeded source safe for the concurrent per-device
// retry loops that draw backoff jitter from it.
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// drill builds the testbed, runs the scenario, re-runs repair and audit
// from the outside to time them, and closes the fleet. withTestbed, when
// set, runs against the live fleet before the drill consumes it.
func (w *failover) drill(c *runCtx, d drill, op int, withTestbed func(*chaos.Testbed) error) (rep *chaos.Report, failure string, wrong bool) {
	sp := c.tr.start("workload.generate", -1, op, false)
	n := cernetRegion(d.netSeed)
	c.tr.end(sp)

	opts := chaos.Options{SparesPerSite: 1}
	sc := chaos.Scenario{Name: fmt.Sprintf("%s-%d", w.name(), op), Seed: d.faultSeed}
	if w.faulty {
		pol := controller.DefaultRetryPolicy()
		pol.BaseDelay /= faultyTimerScale
		pol.MaxDelay /= faultyTimerScale
		pol.Rand = (&lockedRand{rng: rand.New(rand.NewSource(d.jitter))}).Float64
		opts.Retry = &pol
		opts.Dial = netconf.DialOptions{CallTimeout: 250 * time.Millisecond / faultyTimerScale}
		sc.Faults = chaos.FaultConfig{DropRequestProb: dropRequest}
		sc.CrashTransponders = 1
	}

	sp = c.tr.start("chaos.NewTestbed", -1, op, false)
	tb, err := chaos.NewTestbed(n, opts)
	c.tr.end(sp)
	if err != nil {
		return nil, "testbed: " + err.Error(), false
	}
	defer func() {
		sp := c.tr.start("chaos.Close", -1, op, false)
		tb.Close()
		c.tr.end(sp)
	}()
	if op >= 0 {
		w.agents = append(w.agents, float64(len(tb.Ctrl.DevMgr().Devices())))
	}
	if withTestbed != nil {
		if err := withTestbed(tb); err != nil {
			return nil, err.Error(), false
		}
	}

	sc.CutFiber = busiestFiber(tb)
	sp = c.tr.start("chaos.Run", -1, op, false)
	rep, _, err = chaos.Run(tb, sc)
	c.tr.end(sp)
	if err != nil {
		return nil, "drill: " + err.Error(), false
	}
	// Repair and audit once more from the outside: after a finished drill
	// both are steady-state calls (nothing left to fix, one fleet-wide
	// config read-back), which is what their spans time.
	sp = c.tr.start("controller.Repair", -1, op, false)
	_, rerr := tb.Ctrl.Repair()
	c.tr.end(sp)
	sp = c.tr.start("controller.Audit", -1, op, false)
	audit, aerr := tb.Ctrl.Audit()
	c.tr.end(sp)

	switch {
	case rerr != nil:
		return rep, "repair after drill: " + rerr.Error(), false
	case aerr != nil:
		return rep, "audit after drill: " + aerr.Error(), false
	case !audit.Clean():
		return rep, fmt.Sprintf("audit after drill: %d inconsistencies, %d conflicts", len(audit.Inconsistencies), len(audit.Conflicts)), true
	case !rep.AuditClean:
		return rep, "drill ended with an unclean audit", true
	case !rep.OracleMatch:
		return rep, fmt.Sprintf("restored %d Gbps, offline oracle %d", rep.RestoredGbps, rep.OracleGbps), true
	case rep.RestoredGbps > rep.AffectedGbps:
		return rep, fmt.Sprintf("restored %d Gbps of %d affected", rep.RestoredGbps, rep.AffectedGbps), true
	}
	if op >= 0 && op < failoverPinned {
		pin := fmt.Sprintf("%s affected=%d restored=%d", rep.Fiber, rep.AffectedGbps, rep.RestoredGbps)
		if m := c.golden.check(w.name(), op, pin); m != "" {
			return rep, m, true
		}
	}
	return rep, "", false
}

// cernetRegion is workload.Cernet(seed) cut down to the regionCities
// cities nearest (in fiber hops) to regionHub, with the fibers between
// them and every IP link whose shortest optical path stays inside.
func cernetRegion(seed int64) workload.Network {
	full := workload.Cernet(seed)
	adj := map[topology.NodeID][]topology.NodeID{}
	for _, f := range full.Optical.Fibers() {
		adj[f.A] = append(adj[f.A], f.B)
		adj[f.B] = append(adj[f.B], f.A)
	}
	inside := map[topology.NodeID]bool{regionHub: true}
	for queue := []topology.NodeID{regionHub}; len(queue) > 0 && len(inside) < regionCities; queue = queue[1:] {
		for _, next := range adj[queue[0]] {
			if !inside[next] && len(inside) < regionCities {
				inside[next] = true
				queue = append(queue, next)
			}
		}
	}

	g := topology.New()
	for _, f := range full.Optical.Fibers() {
		if inside[f.A] && inside[f.B] {
			if err := g.AddFiber(f.ID, f.A, f.B, f.LengthKm); err != nil {
				panic(err) // IDs and endpoints come from a valid topology
			}
		}
	}
	ip := &topology.IPTopology{}
	for _, l := range full.IP.Links {
		p, ok := full.Optical.ShortestPath(l.A, l.B)
		stays := ok
		for _, n := range p.Nodes {
			stays = stays && inside[n]
		}
		if stays {
			if err := ip.AddLink(l); err != nil {
				panic(err)
			}
		}
	}
	return workload.Network{Name: "Cernet-region", Optical: g, IP: ip}
}

// busiestFiber returns the fiber carrying the most live Gbps (ties broken
// by ID) among those with a detour: cutting a bridge of the region
// restores nothing and pushes nothing, which is a different, much shorter
// op. Empty when no loaded fiber has a detour; chaos.Run then falls back
// to its own choice.
func busiestFiber(tb *chaos.Testbed) string {
	load := map[string]int{}
	for _, ch := range tb.Ctrl.LiveChannels() {
		for _, f := range ch.Wavelength.Path.Fibers {
			load[f] += ch.Wavelength.Mode.DataRateGbps
		}
	}
	best := ""
	for id, gbps := range load {
		f, ok := tb.Net.Optical.Fiber(id)
		if !ok {
			continue
		}
		if _, connected := tb.Net.Optical.Without(id).ShortestPath(f.A, f.B); !connected {
			continue
		}
		if best == "" || gbps > load[best] || (gbps == load[best] && id < best) {
			best = id
		}
	}
	return best
}

func (w *failover) layerMetrics(c *runCtx) {
	var detect, solve, push, pushTx, pushWSS, total sample
	var skipped, pending, repairs, faults, oracle, clean float64
	for _, r := range w.reps {
		detect = append(detect, r.DetectMs)
		solve = append(solve, r.SolveMs)
		push = append(push, r.PushMs)
		pushTx = append(pushTx, r.PushTxMs)
		pushWSS = append(pushWSS, r.PushWSSMs)
		total = append(total, r.TotalMs)
		skipped += float64(len(r.SkippedDevices))
		pending += float64(len(r.PendingChannels))
		repairs += float64(r.RepairActions)
		faults += float64(r.FaultsInjected)
		if r.OracleMatch {
			oracle++
		}
		if r.AuditClean {
			clean++
		}
	}
	n := float64(len(w.reps))
	if n == 0 {
		return
	}
	c.layer["telemetry.detect_ms_p50"] = detect.median()
	c.layer["telemetry.detect_ms_p90"] = detect.percentile(90)
	c.layer["controller.solve_ms_p50"] = solve.median()
	c.layer["controller.push_ms_p50"] = push.median()
	c.layer["controller.push_tx_ms_p50"] = pushTx.median()
	c.layer["controller.push_wss_ms_p50"] = pushWSS.median()
	c.layer["controller.stages_share_of_op"] = (detect.sum() + solve.sum() + push.sum()) / total.sum()
	c.layer["controller.skipped_devices_per_op"] = skipped / n
	c.layer["controller.pending_channels_per_op"] = pending / n
	c.layer["controller.repair_actions_per_op"] = repairs / n
	c.layer["netconf.faults_injected_per_op"] = faults / n
	c.layer["chaos.oracle_match_share"] = oracle / n
	c.layer["chaos.audit_clean_share"] = clean / n
	c.layer["chaos.agents"] = w.agents.mean()
	c.layer["controller.repair_ms_p50"] = c.tr.durationsMs("controller.Repair").median()
	c.layer["controller.audit_ms_p50"] = c.tr.durationsMs("controller.Audit").median()
	c.layer["chaos.run_ms_p50"] = c.tr.durationsMs("chaos.Run").median()
	c.layer["chaos.testbed_build_ms_p50"] = c.tr.durationsMs("chaos.NewTestbed").median()
	c.layer["chaos.testbed_close_ms_p50"] = c.tr.durationsMs("chaos.Close").median()
}

// probes replays the first drill: its event log must hash the same (one
// seed, one log), and its live fleet gives the bare NETCONF numbers —
// session set-up and round trip against one agent.
func (w *failover) probes(c *runCtx) error {
	if len(w.reps) == 0 {
		return nil
	}
	rep, failure, _ := w.drill(c, w.first, -1, func(tb *chaos.Testbed) error {
		var agent devmodel.Descriptor
		for _, d := range tb.Ctrl.DevMgr().Devices() {
			if d.Class == devmodel.ClassTransponder {
				agent = d
				break
			}
		}
		var dialUs, rttUs sample
		for i := 0; i < 10; i++ {
			sp := c.tr.start("netconf.Dial", -1, -1, true)
			cl, err := netconf.Dial(agent.Address)
			dialUs = append(dialUs, float64(c.tr.end(sp))/1e3)
			if err != nil {
				return fmt.Errorf("netconf probe: %w", err)
			}
			if i == 0 {
				for j := 0; j < 200; j++ {
					var state json.RawMessage
					sp := c.tr.start("netconf.Call", -1, -1, true)
					err := cl.Call(netconf.OpGetState, nil, &state)
					rttUs = append(rttUs, float64(c.tr.end(sp))/1e3)
					if err != nil {
						_ = cl.Close() // the call error is what gets reported
						return fmt.Errorf("netconf probe: %w", err)
					}
				}
			}
			if err := cl.Close(); err != nil {
				return fmt.Errorf("netconf probe: %w", err)
			}
		}
		c.layer["netconf.dial_us_p50"] = dialUs.median()
		c.layer["netconf.rtt_us_p50"] = rttUs.median()
		return nil
	})
	if failure != "" {
		return fmt.Errorf("replayed drill: %s", failure)
	}
	if rep.LogHash == w.reps[0].LogHash {
		c.layer["chaos.log_hash_stable"] = 1
	}
	return nil
}
