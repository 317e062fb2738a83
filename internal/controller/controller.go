package controller

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/telemetry"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// Config assembles the controller's global view: both topology layers,
// the hardware family, and the spectrum grid.
type Config struct {
	Optical *topology.Optical
	IP      *topology.IPTopology
	Catalog transponder.Catalog
	Grid    spectrum.Grid
	// K is the candidate-path count for planning and restoration.
	K int
	// Epsilon is the planning objective's spectrum weight.
	Epsilon float64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...interface{})
}

// channelState tracks one live wavelength and the hardware carrying it.
type channelState struct {
	wavelength plan.Wavelength
	txA, txB   string // transponder device IDs at the two ends
}

// Controller is the centralized optical controller.
type Controller struct {
	cfg    Config
	devmgr *DevMgr

	// pushWorkers bounds the concurrent push fan-out (see
	// SetPushWorkers); atomic so the push engine can read it whether or
	// not the caller holds mu.
	pushWorkers atomic.Int64

	mu sync.Mutex
	// channels maps channel name ("link:seq") → live state.
	channels map[string]*channelState
	// wssConfig accumulates the passband document per fiber.
	wssConfig map[string]devmodel.WSSConfig
	// downFibers tracks fibers currently marked cut.
	downFibers map[string]bool
	// seq numbers channels per link.
	seq map[string]int
	// store, when non-nil, receives one immutable ConfigVersion per
	// state-changing action (see store.go); actor names who drove it.
	store ConfigStore
	actor string
}

// New builds a controller. Devices are added via DevMgr().RegisterAll.
func New(cfg Config) (*Controller, error) {
	if cfg.Optical == nil || cfg.IP == nil {
		return nil, fmt.Errorf("controller: nil topology")
	}
	if len(cfg.Catalog.Modes) == 0 {
		return nil, fmt.Errorf("controller: empty catalog")
	}
	if cfg.Grid.Pixels <= 0 {
		return nil, fmt.Errorf("controller: invalid grid")
	}
	return &Controller{
		cfg:        cfg,
		devmgr:     NewDevMgr(),
		channels:   make(map[string]*channelState),
		wssConfig:  make(map[string]devmodel.WSSConfig),
		downFibers: make(map[string]bool),
		seq:        make(map[string]int),
	}, nil
}

// DevMgr exposes the device manager for registration.
func (c *Controller) DevMgr() *DevMgr { return c.devmgr }

// Close drops all device sessions.
func (c *Controller) Close() { c.devmgr.Close() }

func (c *Controller) logf(format string, args ...interface{}) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// PlanNetwork runs the network planning module (Algorithm 1 heuristic)
// against the global view and returns the result without applying it.
func (c *Controller) PlanNetwork() (*plan.Result, error) {
	c.mu.Lock()
	p := c.planProblemLocked(c.cfg.Optical, c.cfg.IP)
	c.mu.Unlock()
	res, err := plan.Solve(p)
	if err != nil {
		return nil, err
	}
	if err := plan.Verify(p, res); err != nil {
		return nil, fmt.Errorf("controller: planning self-check failed: %w", err)
	}
	return res, nil
}

// planProblemLocked is the planning instance over the given layers with
// the controller's catalog, grid, K and ε. Callers hold c.mu: evolution
// replaces cfg.IP.
func (c *Controller) planProblemLocked(optical *topology.Optical, ip *topology.IPTopology) plan.Problem {
	return plan.Problem{
		Optical: optical,
		IP:      ip,
		Catalog: c.cfg.Catalog,
		Grid:    c.cfg.Grid,
		K:       c.cfg.K,
		Epsilon: c.cfg.Epsilon,
	}
}

// Apply pushes a planning result to the hardware as one change set: for
// every wavelength it claims a transponder pair, configures both ends, and
// installs the identical passband on the WSS of every fiber along the
// path. The push is coordinated per §4.3 — one source of configuration for
// all devices, so consistency and conflict-freedom hold network-wide — and
// all-or-nothing across vendors: every device stages its document first,
// and a rejection anywhere (a fixed-grid WSS refusing an off-grid
// passband, a transponder refusing a mode) leaves the network and the
// controller as they were.
func (c *Controller) Apply(res *plan.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	chans, err := c.claimChannelsLocked(res.Wavelengths)
	if err != nil {
		return err
	}
	p, err := c.stageChannelsLocked(chans, make(map[string]bool))
	if err != nil {
		return err
	}
	err = c.commitChannelsLocked(p, chans)
	c.logf("controller: applied plan with %d wavelengths over %d links",
		len(res.Wavelengths), len(res.PerLink))
	c.recordLocked("apply", fmt.Sprintf("applied plan: %d wavelengths over %d links",
		len(res.Wavelengths), len(res.PerLink)))
	return err
}

// claimedChannel is a wavelength named as a channel and bound to the
// transponder pair that will carry it.
type claimedChannel struct {
	name     string
	w        plan.Wavelength
	txA, txB string
}

// claimChannelsLocked names a channel for every wavelength (the link's
// next "link:seq") and claims a transponder pair at its two ends, in
// wavelength order. Claims are all-or-nothing: an exhausted pool releases
// every transponder claimed here (the sequence numbers stay spent).
// Callers hold c.mu.
func (c *Controller) claimChannelsLocked(ws []plan.Wavelength) ([]claimedChannel, error) {
	chans := make([]claimedChannel, 0, len(ws))
	for _, w := range ws {
		c.seq[w.LinkID]++
		name := fmt.Sprintf("%s:%d", w.LinkID, c.seq[w.LinkID])
		txA, err := c.devmgr.ClaimTransponder(string(w.Path.Src()), name)
		if err != nil {
			c.releasePairs(chans)
			return nil, err
		}
		txB, err := c.devmgr.ClaimTransponder(string(w.Path.Dst()), name)
		if err != nil {
			c.devmgr.ReleaseTransponder(txA)
			c.releasePairs(chans)
			return nil, err
		}
		chans = append(chans, claimedChannel{name: name, w: w, txA: txA, txB: txB})
	}
	return chans, nil
}

// releasePairs puts the channels' transponder pairs back in the pools.
func (c *Controller) releasePairs(chans []claimedChannel) {
	for _, ch := range chans {
		c.devmgr.ReleaseTransponder(ch.txA)
		c.devmgr.ReleaseTransponder(ch.txB)
	}
}

// stageChannelsLocked records freshly claimed channels' passbands in the
// intent, adding the fibers they cross to touched, and stages the change
// set in one DevMgr.CallAll round of edit-candidate: each transponder
// gets its channel's document (it was claimed fresh, so it has one) and
// the WSS of each touched fiber gets the fiber's full passband document.
// It returns the staged plan. When any device refuses or cannot be
// reached, every device of the change set is sent a discard — a lost
// reply can hide a staged document — and the claim is undone: the pairs
// go back to the pools and the passbands leave the intent, so nothing
// but the spent sequence numbers changes. Callers hold c.mu.
func (c *Controller) stageChannelsLocked(chans []claimedChannel, touched map[string]bool) (*pushPlan, error) {
	fresh := make(map[string]bool) // fibers with no document before this change set
	for _, ch := range chans {
		for _, f := range ch.w.Path.Fibers {
			if _, ok := c.wssConfig[f]; !ok {
				fresh[f] = true
			}
		}
		c.addPassbandsLocked(ch.name, ch.w, touched)
	}
	p, err := c.wssPlanLocked(touched)
	if err == nil {
		for _, ch := range chans {
			cfg := transponderConfig(ch.w, ch.name)
			p.add(ch.txA, cfg, ch.name)
			p.add(ch.txB, cfg, ch.name)
		}
		if err = c.candidateRound(p, device.OpEditCandidate); err != nil {
			if derr := c.candidateRound(p, device.OpDiscard); derr != nil {
				c.logf("controller: discarding the refused change set: %v", derr)
			}
		}
	}
	if err != nil {
		for _, ch := range chans {
			c.removePassbandsLocked(ch.name, ch.w.Path.Fibers, touched)
		}
		for f := range fresh {
			delete(c.wssConfig, f)
		}
		c.releasePairs(chans)
		return nil, err
	}
	return p, nil
}

// commitChannelsLocked adopts staged channels as live and commits the
// staged plan in one DevMgr.CallAll round. The whole fleet accepted the
// documents, so the intent is adopted even when a commit fails (a device
// that lost its candidate in a crash, or stopped answering): the first
// failure is returned, and Repair converges the straggler. Callers hold
// c.mu.
func (c *Controller) commitChannelsLocked(p *pushPlan, chans []claimedChannel) error {
	for _, ch := range chans {
		c.channels[ch.name] = &channelState{wavelength: ch.w, txA: ch.txA, txB: ch.txB}
	}
	return c.candidateRound(p, device.OpCommit)
}

// transponderConfig builds the standard config document for a wavelength.
func transponderConfig(w plan.Wavelength, channel string) devmodel.TransponderConfig {
	return devmodel.TransponderConfig{
		Enabled:       true,
		DataRateGbps:  w.Mode.DataRateGbps,
		SpacingGHz:    w.Mode.SpacingGHz,
		BaudGBd:       w.Mode.BaudGBd,
		Modulation:    w.Mode.Modulation.Name,
		FEC:           w.Mode.FEC.Name,
		IntervalStart: w.Interval.Start,
		IntervalCount: w.Interval.Count,
		PathFibers:    append([]string(nil), w.Path.Fibers...),
		Channel:       channel,
	}
}

// pushWSSLocked pushes the accumulated passband document of every fiber
// in only (of every fiber, when only is nil) to its WSS, returning the
// first failure (remaining fibers are still pushed). Callers hold c.mu.
func (c *Controller) pushWSSLocked(only map[string]bool) error {
	var firstErr error
	_, err := c.pushWSSDegradedLocked(only, func(wssID string, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("controller: configuring WSS %s: %w", wssID, err)
		}
	})
	if err != nil {
		return err
	}
	return firstErr
}

// pushWSSDegradedLocked pushes the accumulated passband document of every
// fiber in only (of every fiber, when only is nil) to its WSS — one
// document per device, all in flight together — reporting unreachable
// devices through skip (invoked in sorted device order) instead of
// aborting, and returns how many devices it pushed. A fiber with no
// registered WSS is still an error: that is a deployment wiring bug, not
// an outage. Callers hold c.mu.
func (c *Controller) pushWSSDegradedLocked(only map[string]bool, skip func(deviceID string, err error)) (int, error) {
	plan, err := c.wssPlanLocked(only)
	if err != nil {
		return 0, err
	}
	errs := c.executePush(plan)
	for _, id := range plan.devices() {
		if errs[id] != nil {
			skip(id, errs[id])
		}
	}
	return len(plan.docs), nil
}

// wssPlanLocked builds the per-WSS push plan from the accumulated
// passband intent: the WSS of each fiber in only (of every fiber, when
// only is nil) gets its fiber's full document. Callers hold c.mu.
func (c *Controller) wssPlanLocked(only map[string]bool) (*pushPlan, error) {
	plan := newPushPlan()
	for _, fiber := range c.wssFibersLocked(only) {
		wssID, cfg, err := c.wssDocLocked(fiber)
		if err != nil {
			return nil, err
		}
		plan.add(wssID, cfg, "")
	}
	return plan, nil
}

// wssFibersLocked lists, sorted, the fibers with a passband document that
// are in only (every one, when only is nil). Callers hold c.mu.
func (c *Controller) wssFibersLocked(only map[string]bool) []string {
	fibers := make([]string, 0, len(c.wssConfig))
	for f := range c.wssConfig {
		if only == nil || only[f] {
			fibers = append(fibers, f)
		}
	}
	sort.Strings(fibers)
	return fibers
}

// wssDocLocked returns the WSS of a fiber and the fiber's passband
// document, passbands in spectrum order. Callers hold c.mu.
func (c *Controller) wssDocLocked(fiber string) (string, devmodel.WSSConfig, error) {
	wssID, ok := c.devmgr.WSSForFiber(fiber)
	if !ok {
		return "", devmodel.WSSConfig{}, fmt.Errorf("controller: no WSS registered for fiber %s", fiber)
	}
	cfg := c.wssConfig[fiber]
	sort.Slice(cfg.Passbands, func(i, j int) bool { return cfg.Passbands[i].Start < cfg.Passbands[j].Start })
	return wssID, cfg, nil
}

// CurrentPlan synthesizes a plan.Result from the live channels — the
// same view restoration solves against. Drills use it to run the offline
// restoration oracle on exactly the state the controller will see.
func (c *Controller) CurrentPlan() *plan.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.currentPlanLocked()
}

// ChannelInfo describes one live channel and its hardware binding.
type ChannelInfo struct {
	Name       string
	Wavelength plan.Wavelength
	TxA, TxB   string
}

// LiveChannels returns every live channel with its wavelength and
// transponder pair, sorted by name.
func (c *Controller) LiveChannels() []ChannelInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ChannelInfo, 0, len(c.channels))
	for name, st := range c.channels {
		out = append(out, ChannelInfo{Name: name, Wavelength: st.wavelength, TxA: st.txA, TxB: st.txB})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Channels returns the live channel names, sorted.
func (c *Controller) Channels() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.channels))
	for ch := range c.channels {
		out = append(out, ch)
	}
	sort.Strings(out)
	return out
}

// LiveCapacityGbps sums the data rates of live channels per IP link.
func (c *Controller) LiveCapacityGbps() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int)
	for _, st := range c.channels {
		out[st.wavelength.LinkID] += st.wavelength.Mode.DataRateGbps
	}
	return out
}

// AuditReport is the outcome of a network-wide configuration audit.
type AuditReport struct {
	ChannelsChecked int
	// Inconsistencies lists channels whose transponder spectrum and WSS
	// passbands disagree somewhere along the path (Figure 5a failures).
	Inconsistencies []string
	// Conflicts lists fiber pixels claimed by more than one channel
	// (Figure 5b failures).
	Conflicts []string
}

// Clean reports a fully consistent, conflict-free configuration.
func (r AuditReport) Clean() bool {
	return len(r.Inconsistencies) == 0 && len(r.Conflicts) == 0
}

// Audit reads back the configuration of every device and verifies the two
// §4.3 invariants: channel consistency (the wavelength's spectrum equals
// the passband on every fiber of its path, end to end) and channel
// conflict freedom (no pixel of any fiber serves two channels). This is
// the check behind the paper's "zero spectrum inconsistency and conflict"
// operational result.
func (c *Controller) Audit() (AuditReport, error) {
	c.mu.Lock()
	channels := make(map[string]*channelState, len(c.channels))
	for k, v := range c.channels {
		channels[k] = v
	}
	c.mu.Unlock()

	var report AuditReport
	report.ChannelsChecked = len(channels)

	// Collect the read set — each distinct fiber's WSS and every channel
	// endpoint with a registered descriptor — and issue the get-config
	// reads as one wave: reads have no ordering constraint. Errors surface
	// in request order (WSSes by fiber, then transponders by ID), so a
	// dead device fails the audit deterministically.
	fibers := make([]string, 0)
	fiberSeen := make(map[string]bool)
	for _, st := range channels {
		for _, fiber := range st.wavelength.Path.Fibers {
			if !fiberSeen[fiber] {
				fiberSeen[fiber] = true
				fibers = append(fibers, fiber)
			}
		}
	}
	sort.Strings(fibers)
	txIDs := make([]string, 0, 2*len(channels))
	txSeen := make(map[string]bool)
	for _, st := range channels {
		for _, txID := range []string{st.txA, st.txB} {
			if txSeen[txID] {
				continue
			}
			txSeen[txID] = true
			if _, ok := c.devmgr.Descriptor(txID); ok {
				txIDs = append(txIDs, txID)
			}
		}
	}
	sort.Strings(txIDs)

	wssCfgs := make([]devmodel.WSSConfig, len(fibers))
	txCfgs := make([]devmodel.TransponderConfig, len(txIDs))
	reqs := make([]Request, 0, len(fibers)+len(txIDs))
	for i, fiber := range fibers {
		wssID, ok := c.devmgr.WSSForFiber(fiber)
		if !ok {
			return report, fmt.Errorf("controller: no WSS for fiber %s", fiber)
		}
		reqs = append(reqs, Request{wssID, netconf.OpGetConfig, nil, &wssCfgs[i]})
	}
	for i, id := range txIDs {
		reqs = append(reqs, Request{id, netconf.OpGetConfig, nil, &txCfgs[i]})
	}
	for _, err := range c.devmgr.CallAll(reqs, c.PushWorkers()) {
		if err != nil {
			return report, err
		}
	}
	wssCfg := make(map[string]devmodel.WSSConfig, len(fibers))
	for i, fiber := range fibers {
		wssCfg[fiber] = wssCfgs[i]
	}
	txCfg := make(map[string]devmodel.TransponderConfig, len(txIDs))
	for i, id := range txIDs {
		txCfg[id] = txCfgs[i]
	}

	names := make([]string, 0, len(channels))
	for name := range channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := channels[name]
		want := st.wavelength.Interval
		// Transponder ends must carry the same spectrum.
		consistent := true
		for _, txID := range []string{st.txA, st.txB} {
			cfg, ok := txCfg[txID]
			if !ok {
				consistent = false
				continue
			}
			if cfg.Interval() != want || !cfg.Enabled {
				consistent = false
			}
		}
		// Every fiber's WSS must pass exactly the same interval.
		for _, fiber := range st.wavelength.Path.Fibers {
			pb, ok := wssCfg[fiber].Find(name)
			if !ok || pb.Interval() != want {
				consistent = false
			}
		}
		if !consistent {
			report.Inconsistencies = append(report.Inconsistencies, name)
		}
	}

	// Conflict check: per fiber, passbands must be pairwise disjoint.
	for _, fiber := range fibers {
		pbs := wssCfg[fiber].Passbands
		for i := range pbs {
			for j := i + 1; j < len(pbs); j++ {
				if pbs[i].Interval().Overlaps(pbs[j].Interval()) {
					report.Conflicts = append(report.Conflicts,
						fmt.Sprintf("%s: %s vs %s", fiber, pbs[i].Channel, pbs[j].Channel))
				}
			}
		}
	}
	return report, nil
}

// currentPlanLocked synthesizes a plan.Result from the live channels, so
// restoration always runs against what the network is actually carrying.
// Callers hold c.mu.
func (c *Controller) currentPlanLocked() *plan.Result {
	res := &plan.Result{
		PerLink:   make(map[string]plan.LinkPlan),
		Allocator: spectrum.NewAllocatorOn(c.cfg.Grid, c.cfg.Optical.Numbering()),
	}
	names := make([]string, 0, len(c.channels))
	for name := range c.channels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := c.channels[name]
		res.Wavelengths = append(res.Wavelengths, st.wavelength)
		lp := res.PerLink[st.wavelength.LinkID]
		lp.Wavelengths++
		lp.ProvisionedGbps += st.wavelength.Mode.DataRateGbps
		res.PerLink[st.wavelength.LinkID] = lp
	}
	return res
}

// RestoreReport is the full outcome of handling one fiber event: the
// restoration result, the latency breakdown of the recovery path, and
// the devices the degraded push had to skip. The chaos drill engine
// (internal/chaos) scores recovery with these numbers.
type RestoreReport struct {
	// Event is the telemetry event that triggered the handling (zero
	// when HandleFiberCutReport was invoked directly).
	Event telemetry.Event
	// Result is the restoration outcome; nil on fiber-restored events.
	Result *restore.Result
	// SolveTime and PushTime split the recovery latency into computing
	// the restoration plan and pushing it to the hardware.
	SolveTime time.Duration
	PushTime  time.Duration
	// PushTxTime and PushWSSTime break PushTime into its two pipeline
	// phases: the concurrent transponder push (one document per device:
	// a disable, or the retune of a reused transponder) and the
	// concurrent WSS passband push.
	PushTxTime  time.Duration
	PushWSSTime time.Duration
	// PushTxDevices and PushWSSDevices count the devices each phase
	// pushed: every endpoint of a failed channel, and the WSS of every
	// fiber whose passband document the restoration changed.
	PushTxDevices  int
	PushWSSDevices int
	// SkippedDevices lists devices that stayed unreachable through the
	// retry policy during the push — the degraded-mode escape hatch:
	// restoration proceeds for every vendor that answers, and the
	// audit/Repair loop reconverges the stragglers once they return.
	SkippedDevices []string
	// PendingChannels lists channels whose intended configuration is
	// recorded but not fully pushed because an endpoint was skipped.
	PendingChannels []string
}

// Degraded reports whether any device was skipped during the push.
func (r *RestoreReport) Degraded() bool { return len(r.SkippedDevices) > 0 }

// HandleFiberCutReport runs the optical restoration module for a
// detected cut: it solves restoration against the live channels, retunes
// the affected transponder pairs onto their new paths/modes/spectrum, and
// updates the WSS passbands along both old and new paths — only there:
// documents are absolute, so a WSS whose document this handling did not
// change already holds it, and Repair, which pushes the whole fleet,
// converges one that does not. The push is degraded-mode: a device that
// stays unreachable through the retry policy is skipped and reported
// rather than aborting the restoration of every other channel; the
// controller still records the full intended state, so a later Repair
// converges the skipped devices once they come back.
func (c *Controller) HandleFiberCutReport(fiber string) (*RestoreReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.downFibers[fiber] {
		return nil, fmt.Errorf("controller: fiber %s already marked down", fiber)
	}
	c.downFibers[fiber] = true
	cut := c.cutLocked()

	rep := &RestoreReport{}
	solveStart := time.Now()
	res, err := restore.Solve(c.restoreProblemLocked(restore.Scenario{ID: "live-" + fiber, CutFibers: cut}))
	if err != nil {
		return nil, err
	}
	rep.Result = res
	rep.SolveTime = time.Since(solveStart)

	pushStart := time.Now()
	skipped := make(map[string]bool)
	skip := func(deviceID string, err error) {
		if !skipped[deviceID] {
			skipped[deviceID] = true
			rep.SkippedDevices = append(rep.SkippedDevices, deviceID)
		}
		c.logf("controller: degraded push: skipping %s: %v", deviceID, err)
	}

	// Build the full per-device document set first: teardown documents
	// for every failed channel, then retune documents for the restored
	// ones re-provisioned on their original hardware (the "spare
	// transponders whose original wavelengths are passing through the
	// cut fiber", §8). Documents are absolute, so a transponder torn down
	// and immediately retuned is sent only its retune.
	failedNames := c.failedChannelsLocked(cut)
	touched := make(map[string]bool) // fibers whose WSS document changes
	type hw struct{ txA, txB string }
	spares := make(map[string][]hw) // linkID → freed transponder pairs
	txPlan := newPushPlan()
	for _, name := range failedNames {
		// Disable both ends; a dark transponder stops alarming. An
		// unreachable end is already dark — it is skipped and reported.
		st := c.teardownLocked(name, txPlan, touched)
		spares[st.wavelength.LinkID] = append(spares[st.wavelength.LinkID], hw{st.txA, st.txB})
	}

	for _, r := range res.Restored {
		pool := spares[r.LinkID]
		if len(pool) == 0 {
			return nil, fmt.Errorf("controller: restoration for %s needs more transponders than failed", r.LinkID)
		}
		pair := pool[0]
		spares[r.LinkID] = pool[1:]
		c.seq[r.LinkID]++
		channel := fmt.Sprintf("%s:%d", r.LinkID, c.seq[r.LinkID])
		w := plan.Wavelength{
			LinkID:   r.LinkID,
			Path:     r.Path,
			Mode:     r.Mode,
			Interval: r.Interval,
		}
		cfg := transponderConfig(w, channel)
		txPlan.add(pair.txA, cfg, channel)
		txPlan.add(pair.txB, cfg, channel)
		// Record the full intent even when an endpoint ends up skipped:
		// Repair re-pushes exactly this state once the device returns.
		c.addPassbandsLocked(channel, w, touched)
		c.channels[channel] = &channelState{wavelength: w, txA: pair.txA, txB: pair.txB}
	}
	// Unused spares go back to the pool.
	for _, pool := range spares {
		for _, pair := range pool {
			c.devmgr.ReleaseTransponder(pair.txA)
			c.devmgr.ReleaseTransponder(pair.txB)
		}
	}

	// Push the transponder documents concurrently; devices that fail are
	// skipped and reported in sorted device order, and the channels they
	// should have lit are surfaced as pending for Repair to converge.
	txErrs := c.executePush(txPlan)
	var dark []Request
	for _, id := range txPlan.devices() {
		err := txErrs[id]
		if err == nil {
			continue
		}
		skip(id, err)
		var nack *netconf.RPCError
		if txPlan.docs[id].channel != "" && errors.As(err, &nack) {
			dark = append(dark, Request{id, netconf.OpEditConfig, devmodel.TransponderConfig{Enabled: false}, nil})
		}
	}
	// A reused transponder that refused its retune still runs its failed
	// channel, a laser the audit cannot attribute: send it the disable
	// document the retune replaced.
	if len(dark) > 0 {
		for i, err := range c.devmgr.CallAll(dark, c.PushWorkers()) {
			if err != nil {
				c.logf("controller: disabling %s after its refused retune: %v", dark[i].ID, err)
			}
		}
	}
	rep.PendingChannels = append(rep.PendingChannels, txPlan.pendingChannels(txErrs)...)
	rep.PushTxDevices = len(txPlan.docs)
	rep.PushTxTime = time.Since(pushStart)

	wssStart := time.Now()
	if rep.PushWSSDevices, err = c.pushWSSDegradedLocked(touched, skip); err != nil {
		return nil, err
	}
	rep.PushWSSTime = time.Since(wssStart)
	rep.PushTime = time.Since(pushStart)
	sort.Strings(rep.SkippedDevices)
	c.logf("controller: fiber %s cut — restored %d/%d Gbps over %d channels (%d devices skipped)",
		fiber, res.RestoredGbps, res.AffectedGbps, len(res.Restored), len(rep.SkippedDevices))
	c.recordLocked("restore", fmt.Sprintf("fiber %s cut: restored %d/%d Gbps over %d channels",
		fiber, res.RestoredGbps, res.AffectedGbps, len(res.Restored)))
	return rep, nil
}

// HandleFiberRestored clears the down mark of a fiber whose light came
// back — the other half of the telemetry loop, and what keeps a
// flapping fiber from polluting every later restoration solve with a
// stale cut. Channels moved off the fiber stay where they are (reversion
// is a planned maintenance action, not a reflex). It reports whether the
// fiber was marked down.
func (c *Controller) HandleFiberRestored(fiber string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.downFibers[fiber] {
		return false
	}
	delete(c.downFibers, fiber)
	c.logf("controller: fiber %s back in service", fiber)
	c.recordLocked("fiber-restored", fmt.Sprintf("fiber %s back in service", fiber))
	return true
}

// failedChannelsLocked lists channels whose path crosses any cut fiber.
func (c *Controller) failedChannelsLocked(cut []string) []string {
	cutSet := make(map[string]bool, len(cut))
	for _, f := range cut {
		cutSet[f] = true
	}
	var out []string
	for name, st := range c.channels {
		for _, f := range st.wavelength.Path.Fibers {
			if cutSet[f] {
				out = append(out, name)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// teardownLocked drops a live channel from the intent: its passband
// leaves the document of every fiber it crossed (each marked in touched),
// and both of its transponders get a disable document in txPlan. It
// returns the channel's state; the caller decides what becomes of the
// pair. Callers hold c.mu.
func (c *Controller) teardownLocked(name string, txPlan *pushPlan, touched map[string]bool) *channelState {
	st := c.channels[name]
	c.removePassbandsLocked(name, st.wavelength.Path.Fibers, touched)
	delete(c.channels, name)
	off := devmodel.TransponderConfig{Enabled: false}
	txPlan.add(st.txA, off, "")
	txPlan.add(st.txB, off, "")
	return st
}

// removePassbandsLocked strips the channel's passband from the given
// fibers' documents, marking each fiber in touched. Callers hold c.mu.
func (c *Controller) removePassbandsLocked(channel string, fibers []string, touched map[string]bool) {
	for _, f := range fibers {
		wc := c.wssConfig[f]
		kept := wc.Passbands[:0]
		for _, pb := range wc.Passbands {
			if pb.Channel != channel {
				kept = append(kept, pb)
			}
		}
		wc.Passbands = kept
		c.wssConfig[f] = wc
		touched[f] = true
	}
}

// addPassbandsLocked records the channel's passband in the document of
// every fiber on its path, marking each in touched when touched is not
// nil. Callers hold c.mu.
func (c *Controller) addPassbandsLocked(channel string, w plan.Wavelength, touched map[string]bool) {
	for _, f := range w.Path.Fibers {
		wc := c.wssConfig[f]
		wc.Passbands = append(wc.Passbands, devmodel.Passband{
			Channel: channel, Start: w.Interval.Start, Count: w.Interval.Count,
		})
		c.wssConfig[f] = wc
		if touched != nil {
			touched[f] = true
		}
	}
}

// cutLocked lists, sorted, the fibers marked down together with extra.
// Callers hold c.mu.
func (c *Controller) cutLocked(extra ...string) []string {
	cut := make([]string, 0, len(c.downFibers)+len(extra))
	for f := range c.downFibers {
		cut = append(cut, f)
	}
	cut = append(cut, extra...)
	sort.Strings(cut)
	return slices.Compact(cut)
}

// restoreProblemLocked is the restoration instance for a scenario, solved
// against a plan rebuilt from the live channels. Callers hold c.mu.
func (c *Controller) restoreProblemLocked(sc restore.Scenario) restore.Problem {
	return restore.Problem{
		Optical:  c.cfg.Optical,
		IP:       c.cfg.IP,
		Catalog:  c.cfg.Catalog,
		Grid:     c.cfg.Grid,
		Base:     c.currentPlanLocked(),
		Scenario: sc,
		K:        c.cfg.K,
	}
}

// WatchContext consumes fiber events from the data stream and drives
// restoration until the events channel closes or the context is
// cancelled — the cancellable form drills and operator tooling use to
// shut the loop down without leaking the goroutine. Fiber-cut events run
// HandleFiberCutReport; fiber-restored events clear the down mark. Each
// handled event produces one report through the callback (which may be
// nil); fiber-restored reports carry a nil Result.
func (c *Controller) WatchContext(ctx context.Context, events <-chan telemetry.Event, onReport func(*RestoreReport)) {
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			switch ev.Kind {
			case "fiber-cut":
				rep, err := c.HandleFiberCutReport(ev.Fiber)
				if err != nil {
					c.logf("controller: restoration for %s failed: %v", ev.Fiber, err)
					continue
				}
				rep.Event = ev
				if onReport != nil {
					onReport(rep)
				}
			case "fiber-restored":
				if !c.HandleFiberRestored(ev.Fiber) {
					continue
				}
				if onReport != nil {
					onReport(&RestoreReport{Event: ev})
				}
			}
		}
	}
}
