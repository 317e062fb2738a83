package chaos

import (
	"fmt"
	"sync"
	"time"

	"flexwan/internal/controller"
	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/telemetry"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// Options tunes testbed construction.
type Options struct {
	// SparesPerSite adds headroom transponders beyond what the plan
	// needs (default 2).
	SparesPerSite int
	// CollectInterval is the telemetry polling period (default 25ms —
	// drills want sub-second detection without waiting on the paper's
	// one-second production granularity).
	CollectInterval time.Duration
	// K is the candidate-path count for planning and restoration
	// (default 3).
	K int
	// Dial overrides the controller's session timeouts. Drills shorten
	// CallTimeout (default here 250ms) so dropped RPCs surface as
	// retries quickly instead of hanging for the production 5s.
	Dial netconf.DialOptions
	// Retry overrides the controller's per-RPC retry policy.
	Retry *controller.RetryPolicy
	// PushWorkers bounds the controller's config-push fan-out: 0 (the
	// default) pushes every device pipeline concurrently, 1 is the
	// legacy serial path (the ablation baseline), n > 1 a bounded pool.
	// Worker count never changes a drill's event log — each device sees
	// one RPC per push phase regardless of scheduling.
	PushWorkers int
	// ConfigStore, when non-nil, is attached to the controller before
	// the plan is applied, so the testbed's Apply and every drill
	// restoration leave audit versions in it — the service wires one
	// shared store across drill testbeds this way.
	ConfigStore controller.ConfigStore
	// Actor names the audit identity recorded on config versions (only
	// meaningful with ConfigStore; default "controller").
	Actor string
	// Logf receives controller log lines (nil silences them).
	Logf func(format string, args ...interface{})
}

// Testbed is a fully deployed control plane on loopback TCP: fabric,
// device agents, controller with the plan applied, and a telemetry
// collector wired to every transponder and amplifier.
type Testbed struct {
	Net       workload.Network
	Grid      spectrum.Grid
	K         int
	Fabric    *device.Fabric
	Ctrl      *controller.Controller
	Plan      *plan.Result
	Store     *telemetry.Store
	Collector *telemetry.Collector

	// Transponders indexes the transponder agents by device ID — the
	// crash/restart handles.
	Transponders map[string]*device.Transponder

	servers map[string]*netconf.Server
	// closers holds every started agent's Close.
	closers []func()
}

// NewTestbed deploys the network as live agents and applies the plan.
// The collector is built but not started; Run starts it.
func NewTestbed(n workload.Network, opts Options) (*Testbed, error) {
	grid := spectrum.DefaultGrid()
	k := opts.K
	if k <= 0 {
		k = 3
	}
	fabric := device.NewFabric(phy.DefaultLink())
	for _, f := range n.Optical.Fibers() {
		if err := fabric.AddFiber(f.ID, f.LengthKm); err != nil {
			return nil, err
		}
	}
	ctrl, err := controller.New(controller.Config{
		Optical: n.Optical, IP: n.IP, Catalog: transponder.SVT(), Grid: grid, K: k,
		Logf: opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	dial := opts.Dial
	if dial.DialTimeout == 0 {
		dial.DialTimeout = 2 * time.Second
	}
	if dial.CallTimeout == 0 {
		dial.CallTimeout = 250 * time.Millisecond
	}
	ctrl.DevMgr().SetDialOptions(dial)
	if opts.Retry != nil {
		ctrl.DevMgr().SetRetryPolicy(*opts.Retry)
	}
	ctrl.SetPushWorkers(opts.PushWorkers)
	if opts.ConfigStore != nil {
		ctrl.SetConfigStore(opts.ConfigStore)
	}
	if opts.Actor != "" {
		ctrl.SetActor(opts.Actor)
	}

	tb := &Testbed{
		Net: n, Grid: grid, K: k, Fabric: fabric, Ctrl: ctrl,
		Transponders: make(map[string]*device.Transponder),
		servers:      make(map[string]*netconf.Server),
	}
	res, err := ctrl.PlanNetwork()
	if err != nil {
		tb.Close()
		return nil, err
	}
	if !res.Feasible() {
		tb.Close()
		return nil, fmt.Errorf("chaos: plan infeasible, unserved %v", res.Unserved)
	}
	tb.Plan = res

	// Size the per-site transponder pools from the plan, plus spares.
	spares := opts.SparesPerSite
	if spares <= 0 {
		spares = 2
	}
	need := map[string]int{}
	for _, w := range res.Wavelengths {
		need[string(w.Path.Src())]++
		need[string(w.Path.Dst())]++
	}
	// Every agent starts, then the whole fleet registers in one wave. The
	// collector watches the transponders and amplifiers over the sessions
	// the device manager registered: one session per agent.
	var fleet, watched []devmodel.Descriptor
	start := func(desc devmodel.Descriptor, agent interface {
		Start(string) (string, error)
		Close()
		Server() *netconf.Server
	}) error {
		addr, err := agent.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		tb.closers = append(tb.closers, agent.Close)
		tb.servers[desc.ID] = agent.Server()
		desc.Address = addr
		fleet = append(fleet, desc)
		if desc.Class != devmodel.ClassWSS {
			watched = append(watched, desc)
		}
		return nil
	}
	for _, site := range n.Optical.Nodes() {
		count := need[string(site)] + spares
		for i := 0; i < count; i++ {
			desc := devmodel.Descriptor{
				ID: fmt.Sprintf("tx-%s-%02d", site, i), Class: devmodel.ClassTransponder,
				Vendor: "vendorA", Address: "pending", Site: string(site),
			}
			agent := device.NewTransponder(desc, grid, transponder.SVT(), fabric)
			if err := start(desc, agent); err != nil {
				tb.Close()
				return nil, err
			}
			tb.Transponders[desc.ID] = agent
		}
	}
	for _, f := range n.Optical.Fibers() {
		wdesc := devmodel.Descriptor{
			ID: "wss-" + f.ID, Class: devmodel.ClassWSS,
			Vendor: "vendorB", Address: "pending", Site: string(f.A), Fiber: f.ID,
		}
		if err := start(wdesc, device.NewWSS(wdesc, grid)); err != nil {
			tb.Close()
			return nil, err
		}
		// One amplifier per fiber: the localized LOS detector the
		// collector turns into fiber-cut events.
		adesc := devmodel.Descriptor{
			ID: "amp-" + f.ID, Class: devmodel.ClassAmplifier,
			Vendor: "vendorC", Address: "pending", Site: string(f.A), Fiber: f.ID,
		}
		if err := start(adesc, device.NewAmplifier(adesc, fabric, f.ID)); err != nil {
			tb.Close()
			return nil, err
		}
	}
	for _, err := range ctrl.DevMgr().RegisterAll(fleet) {
		if err != nil {
			tb.Close()
			return nil, err
		}
	}

	if err := ctrl.Apply(res); err != nil {
		tb.Close()
		return nil, err
	}

	interval := opts.CollectInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	tb.Store = telemetry.NewStore(4096)
	tb.Collector = telemetry.NewCollector(tb.Store, interval, watched, ctrl.DevMgr())
	tb.Collector.RedialInterval = interval
	return tb, nil
}

// BindInjector installs the injector on every device server.
func (tb *Testbed) BindInjector(in *Injector) {
	for id, srv := range tb.servers {
		in.Bind(id, srv)
	}
}

// Close stops the collector, hangs up the controller's sessions, then
// stops every agent at once. The controller hangs up first so that each
// connection's TIME_WAIT lands on its ephemeral port: left on an agent's
// listening port, thousands of them make every later Listen on port 0
// walk past them in bind.
func (tb *Testbed) Close() {
	if tb.Collector != nil {
		tb.Collector.Stop()
	}
	tb.Ctrl.Close()
	var wg sync.WaitGroup
	for _, stop := range tb.closers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop()
		}()
	}
	wg.Wait()
	tb.closers = nil
}

// RingNetwork builds an n-node ring with one IP link per adjacency —
// the smallest topology with restoration diversity: every pair has a
// second, long-way-around path for the retuned wavelengths.
func RingNetwork(nodes int, spacingKm float64, demandGbps int) workload.Network {
	if nodes < 3 {
		nodes = 3
	}
	g := topology.New()
	ip := &topology.IPTopology{}
	name := func(i int) topology.NodeID {
		return topology.NodeID(fmt.Sprintf("r%02d", i%nodes))
	}
	for i := 0; i < nodes; i++ {
		g.AddNode(name(i))
	}
	for i := 0; i < nodes; i++ {
		if err := g.AddFiber(fmt.Sprintf("rfib%02d", i), name(i), name(i+1), spacingKm); err != nil {
			panic(err)
		}
		if err := ip.AddLink(topology.IPLink{
			ID: fmt.Sprintf("rl%02d", i), A: name(i), B: name(i + 1),
			DemandGbps: demandGbps,
		}); err != nil {
			panic(err)
		}
	}
	return workload.Network{Name: fmt.Sprintf("ring%d", nodes), Optical: g, IP: ip}
}
