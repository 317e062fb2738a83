package device

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
)

// Transponder is a simulated optical transponder agent. Its vendor
// capability is the transponder.Catalog it was built with: an SVT vendor
// accepts every Table 2 mode, a RADWAN vendor only the three fixed-spacing
// BVT modes. Configuration outside the catalog is rejected at
// edit-config time, as real hardware NACKs an unsupported Yang document.
type Transponder struct {
	desc    devmodel.Descriptor
	grid    spectrum.Grid
	catalog transponder.Catalog
	fabric  *Fabric
	srv     *netconf.Server

	mu     sync.Mutex
	config devmodel.TransponderConfig
	los    bool

	candidate candidate[devmodel.TransponderConfig]
}

// NewTransponder builds the agent. Call Start to expose it on the
// management network.
func NewTransponder(desc devmodel.Descriptor, grid spectrum.Grid, catalog transponder.Catalog, fabric *Fabric) *Transponder {
	t := &Transponder{desc: desc, grid: grid, catalog: catalog, fabric: fabric}
	t.srv = netconf.NewServer(desc, t.handle)
	fabric.OnChange(t.onFiberChange)
	return t
}

// Start listens on addr (use "127.0.0.1:0") and returns the bound
// management address, recorded into the descriptor.
func (t *Transponder) Start(addr string) (string, error) {
	bound, err := t.srv.Listen(addr)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	t.desc.Address = bound
	t.mu.Unlock()
	return bound, nil
}

// Close shuts the management endpoint down.
func (t *Transponder) Close() { t.srv.Close() }

// Server exposes the management endpoint so fault injectors can wrap its
// RPC handling.
func (t *Transponder) Server() *netconf.Server { return t.srv }

// Crash simulates a power loss: every management session drops and the
// volatile state — running and candidate configuration, alarm latch — is
// lost, exactly as a cold transponder boots unconfigured.
func (t *Transponder) Crash() {
	t.srv.Stop()
	t.mu.Lock()
	t.config = devmodel.TransponderConfig{}
	t.los = false
	t.mu.Unlock()
	t.candidate.clear()
}

// Restart brings a crashed transponder back on its previous management
// address. Its configuration is still empty — the controller's Repair
// pass detects the divergence and re-pushes the intended document.
func (t *Transponder) Restart() error {
	t.mu.Lock()
	addr := t.desc.Address
	t.mu.Unlock()
	_, err := t.srv.Listen(addr)
	return err
}

// Descriptor returns the device's identity document.
func (t *Transponder) Descriptor() devmodel.Descriptor {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.desc
}

func (t *Transponder) handle(op string, payload json.RawMessage) (interface{}, error) {
	if handled, err := t.candidate.handleCandidateOp(op, payload, t.decode, t.Configure); handled {
		return nil, err
	}
	switch op {
	case netconf.OpGetConfig:
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.config, nil
	case netconf.OpEditConfig:
		var cfg devmodel.TransponderConfig
		if err := json.Unmarshal(payload, &cfg); err != nil {
			return nil, fmt.Errorf("device: bad transponder config: %w", err)
		}
		return nil, t.Configure(cfg)
	case netconf.OpGetState:
		return t.State(), nil
	default:
		return nil, fmt.Errorf("device: unknown op %q", op)
	}
}

// checkConfig is the validation half of Configure: grid consistency and
// vendor capability, with no side effects.
func (t *Transponder) checkConfig(cfg devmodel.TransponderConfig) error {
	if err := cfg.Validate(t.grid); err != nil {
		return err
	}
	if cfg.Enabled {
		if _, ok := t.findMode(cfg); !ok {
			return fmt.Errorf("device: %s (%s) does not support %dG at %v GHz",
				t.desc.ID, t.catalog.Name, cfg.DataRateGbps, cfg.SpacingGHz)
		}
	}
	return nil
}

// Configure validates and applies a configuration document — the same
// semantics as an edit-config RPC, callable in-process (the simulated §6
// testbed drives thousands of configurations through it).
func (t *Transponder) Configure(cfg devmodel.TransponderConfig) error {
	if err := t.checkConfig(cfg); err != nil {
		return err
	}
	t.mu.Lock()
	t.config = cfg
	t.los = false // re-evaluated on next state read
	t.mu.Unlock()
	return nil
}

// decode parses and validates a configuration document: the
// edit-candidate half of Configure.
func (t *Transponder) decode(payload json.RawMessage) (devmodel.TransponderConfig, error) {
	var cfg devmodel.TransponderConfig
	if err := json.Unmarshal(payload, &cfg); err != nil {
		return cfg, fmt.Errorf("device: bad transponder config: %w", err)
	}
	return cfg, t.checkConfig(cfg)
}

// HasStagedConfig reports whether a candidate document is staged.
func (t *Transponder) HasStagedConfig() bool { return t.candidate.HasStaged() }

// findMode matches the configured (rate, spacing) against the vendor
// catalog.
func (t *Transponder) findMode(cfg devmodel.TransponderConfig) (transponder.Mode, bool) {
	for _, m := range t.catalog.Modes {
		if m.DataRateGbps == cfg.DataRateGbps && math.Abs(m.SpacingGHz-cfg.SpacingGHz) < 1e-9 {
			return m, true
		}
	}
	return transponder.Mode{}, false
}

// State evaluates the transponder's standard state document against the
// fabric: received OSNR over the configured circuit, pre-FEC BER from the
// constellation, and post-FEC BER zero exactly when the OSNR meets the
// mode's datasheet threshold — the §6 testbed observable.
func (t *Transponder) State() devmodel.TransponderState {
	t.mu.Lock()
	cfg := t.config
	t.mu.Unlock()

	st := devmodel.TransponderState{Config: cfg}
	if !cfg.Enabled {
		st.LossOfSignal = false
		st.RxPowerDBm = -60
		return st
	}
	_, osnr, los := t.fabric.PathState(cfg.PathFibers)
	if los {
		st.LossOfSignal = true
		st.RxPowerDBm = -60
		st.PreFECBER = 0.5
		st.PostFECBER = 0.5
		return st
	}
	link := t.fabric.Link()
	st.RxOSNRdB = osnr
	st.RxPowerDBm = link.LaunchPowerDBm

	mode, ok := t.findMode(cfg)
	if !ok {
		// Config slipped past validation (disabled-then-enabled race):
		// report an uncorrectable signal.
		st.PreFECBER = 0.5
		st.PostFECBER = 0.5
		return st
	}
	snr := phy.FromDB(osnr + 10*math.Log10(phy.RefNoiseBandwidthGHz/mode.BaudGBd))
	st.PreFECBER = phy.PreFECBER(mode.Modulation, snr)
	if osnr+1e-9 >= mode.RequiredOSNRdB(link) {
		st.PostFECBER = 0
	} else {
		// The decoder collapses: residual errors leak through.
		st.PostFECBER = math.Max(st.PreFECBER, 1e-6)
	}
	return st
}

// onFiberChange raises or clears a loss-of-signal alarm when a fiber on
// the configured circuit flips state.
func (t *Transponder) onFiberChange(fiberID string, cut bool) {
	t.mu.Lock()
	cfg := t.config
	affected := false
	for _, f := range cfg.PathFibers {
		if f == fiberID {
			affected = true
			break
		}
	}
	if !affected || !cfg.Enabled {
		t.mu.Unlock()
		return
	}
	changed := t.los != cut
	t.los = cut
	id := t.desc.ID
	t.mu.Unlock()
	if !changed {
		return
	}
	kind := "los"
	if !cut {
		kind = "los-clear"
	}
	t.srv.Notify(Alarm{Device: id, Kind: kind, Fiber: fiberID})
}
