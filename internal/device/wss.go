package device

import (
	"encoding/json"
	"fmt"
	"sync"

	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/spectrum"
)

// WSS is a simulated wavelength selective switch — the filtering element
// inside a MUX or ROADM. A pixel-wise (LCoS) WSS accepts any passband
// aligned to the pixel grid (§4.2's spectrum-sliced OLS); a legacy
// fixed-grid vendor only accepts passbands that start and end on its
// rigid grid, which is how the reproduction models the hardware FlexWAN
// replaces.
type WSS struct {
	desc devmodel.Descriptor
	grid spectrum.Grid
	// fixedGridGHz, when nonzero, constrains every passband to the rigid
	// grid: width and start must be multiples of it.
	fixedGridGHz float64
	srv          *netconf.Server

	mu     sync.Mutex
	config devmodel.WSSConfig

	candidate candidate[devmodel.WSSConfig]
}

// NewWSS builds a pixel-wise WSS agent for one fiber's spectrum.
func NewWSS(desc devmodel.Descriptor, grid spectrum.Grid) *WSS {
	w := &WSS{desc: desc, grid: grid}
	w.srv = netconf.NewServer(desc, w.handle)
	return w
}

// NewFixedGridWSS builds a legacy rigid-grid WSS agent (e.g. 75 GHz).
func NewFixedGridWSS(desc devmodel.Descriptor, grid spectrum.Grid, gridGHz float64) *WSS {
	w := &WSS{desc: desc, grid: grid, fixedGridGHz: gridGHz}
	w.srv = netconf.NewServer(desc, w.handle)
	return w
}

// Start listens on addr and returns the bound management address.
func (w *WSS) Start(addr string) (string, error) {
	bound, err := w.srv.Listen(addr)
	if err != nil {
		return "", err
	}
	w.mu.Lock()
	w.desc.Address = bound
	w.mu.Unlock()
	return bound, nil
}

// Close shuts the management endpoint down.
func (w *WSS) Close() { w.srv.Close() }

// Server exposes the management endpoint so fault injectors can wrap its
// RPC handling.
func (w *WSS) Server() *netconf.Server { return w.srv }

// Descriptor returns the device's identity document.
func (w *WSS) Descriptor() devmodel.Descriptor {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.desc
}

// Config returns the currently applied passband set.
func (w *WSS) Config() devmodel.WSSConfig {
	w.mu.Lock()
	defer w.mu.Unlock()
	cfg := devmodel.WSSConfig{Passbands: append([]devmodel.Passband(nil), w.config.Passbands...)}
	return cfg
}

func (w *WSS) handle(op string, payload json.RawMessage) (interface{}, error) {
	if handled, err := w.candidate.handleCandidateOp(op, payload, w.decode, w.configure); handled {
		return nil, err
	}
	switch op {
	case netconf.OpGetConfig, netconf.OpGetState:
		return w.Config(), nil
	case netconf.OpEditConfig:
		var cfg devmodel.WSSConfig
		if err := json.Unmarshal(payload, &cfg); err != nil {
			return nil, fmt.Errorf("device: bad WSS config: %w", err)
		}
		return nil, w.configure(cfg)
	default:
		return nil, fmt.Errorf("device: unknown op %q", op)
	}
}

// checkConfig validates a passband set against the grid and the vendor's
// grid restriction, with no side effects.
func (w *WSS) checkConfig(cfg devmodel.WSSConfig) error {
	if err := cfg.Validate(w.grid); err != nil {
		return err
	}
	if w.fixedGridGHz > 0 {
		for _, p := range cfg.Passbands {
			if err := w.checkFixedGrid(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// decode parses and validates a passband set.
func (w *WSS) decode(payload json.RawMessage) (devmodel.WSSConfig, error) {
	var cfg devmodel.WSSConfig
	if err := json.Unmarshal(payload, &cfg); err != nil {
		return cfg, fmt.Errorf("device: bad WSS config: %w", err)
	}
	return cfg, w.checkConfig(cfg)
}

// configure validates and installs a passband set.
func (w *WSS) configure(cfg devmodel.WSSConfig) error {
	if err := w.checkConfig(cfg); err != nil {
		return err
	}
	w.mu.Lock()
	w.config = cfg
	w.mu.Unlock()
	return nil
}

// HasStagedConfig reports whether a candidate document is staged.
func (w *WSS) HasStagedConfig() bool { return w.candidate.HasStaged() }

// checkFixedGrid enforces the rigid-grid vendor restriction.
func (w *WSS) checkFixedGrid(p devmodel.Passband) error {
	pixelsPerGrid := w.fixedGridGHz / w.grid.PixelGHz
	if pixelsPerGrid != float64(int(pixelsPerGrid)) {
		return fmt.Errorf("device: fixed grid %v GHz not pixel-aligned", w.fixedGridGHz)
	}
	n := int(pixelsPerGrid)
	if p.Start%n != 0 || p.Count != n {
		return fmt.Errorf("device: %s (%s) is fixed-grid %v GHz: passband %s [%d,+%d) rejected",
			w.desc.ID, w.desc.Vendor, w.fixedGridGHz, p.Channel, p.Start, p.Count)
	}
	return nil
}

// PassesInterval reports whether the WSS currently passes the entire
// interval — the signal survives this hop only if some passband covers
// its spectrum. A partially covered signal is clipped and lost (channel
// inconsistency, Figure 5a).
func (w *WSS) PassesInterval(iv spectrum.Interval) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range w.config.Passbands {
		if p.Start <= iv.Start && iv.End() <= p.Interval().End() {
			return true
		}
	}
	return false
}
