// Package core is FlexWAN's service layer: a long-lived Backbone object
// that owns the network state (topologies, catalog, spectrum occupancy,
// live wavelengths) and exposes the lifecycle operations an operator
// performs over years of production (§9 of the paper) — initial planning,
// incremental capacity growth, link decommissioning, failure what-ifs,
// and utilization reporting. The controller package drives devices; core
// drives *decisions* and keeps them consistent.
package core

import (
	"fmt"
	"sort"
	"sync"

	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// Config assembles a backbone.
type Config struct {
	Optical *topology.Optical
	IP      *topology.IPTopology
	Catalog transponder.Catalog
	Grid    spectrum.Grid
	K       int
	Epsilon float64
	Fit     spectrum.Fit
}

// Backbone is the FlexWAN network state machine. All methods are safe for
// concurrent use.
type Backbone struct {
	mu      sync.Mutex
	problem plan.Problem
	result  *plan.Result
	planned bool
}

// New validates the configuration and returns an unplanned backbone.
func New(cfg Config) (*Backbone, error) {
	p := plan.Problem{
		Optical: cfg.Optical,
		IP:      cfg.IP,
		Catalog: cfg.Catalog,
		Grid:    cfg.Grid,
		K:       cfg.K,
		Epsilon: cfg.Epsilon,
		Fit:     cfg.Fit,
	}
	// Run the same validation planning would, so construction fails fast.
	if _, err := plan.Solve(plan.Problem{
		Optical: cfg.Optical, IP: &topology.IPTopology{}, Catalog: cfg.Catalog,
		Grid: cfg.Grid, K: cfg.K, Epsilon: cfg.Epsilon, Fit: cfg.Fit,
	}); err != nil {
		return nil, err
	}
	return &Backbone{problem: p}, nil
}

// Plan provisions every IP demand from scratch (Algorithm 1 heuristic)
// and adopts the result as the live state. Planning twice replaces the
// state, as the paper's infrequent offline replans do.
func (b *Backbone) Plan() (*plan.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	res, err := plan.Solve(b.problem)
	if err != nil {
		return nil, err
	}
	if err := plan.Verify(b.problem, res); err != nil {
		return nil, fmt.Errorf("core: self-check failed: %w", err)
	}
	b.result = res
	b.planned = true
	return res, nil
}

// Result returns the live planning state.
func (b *Backbone) Result() (*plan.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.planned {
		return nil, fmt.Errorf("core: backbone not planned yet")
	}
	return b.result, nil
}

// GrowDemand adds capacity to an existing IP link incrementally: live
// wavelengths are untouched; only new channels are provisioned (§9 smooth
// evolution). It returns the newly provisioned wavelengths.
func (b *Backbone) GrowDemand(linkID string, extraGbps int) ([]plan.Wavelength, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.planned {
		return nil, fmt.Errorf("core: backbone not planned yet")
	}
	for i := range b.problem.IP.Links {
		if b.problem.IP.Links[i].ID == linkID {
			added, err := plan.Extend(b.problem, b.result, linkID, extraGbps)
			if err != nil {
				return nil, err
			}
			b.problem.IP.Links[i].DemandGbps += extraGbps
			return added, nil
		}
	}
	return nil, fmt.Errorf("core: unknown IP link %s", linkID)
}

// AddLink introduces a new IP link and provisions its demand.
func (b *Backbone) AddLink(l topology.IPLink) ([]plan.Wavelength, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.planned {
		return nil, fmt.Errorf("core: backbone not planned yet")
	}
	if err := b.problem.IP.AddLink(l); err != nil {
		return nil, err
	}
	added, err := plan.Extend(b.problem, b.result, l.ID, l.DemandGbps)
	if err != nil {
		return nil, err
	}
	// Extend records demand growth on top of the (zero) base; fix the
	// per-link demand to the declared value.
	lp := b.result.PerLink[l.ID]
	lp.DemandGbps = l.DemandGbps
	b.result.PerLink[l.ID] = lp
	return added, nil
}

// RemoveLink decommissions an IP link, releasing all its spectrum. It
// returns the number of transponder pairs freed.
func (b *Backbone) RemoveLink(linkID string) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.planned {
		return 0, fmt.Errorf("core: backbone not planned yet")
	}
	freed, err := plan.Decommission(b.result, linkID)
	if err != nil {
		return freed, err
	}
	kept := b.problem.IP.Links[:0]
	for _, l := range b.problem.IP.Links {
		if l.ID != linkID {
			kept = append(kept, l)
		}
	}
	b.problem.IP.Links = kept
	return freed, nil
}

// restoreProblem is the planned backbone as a restoration instance.
func (b *Backbone) restoreProblem() restore.Problem {
	return restore.Problem{
		Optical: b.problem.Optical,
		IP:      b.problem.IP,
		Catalog: b.problem.Catalog,
		Grid:    b.problem.Grid,
		Base:    b.result,
		K:       b.problem.K,
		Fit:     b.problem.Fit,
	}
}

// WhatIfCut evaluates (without changing live state) how much capacity the
// backbone would revive if the given fibers were cut — the offline
// restoration pre-computation of §4.4 ("the restoration plan for each
// fiber cut scenario can be produced offline").
func (b *Backbone) WhatIfCut(fiberIDs ...string) (*restore.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.planned {
		return nil, fmt.Errorf("core: backbone not planned yet")
	}
	p := b.restoreProblem()
	p.Scenario = restore.Scenario{ID: "what-if", CutFibers: fiberIDs}
	return restore.Solve(p)
}

// PrecomputeRestoration builds the offline restoration playbook: one plan
// per scenario, keyed by scenario ID, solved as one sweep over the
// backbone's plan. It fails on the first scenario, in input order, that
// cannot be solved.
func (b *Backbone) PrecomputeRestoration(scenarios []restore.Scenario) (map[string]*restore.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.planned {
		return nil, fmt.Errorf("core: backbone not planned yet")
	}
	// The sweep's own error says only that it was cancelled (it is not) or
	// that every scenario failed (then Errors has the first).
	sweep, _ := restore.Sweep(b.restoreProblem(), scenarios)
	if len(sweep.Errors) > 0 {
		first := sweep.Errors[0]
		return nil, fmt.Errorf("core: scenario %s: %w", first.ID, first.Err)
	}
	out := make(map[string]*restore.Result, len(scenarios))
	for _, res := range sweep.Results {
		out[res.Scenario.ID] = res
	}
	return out, nil
}

// FiberUtilization is one fiber's spectrum occupancy.
type FiberUtilization struct {
	FiberID       string
	UsedGHz       float64
	TotalGHz      float64
	Fragmentation float64
}

// Utilization reports per-fiber spectrum occupancy, sorted by fiber ID —
// the view an operator watches to decide when to light new fiber (§3.2).
func (b *Backbone) Utilization() ([]FiberUtilization, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.planned {
		return nil, fmt.Errorf("core: backbone not planned yet")
	}
	grid := b.problem.Grid
	var out []FiberUtilization
	for _, f := range b.problem.Optical.Fibers() {
		m := b.result.Allocator.FiberMap(spectrum.FiberID(f.ID))
		out = append(out, FiberUtilization{
			FiberID:       f.ID,
			UsedGHz:       float64(m.UsedPixels()) * grid.PixelGHz,
			TotalGHz:      grid.WidthGHz(),
			Fragmentation: m.Fragmentation(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FiberID < out[j].FiberID })
	return out, nil
}

// BottleneckFiber returns the most occupied fiber — the one that will
// decide the maximum supportable capacity scale.
func (b *Backbone) BottleneckFiber() (FiberUtilization, error) {
	utils, err := b.Utilization()
	if err != nil {
		return FiberUtilization{}, err
	}
	var best FiberUtilization
	for _, u := range utils {
		if u.UsedGHz > best.UsedGHz {
			best = u
		}
	}
	return best, nil
}

// Headroom estimates how much further every demand could scale before the
// bottleneck fiber exhausts, assuming proportional growth: a cheap,
// conservative version of the Fig. 12 max-scale search.
func (b *Backbone) Headroom() (float64, error) {
	bottleneck, err := b.BottleneckFiber()
	if err != nil {
		return 0, err
	}
	if bottleneck.UsedGHz == 0 {
		return 0, fmt.Errorf("core: no spectrum in use")
	}
	return bottleneck.TotalGHz / bottleneck.UsedGHz, nil
}
