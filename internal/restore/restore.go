// Package restore implements FlexWAN's optical restoration (§8 of the
// paper): after a fiber cut, reconfigure the affected wavelengths onto
// healthy fibers so as to maximize the total restored capacity,
//
//	maximize  Σ d·λ'
//
// subject to
//
//	(7) restored capacity per link ≤ its affected capacity,
//	(8) transponders used ≤ the link's spare transponders (those whose
//	    wavelengths crossed the cut fiber, plus any pre-provisioned
//	    spares — the FlexWAN+ variant),
//	(9) restored channels fit in the spectrum left spare after planning,
//	(10–13) the reach/consistency/status/count constraints of Algorithm 1
//	        applied to the restoration paths.
//
// Like package plan, restoration ships both the exact MIP (SolveExact)
// and the scalable heuristic (Solve) used for full failure sweeps.
package restore

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"flexwan/internal/parallel"
	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// Scenario is one failure case from the link failure model: a set of
// simultaneously cut fibers with an occurrence probability (the paper's
// deterministic 1-failures have Probability 1/N each; probabilistic
// scenarios carry model weights).
type Scenario struct {
	ID          string
	CutFibers   []string
	Probability float64
}

// SingleFiberScenarios enumerates all 1-failure scenarios of the
// topology, each equally probable — the deterministic k=1 failure model
// the paper evaluates.
func SingleFiberScenarios(g *topology.Optical) []Scenario {
	fibers := g.Fibers()
	out := make([]Scenario, len(fibers))
	for i, f := range fibers {
		out[i] = Scenario{
			ID:          "cut-" + f.ID,
			CutFibers:   []string{f.ID},
			Probability: 1 / float64(len(fibers)),
		}
	}
	return out
}

// Problem is one restoration instance: the planned backbone, the failure,
// and the hardware family available for retuning.
type Problem struct {
	Optical *topology.Optical
	IP      *topology.IPTopology
	Catalog transponder.Catalog
	Grid    spectrum.Grid
	// Base is the network-planning result the backbone currently runs
	// (restoration operates on the configured backbone, §8).
	Base *plan.Result
	// Scenario is the fiber-cut case to restore.
	Scenario Scenario
	// K is the number of candidate restoration paths per affected link.
	K int
	// ExtraSpares adds pre-provisioned spare transponder pairs per IP
	// link on top of the affected ones — the FlexWAN+ variant (§8 gives
	// each link half of its saved transponders as spares).
	ExtraSpares map[string]int
	// Fit selects the spectrum placement strategy of the heuristic.
	Fit spectrum.Fit
}

func (p Problem) k() int {
	if p.K <= 0 {
		return plan.DefaultK
	}
	return p.K
}

// Restored is one re-established channel.
type Restored struct {
	LinkID string
	// Original is the failed wavelength being revived.
	Original plan.Wavelength
	// Path is the restoration path in the post-failure topology.
	Path topology.Path
	// Mode is the (possibly re-modulated) format on the new path.
	Mode transponder.Mode
	// Interval is the spectrum it now occupies.
	Interval spectrum.Interval
}

// PathStretch returns restoredLength/originalLength — the paper's Fig. 15a
// metric (90% of restored paths are longer; extremes exceed 10×).
func (r Restored) PathStretch() float64 {
	if r.Original.Path.LengthKm == 0 {
		return 1
	}
	return r.Path.LengthKm / r.Original.Path.LengthKm
}

// Result is the outcome of restoring one scenario.
type Result struct {
	Scenario     Scenario
	AffectedGbps int
	RestoredGbps int
	Restored     []Restored
	// PerLink maps affected link ID → (affected, restored) Gbps.
	PerLink map[string][2]int
	// Solver records how the exact MIP terminated; nil on heuristic
	// results and on scenarios that never reached the solver.
	Solver *plan.SolveStats
}

// Capability returns restored/affected capacity — the paper's restoration
// capability metric (Figs. 15b, 16). A scenario with no affected capacity
// has capability 1.
func (r *Result) Capability() float64 {
	if r.AffectedGbps == 0 {
		return 1
	}
	return float64(r.RestoredGbps) / float64(r.AffectedGbps)
}

// affected returns the indices in the base plan of the wavelengths that
// cross a cut fiber, ascending. Cut sets are a handful of fibers, so each
// hop is checked against the list itself.
func affected(base *plan.Result, cut []string) (failed []int) {
	for i := range base.Wavelengths {
		for _, f := range base.Wavelengths[i].Path.Fibers {
			if slices.Contains(cut, f) {
				failed = append(failed, i)
				break
			}
		}
	}
	return failed
}

// survivorAllocator rebuilds per-fiber occupancy from the surviving
// wavelengths only: the spectrum φ_w available to restoration is whatever
// planning left spare plus what the failed wavelengths released. (A
// failed wavelength no longer transmits, so the WSS passbands it held on
// healthy fibers are reconfigurable — the controller releases them as
// part of the restoration push.)
func survivorAllocator(grid spectrum.Grid, base *plan.Result, failed []int) (*spectrum.Allocator, error) {
	a := spectrum.NewAllocator(grid)
	var fibers []spectrum.FiberID
	for i := range base.Wavelengths {
		if len(failed) > 0 && failed[0] == i {
			failed = failed[1:]
			continue
		}
		w := &base.Wavelengths[i]
		fibers = spectrum.FiberIDs(fibers, w.Path.Fibers)
		if err := a.AllocateExact(fibers, w.Interval); err != nil {
			return nil, fmt.Errorf("restore: base plan inconsistent: %w", err)
		}
	}
	return a, nil
}

// linkEnds returns the sites an IP link connects.
func linkEnds(ip *topology.IPTopology, id string) (a, b topology.NodeID, err error) {
	for _, l := range ip.Links {
		if l.ID == id {
			return l.A, l.B, nil
		}
	}
	return "", "", fmt.Errorf("restore: affected link %s missing from IP topology", id)
}

// Solve runs the restoration heuristic for one scenario.
//
// Affected links are processed in order of decreasing affected capacity
// (ties by ID). Each link may retune as many transponders as it lost
// (plus ExtraSpares). Wavelengths are restored one at a time over the
// K shortest post-failure paths; each takes the highest feasible data
// rate not exceeding the link's remaining affected capacity (constraint
// (7) forbids overshoot — restoration revives lost capacity, it does not
// grow the link), widening channel spacing as needed, which is exactly
// the SVT advantage the paper illustrates in Fig. 4.
func Solve(p Problem) (*Result, error) {
	if p.Base == nil {
		return nil, fmt.Errorf("restore: nil base plan")
	}
	failed := affected(p.Base, p.Scenario.CutFibers)
	res := &Result{
		Scenario: p.Scenario,
		PerLink:  make(map[string][2]int),
	}
	if len(failed) == 0 {
		return res, nil
	}
	alloc, err := survivorAllocator(p.Grid, p.Base, failed)
	if err != nil {
		return nil, err
	}
	post := p.Optical.Without(p.Scenario.CutFibers...)

	// Group failures per link.
	type linkState struct {
		id           string
		affectedGbps int
		spares       int
		originals    []int // the link's failed wavelengths, as base plan indices
	}
	byLink := make(map[string]*linkState)
	var order []*linkState
	for _, i := range failed {
		w := &p.Base.Wavelengths[i]
		ls, ok := byLink[w.LinkID]
		if !ok {
			ls = &linkState{id: w.LinkID}
			byLink[w.LinkID] = ls
			order = append(order, ls)
		}
		ls.affectedGbps += w.Mode.DataRateGbps
		ls.spares++
		ls.originals = append(ls.originals, i)
	}
	for _, ls := range order {
		ls.spares += p.ExtraSpares[ls.id]
		res.AffectedGbps += ls.affectedGbps
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].affectedGbps != order[j].affectedGbps {
			return order[i].affectedGbps > order[j].affectedGbps
		}
		return order[i].id < order[j].id
	})

	for _, ls := range order {
		a, b, err := linkEnds(p.IP, ls.id)
		if err != nil {
			return nil, err
		}
		var cands []candidate
		for _, path := range post.KShortestPaths(a, b, p.k()) {
			cands = append(cands, candidate{path: path})
		}
		remaining := ls.affectedGbps
		restored := 0
		oi := 0 // next original wavelength to pair with a restored one
		for remaining > 0 && ls.spares > 0 && len(cands) > 0 {
			r, ok := restoreOne(p, alloc, ls.id, cands, remaining)
			if !ok {
				break
			}
			if oi < len(ls.originals) {
				r.Original = p.Base.Wavelengths[ls.originals[oi]]
				oi++
			}
			res.Restored = append(res.Restored, r)
			remaining -= r.Mode.DataRateGbps
			restored += r.Mode.DataRateGbps
			ls.spares--
		}
		res.RestoredGbps += restored
		res.PerLink[ls.id] = [2]int{ls.affectedGbps, restored}
	}
	return res, nil
}

// candidate is one restoration path of a link with what every wavelength
// tried on it needs, filled in the first time it is tried: its allocator
// keys, and the catalog's feasible modes in preference order.
type candidate struct {
	path   topology.Path
	fibers []spectrum.FiberID
	modes  []transponder.Mode
}

// restoreOne places a single restored wavelength for a link, trying
// candidate paths in length order. The mode is the highest feasible rate
// ≤ remaining (constraint (7)); ties prefer the narrowest spacing.
func restoreOne(p Problem, alloc *spectrum.Allocator, linkID string, cands []candidate, remainingGbps int) (Restored, bool) {
	for i := range cands {
		c := &cands[i]
		if c.fibers == nil {
			c.fibers = spectrum.FiberIDs(nil, c.path.Fibers)
			c.modes = p.Catalog.FeasibleModes(c.path.LengthKm)
			sort.SliceStable(c.modes, func(i, j int) bool {
				if c.modes[i].DataRateGbps != c.modes[j].DataRateGbps {
					return c.modes[i].DataRateGbps > c.modes[j].DataRateGbps
				}
				return c.modes[i].SpacingGHz < c.modes[j].SpacingGHz
			})
		}
		for _, mode := range c.modes {
			if mode.DataRateGbps > remainingGbps {
				continue
			}
			pixels := mode.Pixels(p.Grid)
			if pixels > p.Grid.Pixels {
				continue
			}
			iv, err := alloc.Find(c.fibers, pixels, p.Fit)
			if err != nil || alloc.AllocateExact(c.fibers, iv) != nil {
				continue
			}
			return Restored{
				LinkID:   linkID,
				Path:     c.path,
				Mode:     mode,
				Interval: iv,
			}, true
		}
	}
	return Restored{}, false
}

// ScenarioError records one scenario whose solve failed during a sweep.
type ScenarioError struct {
	// ID is the failing scenario's identifier.
	ID  string
	Err error
}

func (e ScenarioError) Error() string {
	return fmt.Sprintf("restore: scenario %s: %v", e.ID, e.Err)
}

// Unwrap exposes the underlying solve error to errors.Is/As.
func (e ScenarioError) Unwrap() error { return e.Err }

// SweepResult aggregates restoration over a scenario set.
type SweepResult struct {
	// Results holds the successfully restored scenarios in input order.
	// Scenarios whose solve failed are absent here and recorded in
	// Errors instead, so one infeasible cut cannot void a whole sweep.
	Results []*Result
	// Errors lists the failed scenarios (input order). Aggregate metrics
	// (MeanCapability, Capabilities, PathStretches) are computed over
	// Results only.
	Errors []ScenarioError
}

// Failed returns the number of scenarios whose solve failed.
func (s SweepResult) Failed() int { return len(s.Errors) }

// FailedIDs returns the IDs of the failed scenarios in input order.
func (s SweepResult) FailedIDs() []string {
	if len(s.Errors) == 0 {
		return nil
	}
	ids := make([]string, len(s.Errors))
	for i, e := range s.Errors {
		ids[i] = e.ID
	}
	return ids
}

// MeanCapability returns the probability-weighted mean restoration
// capability over the sweep (Fig. 15b's y-axis). When every scenario in
// the sweep has an unset probability (<= 0) the mean is unweighted;
// otherwise scenarios with non-positive probabilities contribute
// nothing — mixing defaulted weight-1 entries into a probabilistic set
// (p ≈ 1e-4) would skew the mean by orders of magnitude.
func (s SweepResult) MeanCapability() float64 {
	if len(s.Results) == 0 {
		return 1
	}
	allUnset := true
	for _, r := range s.Results {
		if r.Scenario.Probability > 0 {
			allUnset = false
			break
		}
	}
	totalP := 0.0
	sum := 0.0
	for _, r := range s.Results {
		p := r.Scenario.Probability
		if allUnset {
			p = 1
		} else if p <= 0 {
			continue
		}
		totalP += p
		sum += p * r.Capability()
	}
	if totalP == 0 {
		return 1
	}
	return sum / totalP
}

// Capabilities returns each scenario's capability, sorted ascending —
// ready for CDF plotting (Fig. 16).
func (s SweepResult) Capabilities() []float64 {
	out := make([]float64, len(s.Results))
	for i, r := range s.Results {
		out[i] = r.Capability()
	}
	sort.Float64s(out)
	return out
}

// PathStretches returns restored/original length ratios across all
// restored wavelengths in the sweep, sorted ascending (Fig. 15a).
func (s SweepResult) PathStretches() []float64 {
	var out []float64
	for _, r := range s.Results {
		for _, w := range r.Restored {
			if w.Original.Path.LengthKm > 0 {
				out = append(out, w.PathStretch())
			}
		}
	}
	sort.Float64s(out)
	return out
}

// SweepOptions tune a scenario sweep.
type SweepOptions struct {
	// Workers is the number of scenarios solved concurrently: 0 (the
	// default) uses runtime.GOMAXPROCS, 1 forces the sequential path.
	// Every worker clones the per-scenario state (allocator, post-cut
	// topology) and treats the base Problem as read-only, so results are
	// identical for every worker count.
	Workers int
	// Context, when non-nil, cancels the sweep early; undispatched
	// scenarios are recorded as failed with the context's error.
	Context context.Context
}

// Sweep restores every scenario against the same base plan with default
// options (all cores).
func Sweep(base Problem, scenarios []Scenario) (SweepResult, error) {
	return SweepWithOptions(base, scenarios, SweepOptions{})
}

// SweepWithOptions restores every scenario against the same base plan.
// Scenarios are independent solves, so they run on a bounded worker
// pool; results keep the input scenario order regardless of completion
// order. A scenario whose solve fails is recorded in SweepResult.Errors
// and the sweep continues; the returned error is non-nil only when the
// sweep was cancelled or every scenario failed.
func SweepWithOptions(base Problem, scenarios []Scenario, opts SweepOptions) (SweepResult, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results, errs := parallel.Map(ctx, opts.Workers, len(scenarios), func(ctx context.Context, i int) (*Result, error) {
		p := base
		p.Scenario = scenarios[i]
		return Solve(p)
	})
	var out SweepResult
	for i, sc := range scenarios {
		if errs[i] != nil {
			out.Errors = append(out.Errors, ScenarioError{ID: sc.ID, Err: errs[i]})
			continue
		}
		out.Results = append(out.Results, results[i])
	}
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("restore: sweep cancelled after %d/%d scenarios: %w", len(out.Results), len(scenarios), err)
	}
	if len(scenarios) > 0 && len(out.Results) == 0 {
		return out, fmt.Errorf("restore: all %d scenarios failed: %w", len(scenarios), out.Errors[0])
	}
	return out, nil
}

// PlusSpares computes the FlexWAN+ spare map: for each link, extra
// transponder pairs equal to fraction × (baseline count − flexwan count),
// floored at zero — "extra half of the saved transponders" with
// fraction = 0.5 (§8).
func PlusSpares(flexwan, baseline *plan.Result, fraction float64) map[string]int {
	out := make(map[string]int)
	for id, fp := range flexwan.PerLink {
		bp, ok := baseline.PerLink[id]
		if !ok {
			continue
		}
		saved := bp.Wavelengths - fp.Wavelengths
		if saved <= 0 {
			continue
		}
		extra := int(fraction * float64(saved))
		if extra > 0 {
			out[id] = extra
		}
	}
	return out
}
