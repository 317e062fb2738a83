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
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

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

// Restored is one re-established channel. Like a plan.Wavelength it refers
// to what it chose rather than copying it, so a Result keeps its problem's
// base plan and catalog alive; all three pointers are read-only, and
// Original reads as the base plan stood at the solve only until that plan
// is next evolved in place (plan.Extend, Decommission, Defragment).
type Restored struct {
	LinkID string
	// Original is the failed wavelength being revived: a pointer into
	// Problem.Base.Wavelengths. A link's restored channels pair with its
	// failed wavelengths in base-plan order, one each; a channel revived on
	// one of the link's ExtraSpares after those ran out has none, and
	// Original is nil.
	Original *plan.Wavelength
	// Path is the restoration path in the post-failure topology (an entry
	// of its K-shortest-paths answer, which the topology's memo shares).
	Path *topology.Path
	// Mode is the (possibly re-modulated) format on the new path, in
	// Problem.Catalog.Modes.
	Mode *transponder.Mode
	// Interval is the spectrum it now occupies.
	Interval spectrum.Interval
}

// PathStretch returns restoredLength/originalLength — the paper's Fig. 15a
// metric (90% of restored paths are longer; extremes exceed 10×) — and 1
// for a channel with no original to compare with.
func (r Restored) PathStretch() float64 {
	if r.Original == nil || r.Original.Path.LengthKm == 0 {
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

// baseState is what every scenario restored against one base plan has in
// common, computed once per sweep — or once per one-shot Solve or
// SolveExact, which then consumes it. After newBaseState returns it is
// only read, so the scenarios of a sweep share it across goroutines.
type baseState struct {
	p Problem // the problem less its scenario
	// occupancy holds every wavelength of the base plan. Claiming them one
	// by one is the base plan's consistency check, so it runs once, over
	// the whole plan, whatever a scenario goes on to cut.
	occupancy *spectrum.Allocator
	// The base wavelengths crossing each fiber: those crossing fiber n are
	// onFiber[fiberStart[n]:fiberStart[n+1]], ascending. A fiber's n is its
	// number in the topology's numbering; a fiber of the plan that the
	// topology does not number is numbered after those, in foreign.
	num        *topology.Numbering
	foreign    map[string]int32 // nil unless the plan has such a fiber
	fiberStart []int32
	onFiber    []int
	// linkNum maps an IP link's ID to its position in IP.Links; of links
	// sharing an ID the first counts, as a scan of the list would find it.
	linkNum map[string]int32

	// provisions is the catalog's table: it resolves a path length to the
	// modes that reach it, in preference order.
	provisions *transponder.ProvisionTable

	// forks holds the allocators of scenarios that have been solved, for
	// the next scenario to fork the occupancy into.
	forks sync.Pool
}

func newBaseState(p Problem) (*baseState, error) {
	if p.Base == nil {
		return nil, fmt.Errorf("restore: nil base plan")
	}
	if p.Optical == nil {
		return nil, fmt.Errorf("restore: nil optical topology")
	}
	num := p.Optical.Numbering()
	st := &baseState{
		p:          p,
		occupancy:  spectrum.NewAllocatorOn(p.Grid, num),
		num:        num,
		provisions: p.Catalog.Provisions(),
	}
	nhops := 0
	for i := range p.Base.Wavelengths {
		nhops += len(p.Base.Wavelengths[i].Path.Fibers)
	}
	var (
		hops  = make([]int32, 0, nhops)  // every wavelength's fibers in turn, by number
		count = make([]int32, num.Len()) // wavelengths per fiber
	)
	for i := range p.Base.Wavelengths {
		w := &p.Base.Wavelengths[i]
		if err := st.occupancy.AllocatePath(w.Path, w.Interval); err != nil {
			return nil, fmt.Errorf("restore: base plan inconsistent: %w", err)
		}
		if w.Path.Numbering == num {
			hops = append(hops, w.Path.Index...)
			for _, n := range w.Path.Index {
				count[n]++
			}
			continue
		}
		for _, f := range w.Path.Fibers { // built by hand, decoded, or numbered by another topology
			n, ok := st.fiber(f)
			if !ok {
				if st.foreign == nil {
					st.foreign = make(map[string]int32)
				}
				n = int32(len(count))
				st.foreign[f] = n
				count = append(count, 0)
			}
			count[n]++
			hops = append(hops, n)
		}
	}
	st.fiberStart = make([]int32, len(count)+1)
	for n, c := range count {
		st.fiberStart[n+1] = st.fiberStart[n] + c
	}
	st.onFiber = make([]int, nhops)
	next := append(count[:0], st.fiberStart[:len(count)]...) // where each fiber's list continues
	for i, h := 0, 0; i < len(p.Base.Wavelengths); i++ {
		for range p.Base.Wavelengths[i].Path.Fibers {
			st.onFiber[next[hops[h]]] = i
			next[hops[h]]++
			h++
		}
	}
	if p.IP != nil {
		st.linkNum = make(map[string]int32, len(p.IP.Links))
		for i, l := range p.IP.Links {
			if _, dup := st.linkNum[l.ID]; !dup {
				st.linkNum[l.ID] = int32(i)
			}
		}
	}
	return st, nil
}

// fiber returns the number the state knows a fiber by.
func (st *baseState) fiber(id string) (int32, bool) {
	if n, ok := st.num.Lookup(id); ok {
		return n, true
	}
	n, ok := st.foreign[id]
	return n, ok
}

// cut projects the state onto one scenario: the base plan indices of the
// wavelengths that cross a cut fiber, ascending (shared with the state —
// read-only), and the spectrum φ_w available to their restoration, which
// is whatever planning left spare plus what the failed wavelengths
// released. (A failed wavelength no longer transmits, so the WSS passbands
// it held on healthy fibers are reconfigurable — the controller releases
// them as part of the restoration push.) The allocator is a fork of the
// state's occupancy, or, for the one scenario of a one-shot solve, that
// occupancy itself; either way the work is a release per failed
// wavelength, not a replay of the plan.
func (st *baseState) cut(sc Scenario, consume bool) (failed []int, alloc *spectrum.Allocator, err error) {
	lists := 0
	for _, f := range sc.CutFibers {
		if n, ok := st.fiber(f); ok && st.fiberStart[n] < st.fiberStart[n+1] {
			on := st.onFiber[st.fiberStart[n]:st.fiberStart[n+1]]
			if lists++; lists == 1 {
				failed = on
			} else {
				failed = append(failed[:len(failed):len(failed)], on...)
			}
		}
	}
	if lists > 1 {
		slices.Sort(failed)
		failed = slices.Compact(failed)
	}
	if len(failed) == 0 {
		return nil, nil, nil
	}
	alloc = st.occupancy
	if !consume {
		spare, _ := st.forks.Get().(*spectrum.Allocator)
		alloc = alloc.ForkInto(spare)
	}
	for _, i := range failed {
		w := &st.p.Base.Wavelengths[i]
		if err := alloc.ReleasePath(w.Path, w.Interval); err != nil {
			return nil, nil, fmt.Errorf("restore: releasing failed wavelength %d: %w", i, err)
		}
	}
	return failed, alloc, nil
}

// endpoints returns the sites an IP link connects.
func (st *baseState) endpoints(id string) (a, b topology.NodeID, err error) {
	n, ok := st.linkNum[id]
	if !ok {
		return "", "", fmt.Errorf("restore: affected link %s missing from IP topology", id)
	}
	return st.p.IP.Links[n].A, st.p.IP.Links[n].B, nil
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
	st, err := newBaseState(p)
	if err != nil {
		return nil, err
	}
	return st.solve(p.Scenario, true)
}

// solve is Solve for one scenario on the state's base plan.
func (st *baseState) solve(sc Scenario, consume bool) (*Result, error) {
	p := st.p
	failed, alloc, err := st.cut(sc, consume)
	if err != nil {
		return nil, err
	}
	if alloc != nil && !consume {
		defer st.forks.Put(alloc) // the result refers to none of it
	}
	res := &Result{Scenario: sc}
	if len(failed) == 0 {
		res.PerLink = make(map[string][2]int)
		return res, nil
	}
	post := p.Optical.Without(sc.CutFibers...)

	// Group failures per link: ordered by link ID, base order within a
	// link, each link's failed wavelengths are one run of originals.
	wls := p.Base.Wavelengths
	originals := slices.Clone(failed)
	slices.SortStableFunc(originals, func(a, b int) int { return cmp.Compare(wls[a].LinkID, wls[b].LinkID) })
	links := 1
	for j := 1; j < len(originals); j++ {
		if wls[originals[j]].LinkID != wls[originals[j-1]].LinkID {
			links++
		}
	}
	type linkState struct {
		id           string
		affectedGbps int
		spares       int
		originals    []int // the link's failed wavelengths, as base plan indices
	}
	order := make([]linkState, 0, links)
	spares := 0
	for start, end := 0, 0; start < len(originals); start = end {
		ls := linkState{id: wls[originals[start]].LinkID}
		for end = start; end < len(originals) && wls[originals[end]].LinkID == ls.id; end++ {
			ls.affectedGbps += wls[originals[end]].Mode.DataRateGbps
		}
		ls.originals = originals[start:end:end]
		ls.spares = len(ls.originals) + p.ExtraSpares[ls.id]
		spares += ls.spares
		res.AffectedGbps += ls.affectedGbps
		order = append(order, ls)
	}
	// The links' IDs differ, so the order is total.
	slices.SortFunc(order, func(a, b linkState) int {
		return cmp.Or(cmp.Compare(b.affectedGbps, a.affectedGbps), cmp.Compare(a.id, b.id))
	})
	res.PerLink = make(map[string][2]int, len(order))

	var cands []candidate // the link's, overwritten by the next link's
	for i := range order {
		ls := &order[i]
		a, b, err := st.endpoints(ls.id)
		if err != nil {
			return nil, err
		}
		paths := post.KShortestPaths(a, b, p.k())
		cands = slices.Grow(cands[:0], len(paths))
		for i := range paths {
			cands = append(cands, candidate{path: &paths[i]})
		}
		remaining := ls.affectedGbps
		restored := 0
		oi := 0 // next original wavelength to pair with a restored one
		for remaining > 0 && ls.spares > 0 && len(cands) > 0 {
			r, ok := st.restoreOne(alloc, ls.id, cands, remaining)
			if !ok {
				break
			}
			if oi < len(ls.originals) {
				r.Original = &p.Base.Wavelengths[ls.originals[oi]]
				oi++
			}
			if res.Restored == nil {
				res.Restored = make([]Restored, 0, spares) // no more can be restored
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

// candidate is one restoration path of a link with the catalog's feasible
// modes on it in preference order, looked up the first time it is tried.
type candidate struct {
	path    *topology.Path
	class   *transponder.ReachClass // nil when no mode reaches
	classed bool                    // class has been looked up
}

// restoreOne places a single restored wavelength for a link, trying
// candidate paths in length order. The mode is the highest feasible rate
// ≤ remaining (constraint (7)); ties prefer the narrowest spacing.
func (st *baseState) restoreOne(alloc *spectrum.Allocator, linkID string, cands []candidate, remainingGbps int) (Restored, bool) {
	p := st.p
	for i := range cands {
		c := &cands[i]
		if !c.classed {
			c.class, c.classed = st.provisions.Class(c.path.LengthKm), true
		}
		for i := 0; c.class != nil && i < c.class.Len(); i++ {
			mode := c.class.ByRate(i)
			if mode.DataRateGbps > remainingGbps {
				continue
			}
			pixels := mode.Pixels(p.Grid)
			if pixels > p.Grid.Pixels {
				continue
			}
			iv, err := alloc.ClaimPath(c.path, pixels, p.Fit)
			if err != nil {
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
			if w.Original != nil && w.Original.Path.LengthKm > 0 {
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
	// What the scenarios share (the base plan's occupancy, its
	// fiber → wavelength index, the link endpoints) is built once and only
	// read; each scenario forks the occupancy and takes its own post-cut
	// view, so results are identical for every worker count.
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
	st, err := newBaseState(base) // an unusable base plan fails every scenario
	results, errs := parallel.Map(ctx, opts.Workers, len(scenarios), func(ctx context.Context, i int) (*Result, error) {
		if err != nil {
			return nil, err
		}
		return st.solve(scenarios[i], false)
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
