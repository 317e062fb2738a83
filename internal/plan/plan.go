// Package plan implements FlexWAN's network planning (Algorithm 1 of the
// paper): provisioning the bandwidth capacity of every IP link over
// optical paths with the minimum hardware cost, defined as
//
//	minimize  Σ λ  +  ε · Σ λ·Y
//
// (transponder count plus ε-weighted spectrum usage), subject to
//
//	(1) capacity     — each link's wavelengths sum to ≥ its demand,
//	(2) optical reach — a mode is usable only when reach ≥ path length,
//	(3) conflict     — a fiber pixel carries at most one wavelength,
//	(4) consistency  — a wavelength occupies identical pixels on every
//	                   fiber of its path,
//	(5,6) bookkeeping between wavelengths, slots and transponder counts.
//
// Two solvers are provided. SolveExact builds the paper's mixed-integer
// program, already reduced to its interchangeable-mode classes and maximal
// conflict rows, and solves it with the internal branch-and-bound — the
// substitute for the paper's Gurobi runs, practical for small and medium
// instances. Solve is the scalable heuristic used at production size:
// greedy per-wavelength mode selection with first-fit spectrum
// assignment, validated against the exact solver (see plan tests and the
// ablation benchmarks). Both enforce constraints (2)–(6) by construction;
// when spectrum runs out, the result reports the unserved demand instead
// of silently violating (3).
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// Problem is one planning instance: both topology layers, the demand set,
// the transponder family, and the spectrum grid.
type Problem struct {
	Optical *topology.Optical
	IP      *topology.IPTopology
	Catalog transponder.Catalog
	Grid    spectrum.Grid
	// K is the number of candidate shortest optical paths per IP link
	// (the paper's KSP pre-computation). Zero means DefaultK.
	K int
	// Epsilon weighs spectrum against transponders in the objective.
	// Zero means DefaultEpsilon.
	Epsilon float64
	// Fit selects the spectrum placement strategy of the heuristic.
	Fit spectrum.Fit
}

// Defaults for Problem fields left zero.
const (
	DefaultK       = 3
	DefaultEpsilon = 0.001
)

func (p Problem) k() int {
	if p.K <= 0 {
		return DefaultK
	}
	return p.K
}

func (p Problem) epsilon() float64 {
	if p.Epsilon <= 0 {
		return DefaultEpsilon
	}
	return p.Epsilon
}

// Wavelength is one provisioned optical channel: a transponder pair
// operating in Mode over Path, occupying Interval on every fiber. It is a
// choice among things the plan's other parts own, and refers to them: Path
// points at Result.Paths[LinkID][PathIndex] and Mode into
// Problem.Catalog.Modes, both read-only. The zero Wavelength has neither;
// every wavelength of a Result has both.
type Wavelength struct {
	LinkID    string
	PathIndex int // index into the link's candidate path list
	Path      *topology.Path
	Mode      *transponder.Mode
	Interval  spectrum.Interval
}

// GapKm returns optical reach − path length, the over-provisioning margin
// of the wavelength (Fig. 14a).
func (w Wavelength) GapKm() float64 { return w.Mode.ReachKm - w.Path.LengthKm }

// LinkPlan summarizes provisioning for one IP link.
type LinkPlan struct {
	DemandGbps      int
	ProvisionedGbps int
	Wavelengths     int
}

// Served reports whether the link's demand is fully provisioned.
func (lp LinkPlan) Served() bool { return lp.ProvisionedGbps >= lp.DemandGbps }

// Result is a complete planning outcome.
type Result struct {
	Wavelengths []Wavelength
	PerLink     map[string]LinkPlan
	// Paths caches the candidate optical paths per link, as computed by
	// KSP on the problem's optical topology. The wavelengths point into
	// these slices, which the topology's path memo shares: read-only.
	Paths map[string][]topology.Path
	// Allocator holds the final per-fiber spectrum occupancy.
	Allocator *spectrum.Allocator
	// Unserved lists IDs of links whose demand could not be fully met
	// (spectrum or reach exhaustion). Empty means a feasible plan.
	Unserved []string
	// Solver records how the exact MIP terminated; nil on heuristic plans.
	Solver *SolveStats
}

// Feasible reports whether every demand was fully provisioned.
func (r *Result) Feasible() bool { return len(r.Unserved) == 0 }

// Transponders returns the total number of transponder pairs (the paper's
// primary hardware cost, Σλ).
func (r *Result) Transponders() int { return len(r.Wavelengths) }

// SpectrumGHz returns the total channel spacing across wavelengths (the
// paper's spectrum usage, Σ λ·Y).
func (r *Result) SpectrumGHz() float64 {
	total := 0.0
	for _, w := range r.Wavelengths {
		total += w.Mode.SpacingGHz
	}
	return total
}

// Objective returns Σλ + ε·Σλ·Y, Algorithm 1's objective value.
func (r *Result) Objective(epsilon float64) float64 {
	return float64(r.Transponders()) + epsilon*r.SpectrumGHz()
}

// MeanSpectralEfficiency returns the mean data rate per spacing over all
// wavelengths (b/s/Hz).
func (r *Result) MeanSpectralEfficiency() float64 {
	if len(r.Wavelengths) == 0 {
		return 0
	}
	total := 0.0
	for _, w := range r.Wavelengths {
		total += w.Mode.SpectralEfficiency()
	}
	return total / float64(len(r.Wavelengths))
}

// candidatePaths computes the KSP path set for every link, failing when a
// link's endpoints are disconnected in the optical topology.
func candidatePaths(p Problem) (map[string][]topology.Path, error) {
	paths := make(map[string][]topology.Path, len(p.IP.Links))
	for _, l := range p.IP.Links {
		ps := p.Optical.KShortestPaths(l.A, l.B, p.k())
		if len(ps) == 0 {
			return nil, fmt.Errorf("plan: no optical path for IP link %s (%s–%s)", l.ID, l.A, l.B)
		}
		paths[l.ID] = ps
	}
	return paths, nil
}

// Solve runs the scalable planning heuristic.
//
// Links are processed hardest-first (longest shortest path, then largest
// demand): long paths have the fewest feasible modes and cross the most
// fibers, so they face the tightest spectrum contention. Per link the
// heuristic walks candidate paths in length order and provisions one
// wavelength at a time, preferring the mode multiset a cost-optimal
// single-link provision would use (transponder.MinProvision) and falling
// back to any feasible mode when the preferred channel cannot find
// contiguous spectrum. Every allocation goes through spectrum.Allocator,
// which enforces the conflict and consistency constraints by construction.
func Solve(p Problem) (*Result, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	paths, err := candidatePaths(p)
	if err != nil {
		return nil, err
	}
	res := &Result{
		PerLink:   make(map[string]LinkPlan, len(p.IP.Links)),
		Paths:     paths,
		Allocator: spectrum.NewAllocatorOn(p.Grid, p.Optical.Numbering()),
	}

	// Links hardest first: order is a permutation of IP.Links, sorted on
	// keys resolved once, so the sort moves indices and not records.
	links := p.IP.Links
	linkPaths := make([][]topology.Path, len(links)) // shortest first
	order := make([]int32, len(links))
	for i := range links {
		linkPaths[i] = paths[links[i].ID]
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Or(
			cmp.Compare(linkPaths[b][0].LengthKm, linkPaths[a][0].LengthKm),
			cmp.Compare(links[b].DemandGbps, links[a].DemandGbps),
			cmp.Compare(links[a].ID, links[b].ID),
		)
	})

	pl := newPlacer(p, res)
	// Room for every link's channels at the best rate its shortest path
	// allows — what a plan that fits uses, give or take a few.
	channels := len(links)
	for i := range links {
		if rc := pl.provisions.Class(linkPaths[i][0].LengthKm); rc != nil {
			rate := rc.ByRate(0).DataRateGbps
			channels += (links[i].DemandGbps + rate - 1) / rate
		}
	}
	res.Wavelengths = make([]Wavelength, 0, channels)

	for _, li := range order {
		link := &links[li]
		pl.link(link.ID, linkPaths[li])
		lp := LinkPlan{DemandGbps: link.DemandGbps}
		remaining := link.DemandGbps
		for remaining > 0 {
			w, ok := pl.placeOne(remaining)
			if !ok {
				break
			}
			res.Wavelengths = append(res.Wavelengths, w)
			lp.Wavelengths++
			lp.ProvisionedGbps += w.Mode.DataRateGbps
			remaining -= w.Mode.DataRateGbps
		}
		res.PerLink[link.ID] = lp
		if remaining > 0 {
			res.Unserved = append(res.Unserved, link.ID)
		}
	}
	sort.Strings(res.Unserved)
	return res, nil
}

// placer provisions wavelengths link by link for one Solve or Extend
// call. It holds what the call's links share — the catalog's provision
// table and the scratch — and, for the link it is turned to, the candidate
// paths with their reach classes.
type placer struct {
	p          Problem
	res        *Result
	provisions *transponder.ProvisionTable
	linkID     string
	paths      []candidate
	prefer     []*transponder.Mode // placeOne's scratch
}

// candidate is one of a link's candidate paths.
type candidate struct {
	path  *topology.Path          // into the result's Paths
	class *transponder.ReachClass // nil when no mode reaches
}

func newPlacer(p Problem, res *Result) *placer {
	return &placer{p: p, res: res, provisions: p.Catalog.Provisions()}
}

// link turns the placer to an IP link and its candidate paths — the
// result's Paths[linkID], which the wavelengths placed will point into; the
// previous link's candidates are overwritten.
func (pl *placer) link(linkID string, paths []topology.Path) {
	pl.linkID, pl.paths = linkID, pl.paths[:0]
	for i := range paths {
		pl.paths = append(pl.paths, candidate{path: &paths[i], class: pl.provisions.Class(paths[i].LengthKm)})
	}
}

// placeOne provisions a single wavelength toward the remaining demand of
// the link, trying candidate paths in order. It returns false when no
// (path, mode, spectrum) combination works.
func (pl *placer) placeOne(remainingGbps int) (Wavelength, bool) {
	for pi, c := range pl.paths {
		if c.class == nil {
			continue
		}
		// Preferred modes: what a cost-optimal provision of the whole
		// remaining demand at this length would use, widest first so the
		// hardest channel claims contiguous spectrum earliest. Each mode
		// of the multiset is tried once: nothing changes between a failed
		// attempt and its repeat.
		pl.prefer = c.class.AppendModes(pl.prefer[:0], remainingGbps)
		slices.SortStableFunc(pl.prefer, func(a, b *transponder.Mode) int {
			return cmp.Compare(b.SpacingGHz, a.SpacingGHz)
		})
		for _, mode := range pl.prefer {
			if w, ok := pl.tryAllocate(pi, mode); ok {
				return w, true
			}
		}
		// Fallback: any feasible mode, highest rate then narrowest
		// spacing — spectrum is fragmented, so try every width.
		for i := 0; i < c.class.Len(); i++ {
			if w, ok := pl.tryAllocate(pi, c.class.ByRate(i)); ok {
				return w, true
			}
		}
	}
	return Wavelength{}, false
}

func (pl *placer) tryAllocate(pathIndex int, mode *transponder.Mode) (Wavelength, bool) {
	pixels := mode.Pixels(pl.p.Grid)
	if pixels > pl.p.Grid.Pixels {
		return Wavelength{}, false
	}
	c := &pl.paths[pathIndex]
	iv, err := pl.res.Allocator.ClaimPath(c.path, pixels, pl.p.Fit)
	if err != nil {
		return Wavelength{}, false
	}
	return Wavelength{
		LinkID:    pl.linkID,
		PathIndex: pathIndex,
		Path:      c.path,
		Mode:      mode,
		Interval:  iv,
	}, true
}

func validate(p Problem) error {
	if p.Optical == nil || p.IP == nil {
		return fmt.Errorf("plan: nil topology")
	}
	if len(p.Catalog.Modes) == 0 {
		return fmt.Errorf("plan: empty transponder catalog")
	}
	if p.Grid.Pixels <= 0 || p.Grid.PixelGHz <= 0 {
		return fmt.Errorf("plan: invalid spectrum grid %+v", p.Grid)
	}
	for _, l := range p.IP.Links {
		if !p.Optical.HasNode(l.A) || !p.Optical.HasNode(l.B) {
			return fmt.Errorf("plan: IP link %s references unknown optical site", l.ID)
		}
	}
	return nil
}

// Verify re-checks every paper constraint on a result against the
// problem: capacity (unless listed unserved), reach, conflict,
// consistency, and interval validity. It returns nil for a sound plan.
// The controller runs this before pushing configurations (§4.3's "zero
// inconsistency and conflict" audit).
func Verify(p Problem, r *Result) error {
	// Reach (2) and grid validity.
	for i, w := range r.Wavelengths {
		if !w.Mode.Feasible(w.Path.LengthKm) {
			return fmt.Errorf("plan: wavelength %d violates reach: %v over %.0f km", i, w.Mode, w.Path.LengthKm)
		}
		if !w.Interval.Valid(p.Grid) {
			return fmt.Errorf("plan: wavelength %d interval %v outside grid", i, w.Interval)
		}
		if w.Interval.Count != w.Mode.Pixels(p.Grid) {
			return fmt.Errorf("plan: wavelength %d interval %v does not match spacing %v GHz",
				i, w.Interval, w.Mode.SpacingGHz)
		}
	}
	// Conflict (3) and consistency (4): every wavelength's pixels are held
	// on its fibers, and claiming the wavelengths one by one on an empty
	// allocator finds no pixel claimed twice.
	claimed := spectrum.NewAllocatorOn(r.Allocator.Grid(), r.Allocator.Numbering())
	for i := range r.Wavelengths {
		w := &r.Wavelengths[i]
		if len(w.Path.Fibers) == 0 {
			continue
		}
		if err := r.Allocator.HoldsPath(w.Path, w.Interval); err != nil {
			return fmt.Errorf("plan: wavelength %d not marked used: %w", i, err)
		}
		if err := claimed.AllocatePath(w.Path, w.Interval); err != nil {
			return fmt.Errorf("plan: wavelength %d claims pixels an earlier one holds: %w", i, err)
		}
	}
	// Capacity (1).
	unserved := make(map[string]bool, len(r.Unserved))
	for _, id := range r.Unserved {
		unserved[id] = true
	}
	capacity := make(map[string]int)
	for _, w := range r.Wavelengths {
		capacity[w.LinkID] += w.Mode.DataRateGbps
	}
	for _, l := range p.IP.Links {
		if unserved[l.ID] {
			continue
		}
		if capacity[l.ID] < l.DemandGbps {
			return fmt.Errorf("plan: link %s provisioned %d < demand %d Gbps", l.ID, capacity[l.ID], l.DemandGbps)
		}
	}
	return nil
}
