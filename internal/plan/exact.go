package plan

import (
	"fmt"
	"sort"
	"strconv"

	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// SolveStats records how an exact MIP search terminated: final solver
// status, branch-and-bound nodes explored, workers used, the proven
// optimality gap, and the LP work underneath (simplex pivots, dual-simplex
// warm-start hits, presolve reductions). Nil on heuristic results.
type SolveStats struct {
	Status        solver.Status
	Objective     float64
	Nodes         int
	Workers       int
	Gap           float64
	SimplexIters  int
	WarmStartHits int
	PresolveRows  int
	PresolveCols  int

	// BoundFlips and WeightResets are the dual-simplex pricing counters:
	// boxed nonbasic variables the long-step ratio test flipped
	// bound-to-bound, and devex reference-weight resets.
	BoundFlips   int
	WeightResets int

	// LU/basis health of the revised-simplex engines underneath the search:
	// full refactorizations, in-place basis updates (Forrest–Tomlin or eta
	// append), FTRAN/BTRAN counts, peak U fill, solves that fell back to the
	// dense tableau, and bounds tightened by per-node presolve propagation.
	Refactorizations    int
	BasisUpdates        int
	FTRANCount          int
	BTRANCount          int
	PeakUFill           int
	DenseFallbacks      int
	NodePresolveFixings int
}

// NewSolveStats copies the search statistics out of a solver Solution.
func NewSolveStats(sol solver.Solution) *SolveStats {
	return &SolveStats{
		Status: sol.Status, Objective: sol.Objective,
		Nodes: sol.Nodes, Workers: sol.Workers, Gap: sol.Gap,
		SimplexIters: sol.SimplexIters, WarmStartHits: sol.WarmStartHits,
		BoundFlips: sol.BoundFlips, WeightResets: sol.WeightResets,
		PresolveRows: sol.PresolveRows, PresolveCols: sol.PresolveCols,
		Refactorizations: sol.Refactorizations, BasisUpdates: sol.BasisUpdates,
		FTRANCount: sol.FTRANCount, BTRANCount: sol.BTRANCount,
		PeakUFill: sol.PeakUFill, DenseFallbacks: sol.DenseFallbacks,
		NodePresolveFixings: sol.NodePresolveFixings,
	}
}

// gammaVar mirrors the paper's γ^{e,k}_{j,q}: link e uses, on its k-th
// candidate path, a transponder at format j whose channel starts at pixel
// q. The path is the result's, the mode the catalog's: a wavelength built
// from a γ points at those, not into the γ list.
type gammaVar struct {
	linkID    string
	pathIndex int
	path      *topology.Path
	mode      *transponder.Mode
	startQ    int
	pixels    int
	id        solver.VarID
}

// SolveExact builds Algorithm 1 as a mixed-integer program and solves it
// with the internal branch-and-bound. The formulation follows the paper
// exactly, with one standard encoding observation: fixing a wavelength's
// format j and starting pixel q determines its slot occupancy s_w^{j,q}
// on every fiber of its path, so constraints (4)–(6) (consistency,
// status, transponder count) hold by construction and only (1) capacity
// and (3) conflict appear as rows. Constraint (2) reach is enforced by
// never creating infeasible (path, format) variables.
//
// The build refuses — rather than thrash — once the variable count
// passes opts.MaxBuildVars(): Options.MaxVars when set, otherwise
// solver.DefaultMaxVars (250000). Production-scale instances (hundreds of links on a 384-pixel
// grid) still belong to the heuristic Solve, exactly as the paper's
// Gurobi runs take "hours of runtime" on theirs.
func SolveExact(p Problem, opts solver.Options) (*Result, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	paths, err := candidatePaths(p)
	if err != nil {
		return nil, err
	}

	m := solver.NewModel("flexwan-planning", solver.Minimize)
	// slotUsers[fiber][w] lists variables occupying pixel w on the fiber.
	slotUsers := make(map[string][][]solver.VarID)

	// Pre-pass: resolve the feasible (path, mode) sets once and count the
	// γ variables, so the over-cap refusal happens before any model is
	// built and every append target below is allocated at final size —
	// append doubling otherwise dominates build garbage on large grids.
	type pathModes struct {
		path  *topology.Path
		modes []*transponder.Mode
	}
	maxVars := opts.MaxBuildVars()
	feas := make(map[string][]pathModes, len(p.IP.Links))
	perLink := make(map[string]int, len(p.IP.Links))
	nGamma := 0
	for _, link := range p.IP.Links {
		pms := make([]pathModes, 0, len(paths[link.ID]))
		n := 0
		for pi := range paths[link.ID] {
			path := &paths[link.ID][pi]
			modes := p.Catalog.FeasibleModes(path.LengthKm)
			pms = append(pms, pathModes{path: path, modes: modes})
			for _, mode := range modes {
				if px := mode.Pixels(p.Grid); px <= p.Grid.Pixels {
					n += p.Grid.Pixels - px + 1
				}
			}
		}
		feas[link.ID] = pms
		perLink[link.ID] = n
		nGamma += n
	}
	if nGamma > maxVars {
		return nil, fmt.Errorf("plan: exact MIP exceeds %d variables (Options.MaxVars); use the heuristic Solve or raise the cap", maxVars)
	}
	m.Grow(nGamma, len(p.IP.Links))
	gammas := make([]gammaVar, 0, nGamma)

	// A channel of the same format may be needed more than once per
	// (link, path): the binary γ encoding expresses multiplicity through
	// distinct starting pixels q, exactly as the paper defines the q-th
	// order.
	for _, link := range p.IP.Links {
		linkTerms := make([]solver.Term, 0, perLink[link.ID])
		for pi, pm := range feas[link.ID] {
			path := pm.path
			for _, mode := range pm.modes {
				pixels := mode.Pixels(p.Grid)
				if pixels > p.Grid.Pixels {
					continue
				}
				// One name prefix per (link, path, mode): the per-variable
				// name is then a single concatenation, not an fmt.Sprintf —
				// variable naming used to dominate build allocations.
				prefix := "g[" + link.ID + "," + strconv.Itoa(pi) + "," + mode.String() + ","
				for q := 0; q+pixels <= p.Grid.Pixels; q++ {
					name := prefix + strconv.Itoa(q) + "]"
					obj := 1 + p.epsilon()*mode.SpacingGHz
					id := m.AddBinVar(name, obj)
					gammas = append(gammas, gammaVar{
						linkID: link.ID, pathIndex: pi, path: path,
						mode: mode, startQ: q, pixels: pixels, id: id,
					})
					linkTerms = append(linkTerms, solver.Term{Var: id, Coef: float64(mode.DataRateGbps)})
					for _, f := range path.Fibers {
						rows, ok := slotUsers[f]
						if !ok {
							rows = make([][]solver.VarID, p.Grid.Pixels)
							slotUsers[f] = rows
						}
						for w := q; w < q+pixels; w++ {
							rows[w] = append(rows[w], id)
						}
					}
				}
			}
		}
		if len(linkTerms) == 0 {
			return nil, fmt.Errorf("plan: no feasible (path, mode) for link %s", link.ID)
		}
		// Constraint (1): capacity.
		if err := m.AddConstraint("cap["+link.ID+"]", linkTerms, solver.GE, float64(link.DemandGbps)); err != nil {
			return nil, err
		}
	}

	// Constraint (3): each pixel of each fiber used at most once.
	fibers := make([]string, 0, len(slotUsers))
	for f := range slotUsers {
		fibers = append(fibers, f)
	}
	sort.Strings(fibers)
	var terms []solver.Term // reused row buffer; AddConstraint copies
	for _, f := range fibers {
		for w, users := range slotUsers[f] {
			if len(users) < 2 {
				continue // a single candidate cannot conflict
			}
			terms = terms[:0]
			for _, id := range users {
				terms = append(terms, solver.Term{Var: id, Coef: 1})
			}
			name := "slot[" + f + "," + strconv.Itoa(w) + "]"
			if err := m.AddConstraint(name, terms, solver.LE, 1); err != nil {
				return nil, err
			}
		}
	}

	sol, err := m.SolveWithOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	switch sol.Status {
	case solver.Infeasible:
		return nil, fmt.Errorf("plan: exact MIP infeasible (demand exceeds spectrum or reach)")
	case solver.Unbounded:
		return nil, fmt.Errorf("plan: exact MIP unbounded — formulation bug")
	case solver.LimitReached, solver.IterLimit:
		if len(sol.Values) == 0 {
			return nil, fmt.Errorf("plan: solve limit (%s) reached with no incumbent", sol.Status)
		}
		// Fall through with the incumbent: still a valid plan, possibly
		// suboptimal; Gap reports how far.
	}

	res := &Result{
		PerLink:   make(map[string]LinkPlan, len(p.IP.Links)),
		Paths:     paths,
		Allocator: spectrum.NewAllocator(p.Grid),
		Solver:    NewSolveStats(sol),
	}
	for _, l := range p.IP.Links {
		res.PerLink[l.ID] = LinkPlan{DemandGbps: l.DemandGbps}
	}
	for _, g := range gammas {
		if sol.IntValue(g.id) != 1 {
			continue
		}
		iv := spectrum.Interval{Start: g.startQ, Count: g.pixels}
		if err := res.Allocator.AllocateExact(spectrum.FiberIDs(nil, g.path.Fibers), iv); err != nil {
			return nil, fmt.Errorf("plan: MIP solution violates spectrum constraints: %w", err)
		}
		res.Wavelengths = append(res.Wavelengths, Wavelength{
			LinkID:    g.linkID,
			PathIndex: g.pathIndex,
			Path:      g.path,
			Mode:      g.mode,
			Interval:  iv,
		})
		lp := res.PerLink[g.linkID]
		lp.Wavelengths++
		lp.ProvisionedGbps += g.mode.DataRateGbps
		res.PerLink[g.linkID] = lp
	}
	return res, nil
}
