package plan

import (
	"fmt"
	"math/bits"
	"slices"
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

	// LU/basis health of the simplex underneath the search: full
	// refactorizations, in-place Forrest–Tomlin basis updates, FTRAN/BTRAN
	// counts, peak U fill, and bounds tightened by per-node presolve
	// propagation.
	Refactorizations    int
	BasisUpdates        int
	FTRANCount          int
	BTRANCount          int
	PeakUFill           int
	NodePresolveFixings int

	// DenseFallbacks is always 0: the solver has one LP engine and nothing
	// to fall back to. It stays for readers of the counter that predate
	// that.
	DenseFallbacks int
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
		PeakUFill: sol.PeakUFill, NodePresolveFixings: sol.NodePresolveFixings,
	}
}

// modeClass is one column family of the planning MIP: the feasible modes of
// one (link, path) that the model cannot tell apart — the same pixels, the
// same capacity coefficient and the same objective. Its binary for start
// pixel q is column base+q.
type modeClass struct {
	first, last *transponder.Mode // its first and last mode in catalog order
	pixels      int
	coef, obj   float64
	base        solver.VarID
}

// linkPath is one candidate path of one IP link: its feasible modes in
// catalog order, classOf[k] the class of modes[k] (−1: wider than the
// grid), and the classes in the order of their first modes.
type linkPath struct {
	link, index int // position in p.IP.Links, candidate path index
	path        *topology.Path
	modes       []*transponder.Mode
	classOf     []int32
	classes     []modeClass
}

// SolveExact builds Algorithm 1 as a mixed-integer program and solves it
// with the internal branch-and-bound. The formulation follows the paper,
// with one standard encoding observation: fixing a wavelength's format j
// and starting pixel q determines its slot occupancy s_w^{j,q} on every
// fiber of its path, so constraints (4)–(6) (consistency, status,
// transponder count) hold by construction and only (1) capacity and (3)
// conflict appear as rows. Constraint (2) reach is enforced by never
// creating infeasible (path, format) variables.
//
// The model is built already reduced, as the solver's presolve would
// shrink the verbatim one, so presolve finds nothing left to remove:
//
//   - Demand-capped rates. A γ's capacity coefficient is min(rate, demand):
//     one binary never covers more than its link's demand. This is what
//     makes the full-T-backbone MIP tractable. With raw rates the LP
//     relaxation covers a demand with a tiny fraction of one high-rate
//     channel, putting its bound near zero transponders per link; capped,
//     the LP counts one transponder per link — the integer optimum — so the
//     bound prunes instead of enumerating start-pixel symmetries.
//   - One column per mode class. Modes of one (link, path) with the same
//     pixels, capped coefficient and objective are interchangeable in the
//     model (RADWAN's rates at one spacing, once capped, usually are), so a
//     class gets one binary per start pixel, named after its first mode.
//   - Only maximal conflict rows. A fiber whose set of carried paths lies
//     inside another fiber's has rows that are subsets of that fiber's (on
//     equal sets the lower fiber index keeps its rows). On a kept fiber a
//     pixel's users are intervals, so a pixel has users no other pixel's
//     contain only where some γ ends and some γ started since the last kept
//     pixel. Every dropped row is a subset of a kept ≤ 1 row, so the
//     integer feasible set is unchanged.
//
// A plan wavelength is a class column at 1. When the search answers with
// the heuristic's start itself, it carries the heuristic wavelength's own
// mode; otherwise the class's last mode in catalog order.
//
// The search starts from the heuristic: when Solve's plan serves every
// demand it is the MIP start, so branch-and-bound begins with an incumbent
// (often the LP bound alone proves it optimal), and a solve stopped by
// MaxNodes or the context still returns a plan, with LimitReached and its
// proven Gap.
//
// The build refuses — rather than thrash — once the class columns it
// would build pass opts.MaxBuildVars(): Options.MaxVars when set,
// otherwise solver.DefaultMaxVars (250000). Production-scale instances
// (hundreds of links on a 384-pixel grid) still belong to the heuristic
// Solve, exactly as the paper's Gurobi runs take "hours of runtime" on
// theirs.
func SolveExact(p Problem, opts solver.Options) (*Result, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	paths, err := candidatePaths(p)
	if err != nil {
		return nil, err
	}
	px := p.Grid.Pixels

	// Pre-pass: resolve every (link, path)'s feasible modes into classes and
	// count the columns, so the over-cap refusal happens before any model
	// is built and the model is allocated at its final size. lps holds every
	// candidate path, link by link: link l's path pi is
	// lps[firstPath[l.ID]+pi].
	nPaths, nModes := 0, 0
	for _, link := range p.IP.Links {
		nPaths += len(paths[link.ID])
	}
	lps := make([]linkPath, 0, nPaths)
	firstPath := make(map[string]int, len(p.IP.Links))
	for li, link := range p.IP.Links {
		firstPath[link.ID] = len(lps)
		for pi := range paths[link.ID] {
			path := &paths[link.ID][pi]
			modes := p.Catalog.FeasibleModes(path.LengthKm)
			lps = append(lps, linkPath{link: li, index: pi, path: path, modes: modes})
			nModes += len(modes)
		}
	}
	classOf := make([]int32, nModes)
	classes := make([]modeClass, 0, nModes) // never regrown: lp.classes alias it
	nCols := 0
	for i := range lps {
		lp := &lps[i]
		lp.classOf, classOf = classOf[:len(lp.modes)], classOf[len(lp.modes):]
		first := len(classes)
		demand := float64(p.IP.Links[lp.link].DemandGbps)
		for k, mode := range lp.modes {
			pixels := mode.Pixels(p.Grid)
			if pixels > px {
				lp.classOf[k] = -1
				continue
			}
			coef := float64(mode.DataRateGbps)
			if demand > 0 {
				coef = min(coef, demand)
			}
			obj := 1 + p.epsilon()*mode.SpacingGHz
			c := first
			for c < len(classes) && (classes[c].pixels != pixels || classes[c].coef != coef || classes[c].obj != obj) {
				c++
			}
			if c == len(classes) {
				classes = append(classes, modeClass{first: mode, pixels: pixels, coef: coef, obj: obj})
				nCols += px - pixels + 1
			}
			classes[c].last = mode
			lp.classOf[k] = int32(c - first)
		}
		lp.classes = classes[first:len(classes):len(classes)]
	}
	if maxVars := opts.MaxBuildVars(); nCols > maxVars {
		return nil, fmt.Errorf("plan: exact MIP exceeds %d variables (Options.MaxVars); use the heuristic Solve or raise the cap", maxVars)
	}

	m := solver.NewModel("flexwan-planning", solver.Minimize)
	m.Grow(nCols, len(p.IP.Links))

	// Every (link, path) names its columns with the same few catalog
	// modes: format each mode's label once.
	labels := make(map[*transponder.Mode]string, len(p.Catalog.Modes))
	label := func(mode *transponder.Mode) string {
		s, ok := labels[mode]
		if !ok {
			s = mode.String()
			labels[mode] = s
		}
		return s
	}

	// A channel of the same class may be needed more than once per (link,
	// path): the binary γ encoding expresses multiplicity through distinct
	// starting pixels q, exactly as the paper defines the q-th order.
	// Constraint (1), capacity, closes each link's columns.
	for _, link := range p.IP.Links {
		linkPaths := lps[firstPath[link.ID]:][:len(paths[link.ID])]
		n := 0
		for _, lp := range linkPaths {
			for _, cl := range lp.classes {
				n += px - cl.pixels + 1
			}
		}
		linkTerms := make([]solver.Term, 0, n)
		for _, lp := range linkPaths {
			for c := range lp.classes {
				cl := &lp.classes[c]
				// One name prefix per class: the per-variable name is then a
				// single concatenation, not an fmt.Sprintf.
				prefix := "g[" + link.ID + "," + strconv.Itoa(lp.index) + "," + label(cl.first) + ","
				cl.base = solver.VarID(m.NumVars())
				for q := 0; q+cl.pixels <= px; q++ {
					id := m.AddBinVar(prefix+strconv.Itoa(q)+"]", cl.obj)
					linkTerms = append(linkTerms, solver.Term{Var: id, Coef: cl.coef})
				}
			}
		}
		if len(linkTerms) == 0 {
			return nil, fmt.Errorf("plan: no feasible (path, mode) for link %s", link.ID)
		}
		if err := m.AddConstraint("cap["+link.ID+"]", linkTerms, solver.GE, float64(link.DemandGbps)); err != nil {
			return nil, err
		}
	}

	if err := addConflictRows(m, lps, px); err != nil {
		return nil, err
	}

	// The heuristic's plan, when it serves every demand, is the search's
	// MIP start: each of its wavelengths sets the column of its (link, path
	// index, class of its mode, start pixel), and carry remembers the
	// wavelength's mode for that column. If a wavelength finds no column, no
	// start is set. The solver checks the start against the model and only
	// ever replaces it with a better plan.
	var start []float64
	var carry []*transponder.Mode
	if h, err := Solve(p); err == nil && h.Feasible() {
		start = make([]float64, m.NumVars())
		carry = make([]*transponder.Mode, m.NumVars())
		for _, w := range h.Wavelengths {
			var id solver.VarID
			var mode *transponder.Mode
			if i, ok := firstPath[w.LinkID]; ok && w.PathIndex >= 0 && w.PathIndex < len(paths[w.LinkID]) {
				id, mode = lps[i+w.PathIndex].column(w, px)
			}
			if mode == nil {
				start = nil
				break
			}
			start[id], carry[id] = 1, mode
		}
		if start != nil {
			m.SetStart(start)
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
	// Wavelengths come out by (link, path, mode in catalog order, start
	// pixel): each column at 1 is emitted at the mode it carries.
	kept := start != nil && slices.Equal(sol.Values, start)
	for _, lp := range lps {
		linkID := p.IP.Links[lp.link].ID
		for k, mode := range lp.modes {
			if lp.classOf[k] < 0 {
				continue
			}
			cl := &lp.classes[lp.classOf[k]]
			for q := 0; q+cl.pixels <= px; q++ {
				id := cl.base + solver.VarID(q)
				if sol.IntValue(id) != 1 {
					continue
				}
				carried := cl.last
				if kept {
					carried = carry[id]
				}
				if carried != mode {
					continue
				}
				iv := spectrum.Interval{Start: q, Count: cl.pixels}
				if err := res.Allocator.AllocateExact(spectrum.FiberIDs(nil, lp.path.Fibers), iv); err != nil {
					return nil, fmt.Errorf("plan: MIP solution violates spectrum constraints: %w", err)
				}
				res.Wavelengths = append(res.Wavelengths, Wavelength{
					LinkID:    linkID,
					PathIndex: lp.index,
					Path:      lp.path,
					Mode:      mode,
					Interval:  iv,
				})
				pl := res.PerLink[linkID]
				pl.Wavelengths++
				pl.ProvisionedGbps += mode.DataRateGbps
				res.PerLink[linkID] = pl
			}
		}
	}
	return res, nil
}

// column returns the column of the heuristic wavelength w on this path —
// the class holding a mode equal to w's, at start pixel w.Interval.Start —
// and that class member; nil when no column matches.
func (lp *linkPath) column(w Wavelength, px int) (solver.VarID, *transponder.Mode) {
	for k, mode := range lp.modes {
		if lp.classOf[k] < 0 || *mode != *w.Mode {
			continue
		}
		cl := &lp.classes[lp.classOf[k]]
		if q := w.Interval.Start; q >= 0 && q+cl.pixels <= px {
			return cl.base + solver.VarID(q), mode
		}
		return 0, nil
	}
	return 0, nil
}

// addConflictRows adds constraint (3), each fiber pixel used at most once,
// as only the rows no other row contains. The fibers of the carried paths
// (those with a column) are indexed densely in name order, each with the
// bitset of the carried paths it holds. A fiber whose set lies inside
// another's is dropped (on equal sets the lower index stays). On a kept
// fiber a pixel gets a row where some γ ends and some γ started since the
// last row, and only when it has two or more users. Every class puts a γ
// at each start pixel it fits, so with m the narrowest class on the fiber,
// γs start at pixels 0..P−m and end at m−1..P−1, and those pixels are
// m−1..max(m−1, P−m). Terms come in column order.
func addConflictRows(m *solver.Model, lps []linkPath, px int) error {
	var carried []int32 // path id → index into lps
	fiberIdx := make(map[string]int32)
	for i := range lps {
		if len(lps[i].classes) == 0 {
			continue
		}
		carried = append(carried, int32(i))
		for _, f := range lps[i].path.Fibers {
			fiberIdx[f] = 0
		}
	}
	fibers := make([]string, 0, len(fiberIdx))
	for f := range fiberIdx {
		fibers = append(fibers, f)
	}
	sort.Strings(fibers)
	for i, f := range fibers {
		fiberIdx[f] = int32(i)
	}
	words := (len(carried) + 63) / 64
	sets := make([]uint64, len(fibers)*words)
	narrowest := make([]int, len(fibers))
	for i := range narrowest {
		narrowest[i] = px + 1
	}
	for pid, i := range carried {
		lp := &lps[i]
		for _, f := range lp.path.Fibers {
			fi := int(fiberIdx[f])
			sets[fi*words+pid/64] |= 1 << (pid % 64)
			for _, cl := range lp.classes {
				narrowest[fi] = min(narrowest[fi], cl.pixels)
			}
		}
	}
	set := func(fi int) []uint64 { return sets[fi*words : (fi+1)*words] }
	// within reports whether a ⊆ b, and equal whether a = b.
	within := func(a, b []uint64) (sub, equal bool) {
		equal = true
		for w := range a {
			if a[w]&^b[w] != 0 {
				return false, false
			}
			equal = equal && a[w] == b[w]
		}
		return true, equal
	}
	kept, rows := make([]int, 0, len(fibers)), 0
	for fi := range fibers {
		dropped := false
		for gi := range fibers {
			if sub, equal := within(set(fi), set(gi)); gi != fi && sub && (!equal || gi < fi) {
				dropped = true
				break
			}
		}
		if !dropped {
			kept = append(kept, fi)
			rows += max(0, px-2*narrowest[fi]+1) + 1
		}
	}
	m.Grow(0, rows)
	var terms []solver.Term // reused row buffer; AddConstraint copies
	for _, fi := range kept {
		narrow := narrowest[fi]
		for w := narrow - 1; w <= max(narrow-1, px-narrow); w++ {
			terms = terms[:0]
			for wi, word := range set(fi) {
				for ; word != 0; word &= word - 1 {
					lp := &lps[carried[wi*64+bits.TrailingZeros64(word)]]
					for _, cl := range lp.classes {
						for q := max(0, w-cl.pixels+1); q <= min(w, px-cl.pixels); q++ {
							terms = append(terms, solver.Term{Var: cl.base + solver.VarID(q), Coef: 1})
						}
					}
				}
			}
			if len(terms) < 2 {
				continue // a single user cannot conflict
			}
			if err := m.AddConstraint("slot["+fibers[fi]+","+strconv.Itoa(w)+"]", terms, solver.LE, 1); err != nil {
				return err
			}
		}
	}
	return nil
}
