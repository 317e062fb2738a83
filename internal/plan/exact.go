package plan

import (
	"fmt"
	"math"
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
// status, branch-and-bound nodes explored, the proven optimality gap, and
// the LP work underneath (simplex pivots, dual-simplex warm-start hits).
// Nil on heuristic results. A benchmark retains one per solve, so it keeps
// only the counters something reads; solver.Solution has the rest.
type SolveStats struct {
	Status        solver.Status
	Objective     float64
	Nodes         int
	Gap           float64
	SimplexIters  int
	WarmStartHits int

	// BoundFlips counts boxed nonbasic variables the long-step dual ratio
	// test flipped bound-to-bound.
	BoundFlips int

	// LU/basis health of the simplex underneath the search: full
	// refactorizations and FTRAN/BTRAN counts, and bounds tightened by
	// per-node presolve propagation.
	Refactorizations    int
	FTRANCount          int
	BTRANCount          int
	NodePresolveFixings int

	// PresolveRows, PresolveCols and DenseFallbacks are always 0: builders
	// emit their models reduced and the solver solves them as given, with
	// one LP engine and nothing to fall back to. They stay for readers of
	// the counters that predate that.
	PresolveRows   int
	PresolveCols   int
	DenseFallbacks int
}

// NewSolveStats copies the search statistics out of a solver Solution.
func NewSolveStats(sol solver.Solution) *SolveStats {
	return &SolveStats{
		Status: sol.Status, Objective: sol.Objective,
		Nodes: sol.Nodes, Gap: sol.Gap,
		SimplexIters: sol.SimplexIters, WarmStartHits: sol.WarmStartHits,
		BoundFlips:       sol.BoundFlips,
		Refactorizations: sol.Refactorizations,
		FTRANCount:       sol.FTRANCount, BTRANCount: sol.BTRANCount,
		NodePresolveFixings: sol.NodePresolveFixings,
	}
}

// modeClass is one column family of the planning MIP: the feasible modes of
// one (link, path) that the model cannot tell apart — the same pixels, the
// same capacity coefficient and the same objective. Its binary for start
// pixel q is column base+q. A class of a path the model cannot tell from an
// earlier path of its link (see shareClasses) has no columns of its own:
// owner is the earlier path's matching class, whose base it shares.
type modeClass struct {
	first, last *transponder.Mode // its first and last mode in catalog order
	pixels      int
	coef, obj   float64
	base        solver.VarID
	owner       *modeClass
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
// The model is built irreducible, and the solver solves it as given:
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
//   - Interchangeable paths share columns. Two candidate paths of one link
//     that hold the same kept fibers meet the same conflict rows, so a
//     class of the later path shares the columns of the earlier path's
//     matching class. (The heuristic walks paths in length order and so
//     never prefers the later one; a plan that does sets no start.)
//
// A plan wavelength is a class column at 1, on the path that owns the
// column. When the search answers with the heuristic's start itself, it
// carries the heuristic wavelength's own mode; otherwise the class's last
// mode in catalog order.
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
	fs := conflictFibers(lps, px)
	nCols -= shareClasses(lps, fs, px)
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
	var names nameBuf
	for _, link := range p.IP.Links {
		linkPaths := lps[firstPath[link.ID]:][:len(paths[link.ID])]
		n := 0
		for _, lp := range linkPaths {
			for _, cl := range lp.classes {
				if cl.owner == nil {
					n += px - cl.pixels + 1
				}
			}
		}
		linkTerms := make([]solver.Term, 0, n)
		for _, lp := range linkPaths {
			for c := range lp.classes {
				cl := &lp.classes[c]
				if cl.owner != nil {
					cl.base = cl.owner.base
					continue
				}
				// One string holds the class's column names, g[link,path,
				// mode,q] for every q; each column takes its substring.
				names.reset()
				pi, mode := strconv.Itoa(lp.index), label(cl.first)
				for q := 0; q+cl.pixels <= px; q++ {
					names.add("g[", link.ID, ",", pi, ",", mode, ",", strconv.Itoa(q), "]")
				}
				names.seal()
				cl.base = solver.VarID(m.NumVars())
				for q := 0; q+cl.pixels <= px; q++ {
					id := m.AddBinVar(names.name(q), cl.obj)
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

	if err := addConflictRows(m, lps, fs, px, &names); err != nil {
		return nil, err
	}

	// The heuristic's plan, when it serves every demand, is the search's
	// MIP start: each of its wavelengths sets the column of its (link, path
	// index, class of its mode, start pixel), and carry remembers the
	// wavelength's mode for that column. If a wavelength finds no column of
	// its path's own, no start is set. The solver checks the start against
	// the model and only ever replaces it with a better plan.
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
	// pixel): each column at 1 is emitted on the path owning it, at the
	// mode it carries.
	kept := start != nil && slices.Equal(sol.Values, start)
	for _, lp := range lps {
		linkID := p.IP.Links[lp.link].ID
		for k, mode := range lp.modes {
			if lp.classOf[k] < 0 || lp.classes[lp.classOf[k]].owner != nil {
				continue
			}
			cl := &lp.classes[lp.classOf[k]]
			for q := 0; q+cl.pixels <= px; q++ {
				id := cl.base + solver.VarID(q)
				if math.Round(sol.Values[id]) != 1 {
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
// and that class member; nil when no column matches, or when the class
// shares another path's columns, which would carry w onto that path.
func (lp *linkPath) column(w Wavelength, px int) (solver.VarID, *transponder.Mode) {
	for k, mode := range lp.modes {
		if lp.classOf[k] < 0 || *mode != *w.Mode {
			continue
		}
		cl := &lp.classes[lp.classOf[k]]
		if q := w.Interval.Start; cl.owner == nil && q >= 0 && q+cl.pixels <= px {
			return cl.base + solver.VarID(q), mode
		}
		return 0, nil
	}
	return 0, nil
}

// nameBuf formats a run of names into one string, so one allocation holds
// them all: reset, add each name, seal, then take each name as a
// substring.
type nameBuf struct {
	buf  []byte
	ends []int
	all  string
}

func (b *nameBuf) reset() { b.buf, b.ends = b.buf[:0], b.ends[:0] }

// add appends one name, the concatenation of parts.
func (b *nameBuf) add(parts ...string) {
	for _, s := range parts {
		b.buf = append(b.buf, s...)
	}
	b.ends = append(b.ends, len(b.buf))
}

func (b *nameBuf) seal() { b.all = string(b.buf) }

// name is the i-th name added since the last reset.
func (b *nameBuf) name(i int) string {
	from := 0
	if i > 0 {
		from = b.ends[i-1]
	}
	return b.all[from:b.ends[i]]
}

// fiberSets holds the fibers of the carried paths (the paths with a
// column), indexed densely in name order, each with the bitset of the
// carried paths it holds, the pixels of its narrowest class, and whether it
// keeps conflict rows: it does when no other fiber's set contains its own
// (on equal sets the lower index keeps them).
type fiberSets struct {
	carried   []int32 // carried path id → index into lps
	names     []string
	index     map[string]int32
	words     int
	sets      []uint64
	narrowest []int
	kept      []bool
}

// set is fiber fi's bitset of carried paths.
func (fs *fiberSets) set(fi int) []uint64 { return fs.sets[fi*fs.words : (fi+1)*fs.words] }

// conflictFibers indexes the fibers of lps' carried paths and decides which
// keep conflict rows.
func conflictFibers(lps []linkPath, px int) *fiberSets {
	fs := &fiberSets{index: make(map[string]int32)}
	for i := range lps {
		if len(lps[i].classes) == 0 {
			continue
		}
		fs.carried = append(fs.carried, int32(i))
		for _, f := range lps[i].path.Fibers {
			fs.index[f] = 0
		}
	}
	fs.names = make([]string, 0, len(fs.index))
	for f := range fs.index {
		fs.names = append(fs.names, f)
	}
	sort.Strings(fs.names)
	for i, f := range fs.names {
		fs.index[f] = int32(i)
	}
	fs.words = (len(fs.carried) + 63) / 64
	fs.sets = make([]uint64, len(fs.names)*fs.words)
	fs.narrowest = make([]int, len(fs.names))
	for i := range fs.narrowest {
		fs.narrowest[i] = px + 1
	}
	for pid, i := range fs.carried {
		lp := &lps[i]
		for _, f := range lp.path.Fibers {
			fi := int(fs.index[f])
			fs.sets[fi*fs.words+pid/64] |= 1 << (pid % 64)
			for _, cl := range lp.classes {
				fs.narrowest[fi] = min(fs.narrowest[fi], cl.pixels)
			}
		}
	}
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
	fs.kept = make([]bool, len(fs.names))
	for fi := range fs.names {
		fs.kept[fi] = true
		for gi := range fs.names {
			if sub, equal := within(fs.set(fi), fs.set(gi)); gi != fi && sub && (!equal || gi < fi) {
				fs.kept[fi] = false
				break
			}
		}
	}
	return fs
}

// shareClasses lets a class share the columns of the matching class — the
// same pixels, capacity coefficient and objective — on an earlier path of
// its link when the two paths hold the same kept fibers: every conflict
// row then holds both classes' γs at a start pixel or neither, and neither
// the capacity row nor the objective tells them apart. It returns the
// columns the shared classes do not build.
func shareClasses(lps []linkPath, fs *fiberSets, px int) int {
	saved := 0
	var keptOn [][]int32 // keptOn[i-first]: the kept fibers on the link's path i, ascending
	for first := 0; first < len(lps); {
		end := first + 1
		for end < len(lps) && lps[end].link == lps[first].link {
			end++
		}
		if end-first > 1 {
			keptOn = keptOn[:0]
			for i := first; i < end; i++ {
				var on []int32
				if len(lps[i].classes) > 0 {
					for _, f := range lps[i].path.Fibers {
						if fi := fs.index[f]; fs.kept[fi] {
							on = append(on, fi)
						}
					}
					slices.Sort(on)
				}
				keptOn = append(keptOn, on)
			}
			for i := first + 1; i < end; i++ {
				for c := range lps[i].classes {
					cl := &lps[i].classes[c]
				search:
					for j := first; j < i; j++ {
						if !slices.Equal(keptOn[i-first], keptOn[j-first]) {
							continue
						}
						for d := range lps[j].classes {
							if o := &lps[j].classes[d]; o.owner == nil && o.pixels == cl.pixels && o.coef == cl.coef && o.obj == cl.obj {
								cl.owner = o
								saved += px - cl.pixels + 1
								break search
							}
						}
					}
				}
			}
		}
		first = end
	}
	return saved
}

// addConflictRows adds constraint (3), each fiber pixel used at most once,
// as only the rows no other row contains: on each kept fiber of fs, a pixel
// gets a row where some γ ends and some γ started since the last row, and
// only when it has two or more users. Every class puts a γ at each start
// pixel it fits, so with m the narrowest class on the fiber, γs start at
// pixels 0..P−m and end at m−1..P−1, and those pixels are
// m−1..max(m−1, P−m). A shared class adds no terms: its columns are its
// owner's, already in the row. Terms come in column order.
func addConflictRows(m *solver.Model, lps []linkPath, fs *fiberSets, px int, names *nameBuf) error {
	rows := 0
	for fi, kept := range fs.kept {
		if kept {
			rows += max(0, px-2*fs.narrowest[fi]+1) + 1
		}
	}
	m.Grow(0, rows)
	var terms []solver.Term // reused row buffer; AddConstraint copies
	for fi, kept := range fs.kept {
		if !kept {
			continue
		}
		narrow := fs.narrowest[fi]
		last := max(narrow-1, px-narrow)
		names.reset()
		for w := narrow - 1; w <= last; w++ {
			names.add("slot[", fs.names[fi], ",", strconv.Itoa(w), "]")
		}
		names.seal()
		for w := narrow - 1; w <= last; w++ {
			terms = terms[:0]
			for wi, word := range fs.set(fi) {
				for ; word != 0; word &= word - 1 {
					lp := &lps[fs.carried[wi*64+bits.TrailingZeros64(word)]]
					for _, cl := range lp.classes {
						if cl.owner != nil {
							continue
						}
						for q := max(0, w-cl.pixels+1); q <= min(w, px-cl.pixels); q++ {
							terms = append(terms, solver.Term{Var: cl.base + solver.VarID(q), Coef: 1})
						}
					}
				}
			}
			if len(terms) < 2 {
				continue // a single user cannot conflict
			}
			if err := m.AddConstraint(names.name(w-narrow+1), terms, solver.LE, 1); err != nil {
				return err
			}
		}
	}
	return nil
}
