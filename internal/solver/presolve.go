package solver

import (
	"cmp"
	"math"
	"slices"
)

// Presolve tolerances. preFeasTol matches the simplex feasTol so presolve
// never declares infeasible a model the simplex would accept; preIntTol
// matches the branch-and-bound intTol for the same reason on integrality.
const (
	preFeasTol = 1e-7
	preIntTol  = 1e-6
	// preMaxPasses caps the reduction fixpoint loop; each pass is O(nnz)
	// and the loop exits early once a pass changes nothing.
	preMaxPasses = 10
	// preDominatedCap bounds the O(rows²·terms) dominated-row sweep: past
	// this many live inequality rows the sweep is skipped rather than risk
	// quadratic blowup on huge models.
	preDominatedCap = 1024
)

// preRow is one constraint under reduction: a working copy of the model
// row whose terms shrink as variables are fixed and whose live flag drops
// when the row is eliminated (empty, singleton-folded, redundant, or
// dominated).
type preRow struct {
	name  string
	terms []Term
	rel   Rel
	rhs   float64
	live  bool
}

// presolved is the outcome of Model.presolve: the reduced model plus the
// mapping postsolve needs to rehydrate a reduced-space Solution against
// the original VarIDs. All reductions preserve the MILP's optimal
// objective and its feasibility/unboundedness status:
//
//   - bound tightenings (propagation, singleton folding, integer
//     rounding) are implied by the constraints, so the integer-feasible
//     set is untouched;
//   - fixed-variable substitution and empty/redundant/dominated-row
//     removal delete only rows no feasible point can violate;
//   - dual fixing moves any optimum to an equally good one with the
//     variable at its bound, and is skipped when that bound is infinite
//     so an unbounded model stays visibly unbounded in the reduced LP;
//   - duplicate-column merging replaces x_j + x_k (identical columns,
//     objective, integrality, finite bounds) by one variable over the
//     Minkowski-sum bounds, which postsolve splits back.
type presolved struct {
	orig    *Model
	reduced *Model

	// infeasible reports that presolve proved the model infeasible before
	// any simplex ran (conflicting bounds or an unsatisfiable row).
	infeasible bool

	rowsRemoved int // original minus reduced constraint count
	colsRemoved int // original minus reduced variable count

	lb, ub []float64 // tightened working bounds, original indexing
	fixed  []bool    // variable forced to a single value
	fixVal []float64 // the forced value (valid when fixed)
	newID  []int     // original var → reduced column, -1 when eliminated
	groups [][]int   // duplicate-column groups, ascending; [0] is the rep
	grpOf  []int     // original var → index into groups, -1

	// clock ticks at every change of a variable's bounds or fixing, and
	// stamp[v] is the tick of v's last one: what fixpoint reads to tell a
	// stale row from one it can skip.
	clock int32
	stamp []int32
}

// presolveState is the working state every presolve pass starts from:
// bounds copied from the model, no fixings, no duplicate groups, and every
// constraint live over its own copy of the terms. It is a function of its
// own so the differential tests can run a single pass (mergeDuplicates
// against its row-rescanning oracle) from exactly the state presolve builds;
// presolve is its only other caller.
func (m *Model) presolveState() (*presolved, []preRow) {
	nv := len(m.vars)
	p := &presolved{
		orig:   m,
		lb:     make([]float64, nv),
		ub:     make([]float64, nv),
		fixed:  make([]bool, nv),
		fixVal: make([]float64, nv),
		grpOf:  make([]int, nv),
		stamp:  make([]int32, nv),
	}
	for i := range m.vars {
		p.lb[i], p.ub[i] = m.vars[i].lb, m.vars[i].ub
		p.grpOf[i] = -1
	}
	rows := make([]preRow, len(m.cons))
	// One arena for every row's working term copy instead of a slice
	// allocation per row. Passes only ever shrink a row's terms in place,
	// so the sub-slices never collide; the capacity is pre-counted so the
	// arena never reallocates under them.
	nnz := 0
	for i := range m.cons {
		nnz += len(m.cons[i].terms)
	}
	arena := make([]Term, 0, nnz)
	for i := range m.cons {
		c := &m.cons[i]
		start := len(arena)
		arena = append(arena, c.terms...)
		rows[i] = preRow{
			name:  c.name,
			terms: arena[start:len(arena):len(arena)],
			rel:   c.rel,
			rhs:   c.rhs,
			live:  true,
		}
	}
	return p, rows
}

// presolve reduces the model. The returned mapping is valid even when no
// reduction fired (identity); callers solve p.reduced and pass the result
// through p.postsolve.
func (m *Model) presolve(logf func(format string, args ...interface{})) *presolved {
	p, rows := m.presolveState()
	if !p.fixpoint(rows) {
		p.infeasible = true
		return p
	}
	p.removeDominated(rows)
	p.mergeDuplicates(rows)
	p.build(rows)
	if p.infeasible {
		return p
	}
	if logf != nil && (p.rowsRemoved > 0 || p.colsRemoved > 0) {
		logf("solver: presolve removed %d/%d rows and %d/%d columns",
			p.rowsRemoved, len(m.cons), p.colsRemoved, len(m.vars))
	}
	return p
}

// fixpoint runs the reductions that feed each other — the row visits
// (fixed-variable substitution, reduceRow, coefficient tightening), integer
// bound rounding, fixing detection and dual fixing — in passes until one
// changes nothing, at most preMaxPasses. It returns false when they prove
// the model infeasible.
//
// A pass visits only stale rows. A visit is a deterministic function of
// the row and of its variables' bounds and fixings, and a visit that
// reports no change has made none. So a row whose last visit changed
// nothing, and none of whose variables has been stamped since, would change
// nothing again: skipping it is exact, and every pass ends in the state and
// with the verdict the full rescan reached.
func (p *presolved) fixpoint(rows []preRow) bool {
	if !p.roundIntegerBounds() {
		return false
	}
	p.detectFixed()
	// clean[r] is the clock at row r's last visit if that visit changed
	// nothing, −1 otherwise.
	clean := make([]int32, len(rows))
	for r := range clean {
		clean[r] = -1
	}
	for pass := 0; pass < preMaxPasses; pass++ {
		changed := false
		for r := range rows {
			row := &rows[r]
			if !row.live || p.unchangedSince(row, clean[r]) {
				continue
			}
			dirty := p.substituteFixed(row)
			switch p.reduceRow(row) {
			case preInfeasible:
				return false
			case preChanged:
				dirty = true
			}
			if row.live && p.tightenCoefs(row) {
				dirty = true
			}
			clean[r] = p.clock
			if dirty {
				clean[r] = -1
				changed = true
			}
		}
		if !p.roundIntegerBounds() {
			return false
		}
		if p.detectFixed() {
			changed = true
		}
		if p.dualFix(rows) {
			changed = true
			// Dual fixing collapses bounds; record the fixes now so the
			// next pass substitutes them out of the rows.
			p.detectFixed()
		}
		if !changed {
			break
		}
	}
	return true
}

// unchangedSince reports whether no variable of the row has been stamped
// after clean, the clock at the row's last unchanging visit (−1: none).
func (p *presolved) unchangedSince(row *preRow, clean int32) bool {
	if clean < 0 {
		return false
	}
	for _, t := range row.terms {
		if p.stamp[t.Var] > clean {
			return false
		}
	}
	return true
}

// touch stamps variable v as changed.
func (p *presolved) touch(v int) {
	p.clock++
	p.stamp[v] = p.clock
}

// setBounds is the one writer of the working bounds. A change — bit for
// bit, so even a zero changing sign counts — stamps the variable.
func (p *presolved) setBounds(v int, lb, ub float64) {
	if math.Float64bits(lb) != math.Float64bits(p.lb[v]) || math.Float64bits(ub) != math.Float64bits(p.ub[v]) {
		p.lb[v], p.ub[v] = lb, ub
		p.touch(v)
	}
}

type preOutcome int

const (
	preNone preOutcome = iota
	preChanged
	preInfeasible
)

// roundIntegerBounds snaps integer-variable bounds onto the integer grid
// (only fractional range is cut, so the integer-feasible set is
// unchanged). Returns false when any variable's bounds now contradict.
func (p *presolved) roundIntegerBounds() bool {
	for i := range p.orig.vars {
		if p.orig.vars[i].integer {
			p.setBounds(i, math.Ceil(p.lb[i]-preIntTol), math.Floor(p.ub[i]+preIntTol))
		}
		if p.lb[i] > p.ub[i]+preFeasTol {
			return false
		}
	}
	return true
}

// detectFixed marks variables whose bounds have collapsed and records the
// forced value. Reports whether any new variable was fixed.
func (p *presolved) detectFixed() bool {
	changed := false
	for i := range p.orig.vars {
		if p.fixed[i] {
			continue
		}
		if math.IsInf(p.lb[i], -1) || math.IsInf(p.ub[i], 1) {
			continue
		}
		width := p.ub[i] - p.lb[i]
		if width > 1e-9*math.Max(1, math.Abs(p.lb[i])) {
			continue
		}
		v := p.lb[i]
		if p.orig.vars[i].integer {
			v = math.Round(v)
		}
		p.fixed[i] = true
		p.fixVal[i] = v
		p.touch(i)
		changed = true
	}
	return changed
}

// substituteFixed folds fixed variables into the row's rhs and drops
// their terms.
func (p *presolved) substituteFixed(row *preRow) bool {
	changed := false
	out := row.terms[:0]
	for _, t := range row.terms {
		if p.fixed[t.Var] {
			row.rhs -= t.Coef * p.fixVal[t.Var]
			changed = true
			continue
		}
		out = append(out, t)
	}
	row.terms = out
	return changed
}

// reduceRow applies the per-row reductions: empty-row elimination,
// singleton folding into bounds, activity-based redundancy/infeasibility,
// and bound propagation onto integer variables.
func (p *presolved) reduceRow(row *preRow) preOutcome {
	tol := preFeasTol * math.Max(1, math.Abs(row.rhs))
	if len(row.terms) == 0 {
		ok := false
		switch row.rel {
		case LE:
			ok = row.rhs >= -tol
		case GE:
			ok = row.rhs <= tol
		case EQ:
			ok = math.Abs(row.rhs) <= tol
		}
		if !ok {
			return preInfeasible
		}
		row.live = false
		return preChanged
	}
	if len(row.terms) == 1 {
		return p.foldSingleton(row)
	}

	minAct, maxAct, minInf, maxInf := p.activity(row.terms)
	switch row.rel {
	case LE:
		if minInf == 0 && minAct > row.rhs+tol {
			return preInfeasible
		}
		if maxInf == 0 && maxAct <= row.rhs+tol {
			row.live = false
			return preChanged
		}
	case GE:
		if maxInf == 0 && maxAct < row.rhs-tol {
			return preInfeasible
		}
		if minInf == 0 && minAct >= row.rhs-tol {
			row.live = false
			return preChanged
		}
	case EQ:
		if (minInf == 0 && minAct > row.rhs+tol) || (maxInf == 0 && maxAct < row.rhs-tol) {
			return preInfeasible
		}
		if minInf == 0 && maxInf == 0 && minAct >= row.rhs-tol && maxAct <= row.rhs+tol {
			// Every point in the box already satisfies the equation.
			row.live = false
			return preChanged
		}
	}

	out := preNone
	if row.rel != GE { // LE and EQ propagate the ≤ direction
		switch p.propagate(row.terms, row.rhs, 1, minAct, minInf) {
		case preInfeasible:
			return preInfeasible
		case preChanged:
			out = preChanged
		}
	}
	if row.rel != LE { // GE and EQ propagate the ≥ direction as −a·x ≤ −b
		switch p.propagate(row.terms, -row.rhs, -1, -maxAct, maxInf) {
		case preInfeasible:
			return preInfeasible
		case preChanged:
			out = preChanged
		}
	}
	return out
}

// foldSingleton eliminates a one-term row by folding it into the
// variable's bounds.
func (p *presolved) foldSingleton(row *preRow) preOutcome {
	t := row.terms[0]
	v := int(t.Var)
	limit := row.rhs / t.Coef
	upper := t.Coef > 0 // a·x ≤ b tightens ub when a > 0, lb when a < 0
	changed := false
	tightenUB := func(val float64) {
		if p.orig.vars[v].integer {
			val = math.Floor(val + preIntTol)
		}
		if val < p.ub[v] {
			p.setBounds(v, p.lb[v], val)
			changed = true
		}
	}
	tightenLB := func(val float64) {
		if p.orig.vars[v].integer {
			val = math.Ceil(val - preIntTol)
		}
		if val > p.lb[v] {
			p.setBounds(v, val, p.ub[v])
			changed = true
		}
	}
	switch row.rel {
	case LE:
		if upper {
			tightenUB(limit)
		} else {
			tightenLB(limit)
		}
	case GE:
		if upper {
			tightenLB(limit)
		} else {
			tightenUB(limit)
		}
	case EQ:
		tightenUB(limit)
		tightenLB(limit)
	}
	if p.lb[v] > p.ub[v]+preFeasTol {
		return preInfeasible
	}
	row.live = false
	if changed {
		return preChanged
	}
	return preChanged // the row itself was eliminated either way
}

// activity returns the row's minimum and maximum activity over the
// current bounds, with the count of infinite contributions to each side.
func (p *presolved) activity(terms []Term) (minAct, maxAct float64, minInf, maxInf int) {
	return rowActivity(terms, p.lb, p.ub)
}

// rowActivity computes a row's activity bounds over arbitrary bound
// vectors. Shared by the global presolve and the per-node presolve pass.
func rowActivity(terms []Term, lb, ub []float64) (minAct, maxAct float64, minInf, maxInf int) {
	for _, t := range terms {
		l, u := lb[t.Var], ub[t.Var]
		if t.Coef > 0 {
			if math.IsInf(l, -1) {
				minInf++
			} else {
				minAct += t.Coef * l
			}
			if math.IsInf(u, 1) {
				maxInf++
			} else {
				maxAct += t.Coef * u
			}
		} else {
			if math.IsInf(u, 1) {
				minInf++
			} else {
				minAct += t.Coef * u
			}
			if math.IsInf(l, -1) {
				maxInf++
			} else {
				maxAct += t.Coef * l
			}
		}
	}
	return minAct, maxAct, minInf, maxInf
}

// propagate tightens integer-variable bounds from the row sign·(a·x) ≤
// sign·rhs using the minimum activity of the remaining terms. Only
// integer variables are tightened — their bounds round onto the integer
// grid, which cuts fractional range only — so continuous bounds are never
// perturbed by activity roundoff. minAct/minInf describe the signed row.
func (p *presolved) propagate(terms []Term, rhs, sign, minAct float64, minInf int) preOutcome {
	if minInf > 1 {
		return preNone
	}
	out := preNone
	for _, t := range terms {
		v := int(t.Var)
		if !p.orig.vars[v].integer {
			continue
		}
		coef := sign * t.Coef
		l, u := p.lb[v], p.ub[v]
		contrib, contribInf := 0.0, false
		if coef > 0 {
			if math.IsInf(l, -1) {
				contribInf = true
			} else {
				contrib = coef * l
			}
		} else {
			if math.IsInf(u, 1) {
				contribInf = true
			} else {
				contrib = coef * u
			}
		}
		var rest float64
		if contribInf {
			if minInf != 1 {
				continue
			}
			rest = minAct
		} else {
			if minInf != 0 {
				continue
			}
			rest = minAct - contrib
		}
		limit := (rhs - rest) / coef
		if coef > 0 {
			nb := math.Floor(limit + preIntTol)
			if math.IsInf(u, 1) || nb < u {
				if nb < l-preFeasTol {
					return preInfeasible
				}
				p.setBounds(v, l, nb)
				out = preChanged
			}
		} else {
			nb := math.Ceil(limit - preIntTol)
			if math.IsInf(l, -1) || nb > l {
				if nb > u+preFeasTol {
					return preInfeasible
				}
				p.setBounds(v, nb, u)
				out = preChanged
			}
		}
	}
	return out
}

// tightenCoefs strengthens binary-variable coefficients against the row's
// activity bounds (classic MIP coefficient tightening). In ≤-normalized
// form Σc·x ≤ B, consider a binary x_j and the maximum activity M of the
// other terms: with x_j = 1 the row demands rest ≤ B − c_j, so whenever
// c_j < B − M that demand is weaker than what the box already guarantees
// (rest ≤ M) — raising c_j to B − M cuts no feasible point with
// x_j ∈ {0, 1} (the x_j = 0 side is untouched; the x_j = 1 side still
// admits every rest ≤ M) but strictly tightens the LP relaxation. The
// continuous/general-integer terms sit in "rest", so their feasible set
// is preserved exactly for either binary value.
//
// This is what makes the full-T-backbone exact MIP tractable: its
// capacity rows Σ rate·γ ≥ demand admit LP points that cover a demand
// with a tiny fraction of one high-rate channel, putting the LP bound
// near zero transponders per link. Capping each rate at the demand (the
// GE image of the rule) makes the LP count one transponder per link — the
// integer optimum — so branch-and-bound prunes instead of enumerating
// start-pixel symmetries. A welcome side effect: RADWAN's equal-spacing
// modes then produce bitwise-identical columns at each (path, pixel),
// which mergeDuplicates collapses.
func (p *presolved) tightenCoefs(row *preRow) bool {
	if row.rel == EQ || len(row.terms) < 2 {
		return false
	}
	sign := 1.0
	if row.rel == GE {
		sign = -1
	}
	B := sign * row.rhs
	// Signed maximum activity over the whole row; any infinite bound on a
	// participating variable makes every binary's "rest" unbounded too
	// (binaries themselves always contribute finitely).
	maxAct := 0.0
	for _, t := range row.terms {
		c := sign * t.Coef
		if c > 0 {
			if math.IsInf(p.ub[t.Var], 1) {
				return false
			}
			maxAct += c * p.ub[t.Var]
		} else {
			if math.IsInf(p.lb[t.Var], -1) {
				return false
			}
			maxAct += c * p.lb[t.Var]
		}
	}
	tol := preFeasTol * math.Max(1, math.Abs(B))
	changed := false
	for i := range row.terms {
		t := &row.terms[i]
		v := t.Var
		if !p.orig.vars[v].integer || p.lb[v] != 0 || p.ub[v] != 1 {
			continue
		}
		c := sign * t.Coef
		contrib := 0.0 // c·lb = 0 for c < 0; c·ub = c for c > 0
		if c > 0 {
			contrib = c
		}
		target := B - (maxAct - contrib)
		if target <= c+tol || math.Abs(target) <= tol {
			continue
		}
		t.Coef = sign * target
		// The tightened coefficient's max contribution is target·1 when
		// positive, 0 when negative; keep maxAct consistent for later terms.
		newContrib := 0.0
		if target > 0 {
			newContrib = target
		}
		maxAct += newContrib - contrib
		changed = true
	}
	return changed
}

// dualFix fixes variables whose objective and column signs make one bound
// direction always at least as good: in minimization, a variable with
// c_j ≥ 0 whose decrease relaxes every live row (a_ij ≥ 0 in LE rows,
// ≤ 0 in GE rows, absent from EQ rows) can sit at its lower bound in some
// optimum. The fix is skipped when the target bound is infinite, so a
// model whose LP is unbounded keeps the unbounded ray visible to the
// simplex instead of presolve misreporting it.
func (p *presolved) dualFix(rows []preRow) bool {
	nv := len(p.orig.vars)
	downSafe := make([]bool, nv)
	upSafe := make([]bool, nv)
	for i := range downSafe {
		downSafe[i] = true
		upSafe[i] = true
	}
	for r := range rows {
		if !rows[r].live {
			continue
		}
		for _, t := range rows[r].terms {
			v := t.Var
			switch rows[r].rel {
			case LE:
				if t.Coef < 0 {
					downSafe[v] = false
				} else {
					upSafe[v] = false
				}
			case GE:
				if t.Coef > 0 {
					downSafe[v] = false
				} else {
					upSafe[v] = false
				}
			case EQ:
				downSafe[v] = false
				upSafe[v] = false
			}
		}
	}
	sign := 1.0
	if p.orig.sense == Maximize {
		sign = -1
	}
	changed := false
	for i := range p.orig.vars {
		if p.fixed[i] || p.lb[i] >= p.ub[i] {
			continue
		}
		c := sign * p.orig.vars[i].obj
		switch {
		case c >= 0 && downSafe[i] && !math.IsInf(p.lb[i], -1):
			p.setBounds(i, p.lb[i], p.lb[i])
			changed = true
		case c <= 0 && upSafe[i] && !math.IsInf(p.ub[i], 1):
			p.setBounds(i, p.ub[i], p.ub[i])
			changed = true
		}
	}
	return changed
}

// removeDominated drops inequality rows implied by another row plus the
// bounds: normalizing both rows to a·x ≤ b form, row r dominates row s
// when b_r + max(a_s − a_r)·x over the box ≤ b_s, since then any point
// satisfying r satisfies s. This is what eliminates the nested
// slot-conflict rows the planning MIP generates: a fiber whose users at a
// pixel are a subset of another fiber's users at that pixel contributes a
// dominated ≤ 1 row.
func (p *presolved) removeDominated(rows []preRow) {
	var idx []int
	for r := range rows {
		if rows[r].live && rows[r].rel != EQ {
			idx = append(idx, r)
		}
	}
	if len(idx) < 2 || len(idx) > preDominatedCap {
		return
	}
	// Occurrence lists over the live inequality rows. A dominating row
	// almost always shares variables with the dominated one (a dominator
	// over disjoint support would have to win on bounds alone), so each
	// row is tested only against the rows containing its least-frequent
	// variable — on the planning MIP this turns the all-pairs sweep into
	// a handful of same-pixel comparisons per slot row.
	// Flat CSR layout (counts → offsets → fill) so the lists cost two
	// allocations total instead of one per variable.
	nv := len(p.orig.vars)
	cnt := make([]int, nv+1)
	total := 0
	for _, ri := range idx {
		for _, t := range rows[ri].terms {
			cnt[t.Var+1]++
			total++
		}
	}
	for v := 0; v < nv; v++ {
		cnt[v+1] += cnt[v]
	}
	flat := make([]int32, total)
	fill := make([]int, nv)
	copy(fill, cnt[:nv])
	for _, ri := range idx {
		for _, t := range rows[ri].terms {
			flat[fill[t.Var]] = int32(ri)
			fill[t.Var]++
		}
	}
	occ := func(v int) []int32 { return flat[cnt[v]:cnt[v+1]] }
	// contrib is one variable's share of max(d·x) over the box: d·ub for
	// positive d, d·lb for negative. ok is false when the needed bound is
	// infinite.
	contrib := func(d float64, v VarID) (c float64, ok bool) {
		switch {
		case d > 0:
			if math.IsInf(p.ub[v], 1) {
				return 0, false
			}
			return d * p.ub[v], true
		case d < 0:
			if math.IsInf(p.lb[v], -1) {
				return 0, false
			}
			return d * p.lb[v], true
		}
		return 0, true
	}
	as := make([]float64, nv)         // candidate row s scattered dense (normalized)
	csv := make([]float64, nv)        // per-var contribution of s alone
	norm := func(r *preRow) float64 { // sign normalizing the row to ≤
		if r.rel == GE {
			return -1
		}
		return 1
	}
	for _, si := range idx {
		s := &rows[si]
		if !s.live {
			continue
		}
		rare := -1
		for _, t := range s.terms {
			if rare < 0 || len(occ(int(t.Var))) < len(occ(rare)) {
				rare = int(t.Var)
			}
		}
		if rare < 0 {
			continue
		}
		// Scatter s once; each candidate pair then costs O(|r|): walking
		// r's terms corrects the s-only total sAll to the true
		// max-activity of (a_s − a_r) — for v in both rows the corrected
		// diff replaces s's own contribution, for v only in r it adds on
		// top. Rows touching an infinite bound just skip the sweep (no
		// finite max activity to compare).
		ss := norm(s)
		sAll, sFinite := 0.0, true
		for _, t := range s.terms {
			d := ss * t.Coef
			as[t.Var] = d
			c, ok := contrib(d, t.Var)
			if !ok {
				sFinite = false
			}
			csv[t.Var] = c
			sAll += c
		}
		if sFinite {
			bs := ss * s.rhs
			tol := preFeasTol * math.Max(1, math.Abs(bs))
			for _, ri32 := range occ(rare) {
				ri := int(ri32)
				if ri == si || !rows[ri].live {
					continue
				}
				r := &rows[ri]
				rs := norm(r)
				maxAct, finite := sAll, true
				for _, t := range r.terms {
					c, ok := contrib(as[t.Var]-rs*t.Coef, t.Var)
					if !ok {
						finite = false
						break
					}
					maxAct += c - csv[t.Var]
				}
				if finite && rs*r.rhs+maxAct <= bs+tol {
					s.live = false
					break
				}
			}
		}
		for _, t := range s.terms {
			as[t.Var], csv[t.Var] = 0, 0
		}
	}
}

// mergeDuplicates groups columns that are identical in every live row and
// in the objective, share integrality, and have finite bounds; each group
// collapses to its lowest-VarID representative over the summed bounds.
// Postsolve splits the representative's value back lexicographically
// minimally.
func (p *presolved) mergeDuplicates(rows []preRow) {
	nv := len(p.orig.vars)
	// Column-major index of the live rows (count / prefix-sum / fill, as
	// cscBuild does): column v is col[colPtr[v]:colPtr[v+1]], one
	// (row, coef) entry per nonzero in ascending row order.
	colPtr := make([]int32, nv+1)
	for r := range rows {
		if !rows[r].live {
			continue
		}
		for _, t := range rows[r].terms {
			colPtr[t.Var+1]++
		}
	}
	for v := 0; v < nv; v++ {
		colPtr[v+1] += colPtr[v]
	}
	col := make([]Term, colPtr[nv])
	fill := append([]int32(nil), colPtr[:nv]...)
	for r := range rows {
		if !rows[r].live {
			continue
		}
		for _, t := range rows[r].terms {
			col[fill[t.Var]] = Term{Var: VarID(r), Coef: t.Coef}
			fill[t.Var]++
		}
	}
	colOf := func(v int) []Term { return col[colPtr[v]:colPtr[v+1]] }
	// Order-dependent multiply-xor mix (splitmix-style finalizer): the
	// signature must distinguish (row, coef) sequences, not be
	// cryptographic, and it runs once per nonzero — collisions are
	// resolved by the exact pairwise verification below.
	mix := func(h uint64, x uint64) uint64 {
		h ^= x
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
		return h
	}
	// Sort (hash, var) pairs and walk adjacent equal-hash runs: the same
	// grouping a map of slices would produce, without an allocation per
	// bucket and with a deterministic group order.
	type cand struct {
		hash uint64
		v    int
	}
	cands := make([]cand, 0, nv)
	for i := range p.orig.vars {
		if p.fixed[i] || math.IsInf(p.lb[i], -1) || math.IsInf(p.ub[i], 1) {
			continue
		}
		h := uint64(14695981039346656037)
		for _, e := range colOf(i) {
			h = mix(mix(h, uint64(e.Var)), math.Float64bits(e.Coef))
		}
		h = mix(h, math.Float64bits(p.orig.vars[i].obj))
		if p.orig.vars[i].integer {
			h = mix(h, 1)
		}
		cands = append(cands, cand{h, i})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	sameCol := func(a, b []Term) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	// Verify buckets exactly: compare representatives pairwise within the
	// bucket, column against column.
	var used []bool
	for lo := 0; lo < len(cands); {
		hi := lo + 1
		for hi < len(cands) && cands[hi].hash == cands[lo].hash {
			hi++
		}
		bucket := cands[lo:hi]
		lo = hi
		if len(bucket) < 2 {
			continue
		}
		used = growBools(used, len(bucket))
		for i := range used {
			used[i] = false
		}
		for i := range bucket {
			if used[i] {
				continue
			}
			vi := bucket[i].v
			var grp []int
			for j := i + 1; j < len(bucket); j++ {
				if used[j] {
					continue
				}
				vj := bucket[j].v
				if p.orig.vars[vi].obj != p.orig.vars[vj].obj ||
					p.orig.vars[vi].integer != p.orig.vars[vj].integer ||
					!sameCol(colOf(vi), colOf(vj)) {
					continue
				}
				if grp == nil {
					grp = append(make([]int, 0, 4), vi)
				}
				grp = append(grp, vj)
				used[j] = true
			}
			if grp != nil {
				for _, v := range grp {
					p.grpOf[v] = len(p.groups)
				}
				p.groups = append(p.groups, grp)
			}
		}
	}
}

// build assembles the reduced model and the original→reduced column map.
// Straggler fixed terms (a fix discovered on the final pass) are folded
// into the rhs here, and a row emptied by that folding is checked and
// dropped like any other empty row.
func (p *presolved) build(rows []preRow) {
	m := p.orig
	nv := len(m.vars)
	p.newID = make([]int, nv)
	red := NewModel(m.name, m.sense)
	for i := range m.vars {
		p.newID[i] = -1
		if p.fixed[i] {
			continue
		}
		if g := p.grpOf[i]; g >= 0 && p.groups[g][0] != i {
			continue // merged into its group's representative
		}
		lb, ub := p.lb[i], p.ub[i]
		if g := p.grpOf[i]; g >= 0 {
			for _, k := range p.groups[g][1:] {
				lb += p.lb[k]
				ub += p.ub[k]
			}
		}
		v := &m.vars[i]
		if v.integer {
			p.newID[i] = int(red.AddIntVar(v.name, lb, ub, v.obj))
		} else {
			p.newID[i] = int(red.AddVar(v.name, lb, ub, v.obj))
		}
	}
	// Feed rows into the reduced model directly: every surviving term list
	// is already merged (each reduced column at most once — duplicate-group
	// non-representatives are skipped) with nonzero coefficients, so
	// AddConstraint's duplicate merge and per-call copy are pure overhead.
	// One pre-counted arena backs every reduced row's term slice.
	nnz := 0
	for r := range rows {
		if rows[r].live {
			nnz += len(rows[r].terms)
		}
	}
	arena := make([]Term, 0, nnz)
	for r := range rows {
		row := &rows[r]
		if !row.live {
			continue
		}
		start := len(arena)
		rhs := row.rhs
		for _, t := range row.terms {
			if p.fixed[t.Var] {
				rhs -= t.Coef * p.fixVal[t.Var]
				continue
			}
			id := p.newID[t.Var]
			if id < 0 {
				continue // non-representative duplicate: the rep's term carries it
			}
			arena = append(arena, Term{Var: VarID(id), Coef: t.Coef})
		}
		terms := arena[start:len(arena):len(arena)]
		if len(terms) == 0 {
			tol := preFeasTol * math.Max(1, math.Abs(rhs))
			ok := false
			switch row.rel {
			case LE:
				ok = rhs >= -tol
			case GE:
				ok = rhs <= tol
			case EQ:
				ok = math.Abs(rhs) <= tol
			}
			if !ok {
				p.infeasible = true
				return
			}
			continue
		}
		red.cons = append(red.cons, constraint{name: row.name, terms: terms, rel: row.rel, rhs: rhs})
	}
	p.reduced = red
	p.rowsRemoved = len(m.cons) - red.NumConstraints()
	p.colsRemoved = nv - red.NumVars()
}

// postsolve rehydrates a reduced-space solution against the original
// model: kept variables copy through, fixed variables take their forced
// values, and merged duplicate groups split the representative's value
// lexicographically minimally (each member takes the least value the
// remaining members' upper bounds allow). The objective is recomputed
// from the rehydrated values in original variable order — the same
// summation order the search itself uses for incumbents — so
// integer-data objectives are bit-identical with presolve on or off.
func (p *presolved) postsolve(sol Solution) Solution {
	sol.PresolveRows = p.rowsRemoved
	sol.PresolveCols = p.colsRemoved
	if len(sol.Values) != p.reduced.NumVars() ||
		(sol.Status != Optimal && sol.Status != GapLimit &&
			sol.Status != LimitReached && sol.Status != IterLimit) {
		return sol
	}
	vals := make([]float64, len(p.orig.vars))
	for i := range p.orig.vars {
		switch {
		case p.fixed[i]:
			vals[i] = p.fixVal[i]
		case p.grpOf[i] >= 0:
			// Filled by the group split below.
		default:
			vals[i] = sol.Values[p.newID[i]]
		}
	}
	for _, grp := range p.groups {
		s := sol.Values[p.newID[grp[0]]]
		for i, v := range grp {
			ubLater := 0.0
			for _, k := range grp[i+1:] {
				ubLater += p.ub[k]
			}
			val := s - ubLater
			if val < p.lb[v] {
				val = p.lb[v]
			}
			vals[v] = val
			s -= val
		}
	}
	obj := 0.0
	for i := range p.orig.vars {
		obj += p.orig.vars[i].obj * vals[i]
	}
	sol.Values = vals
	sol.Objective = obj
	return sol
}
