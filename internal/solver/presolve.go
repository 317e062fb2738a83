package solver

import (
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

// preRow is one constraint under reduction: a view of the model row whose
// terms shrink as variables are fixed and whose live flag drops when the
// row is eliminated (empty, singleton-folded, redundant, or dominated).
// terms borrows the model's slice until the first write to it — a fixed
// column to substitute out, a coefficient to tighten — copies it (owned),
// so a row presolve never rewrites costs no copy and the model is never
// written.
type preRow struct {
	name  string
	terms []Term
	rel   Rel
	rhs   float64
	live  bool
	owned bool
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

	// downSafe/upSafe are dualFix's per-column scratch, reused every pass.
	downSafe, upSafe []bool
}

// presolveState is the working state every presolve pass starts from:
// bounds copied from the model, no fixings, no duplicate groups, and every
// constraint live over the model's own terms, borrowed. It is a function of
// its own so the differential tests can run a single pass (the sweep or the
// merge against its oracle) from exactly the state presolve builds; presolve
// is its only other caller.
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
	for i := range m.cons {
		c := &m.cons[i]
		rows[i] = preRow{name: c.name, terms: c.terms, rel: c.rel, rhs: c.rhs, live: true}
	}
	return p, rows
}

// presolve reduces the model. When no reduction fired, p.reduced is the
// model itself and callers solve it as if presolve were off; otherwise they
// solve p.reduced and pass the result through p.postsolve.
func (m *Model) presolve(logf func(format string, args ...interface{})) *presolved {
	p, rows := m.presolveState()
	if !p.fixpoint(rows) {
		p.infeasible = true
		return p
	}
	p.finish(rows)
	if p.infeasible {
		return p
	}
	if logf != nil && (p.rowsRemoved > 0 || p.colsRemoved > 0) {
		logf("solver: presolve removed %d/%d rows and %d/%d columns",
			p.rowsRemoved, len(m.cons), p.colsRemoved, len(m.vars))
	}
	return p
}

// finish runs the passes after the fixpoint, which rewrite no row: the
// dominated-row sweep and the duplicate-column merge over one column index,
// then the reduced model's build — unless no pass changed anything, when the
// reduced model is the model itself and nothing is copied.
func (p *presolved) finish(rows []preRow) {
	ix := p.columnIndex(rows)
	p.removeDominated(rows, ix)
	p.mergeDuplicates(rows, ix)
	if p.untouched(rows) {
		p.reduced = p.orig
		return
	}
	p.build(rows)
}

// untouched reports that presolve changed nothing: no bound moved by value
// (integer rounding turns a 0 bound into −0, which changes nothing), no
// column was fixed or merged, and every row is live over its own terms.
func (p *presolved) untouched(rows []preRow) bool {
	if len(p.groups) > 0 {
		return false
	}
	for i := range p.orig.vars {
		if v := &p.orig.vars[i]; p.fixed[i] || p.lb[i] != v.lb || p.ub[i] != v.ub {
			return false
		}
	}
	for r := range rows {
		if !rows[r].live || rows[r].owned {
			return false
		}
	}
	return true
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
// their terms; the first drop from a borrowed row copies it.
func (p *presolved) substituteFixed(row *preRow) bool {
	k := 0
	for k < len(row.terms) && !p.fixed[row.terms[k].Var] {
		k++
	}
	if k == len(row.terms) {
		return false
	}
	out := row.terms[:k]
	if !row.owned {
		out = append(make([]Term, 0, len(row.terms)-1), out...)
		row.owned = true
	}
	for _, t := range row.terms[k:] {
		if p.fixed[t.Var] {
			row.rhs -= t.Coef * p.fixVal[t.Var]
			continue
		}
		out = append(out, t)
	}
	row.terms = out
	return true
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

	minAct, maxAct, minInf, maxInf := rowActivity(row.terms, p.lb, p.ub)
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
	tightenUB := func(val float64) {
		if p.orig.vars[v].integer {
			val = math.Floor(val + preIntTol)
		}
		if val < p.ub[v] {
			p.setBounds(v, p.lb[v], val)
		}
	}
	tightenLB := func(val float64) {
		if p.orig.vars[v].integer {
			val = math.Ceil(val - preIntTol)
		}
		if val > p.lb[v] {
			p.setBounds(v, val, p.ub[v])
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
	return preChanged // the row itself is eliminated, bounds changed or not
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
// On a capacity row Σ rate·x ≥ demand over binaries the rule caps each rate
// at the demand; the planning builder emits its rows already capped.
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
		if !row.owned {
			row.terms = slices.Clone(row.terms)
			row.owned = true
			t = &row.terms[i]
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
	p.downSafe = growBools(p.downSafe, nv)
	p.upSafe = growBools(p.upSafe, nv)
	downSafe, upSafe := p.downSafe, p.upSafe
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

// colEntry is one nonzero of the column index: the term at position pos of
// row row.
type colEntry struct{ row, pos int32 }

// colIndex is the column-major view of the rows live after the fixpoint,
// built once for the dominated-row sweep and the duplicate-column merge:
// column v is ent[ptr[v]:ptr[v+1]] in ascending row order, and ineq[v]
// counts its entries in inequality rows. No pass after the fixpoint
// rewrites a row's terms, so the positions stay valid; a row the sweep
// kills stays indexed, and readers skip it.
type colIndex struct {
	ptr  []int32
	ent  []colEntry
	ineq []int32
}

func (ix *colIndex) col(v int) []colEntry { return ix.ent[ix.ptr[v]:ix.ptr[v+1]] }

// columnIndex builds the index by count / prefix-sum / fill. Column v's
// count goes to ptr[v+2], so after the prefix sum ptr[v+1] is its start
// and serves as its fill cursor, which leaves it at the column's end:
// ptr[:nv+1] is then the offsets, with no separate cursor array.
func (p *presolved) columnIndex(rows []preRow) *colIndex {
	nv := len(p.orig.vars)
	ptr := make([]int32, nv+2)
	ineq := make([]int32, nv)
	for r := range rows {
		if !rows[r].live {
			continue
		}
		for _, t := range rows[r].terms {
			ptr[t.Var+2]++
			if rows[r].rel != EQ {
				ineq[t.Var]++
			}
		}
	}
	for v := 2; v < len(ptr); v++ {
		ptr[v] += ptr[v-1]
	}
	ent := make([]colEntry, ptr[nv+1])
	for r := range rows {
		if !rows[r].live {
			continue
		}
		for k, t := range rows[r].terms {
			ent[ptr[t.Var+1]] = colEntry{int32(r), int32(k)}
			ptr[t.Var+1]++
		}
	}
	return &colIndex{ptr: ptr[:nv+1], ent: ent, ineq: ineq}
}

// domRow is what the dominated-row sweep computes once per live inequality
// row, in its ≤ form sign·a·x ≤ sign·b. A column's share is its part of
// max(sign·a·x) over the box (times ub for a positive coefficient, lb for a
// negative one); all is their sum and finite says no share needs an
// infinite bound. The gate reads the rest: sig has one bit per column
// (hashed), pos the bits of the columns with a positive share and minPos
// the smallest such share; negAll and negMax are the sum and the largest of
// the shares of max(−sign·a·x); zeroBox says every column's box is finite
// and contains 0, and scale = Σ|a_v|·max(|lb_v|, |ub_v|) sizes the roundoff.
type domRow struct {
	sign, all, minPos, negAll, negMax, scale float64
	sig, pos                                 uint64
	finite, zeroBox                          bool
}

// removeDominated drops inequality rows implied by another row plus the
// bounds: normalizing both rows to a·x ≤ b form, row r dominates row s
// when b_r + max(a_s − a_r)·x over the box ≤ b_s, since then any point
// satisfying r satisfies s. This is what eliminates the nested
// slot-conflict rows the planning MIP generates: a fiber whose users at a
// pixel are a subset of another fiber's users at that pixel contributes a
// dominated ≤ 1 row.
//
// A dominator almost always shares columns with the row it dominates (over
// disjoint support it would have to win on bounds alone), so each row s is
// tested only against the rows holding its least-frequent column, in row
// order, and falls to the first that dominates it. Most candidates fail in
// a way a gate sees in O(1). When both rows' boxes contain 0, every share
// of max(a_s − a_r)·x is ≥ 0, so the sum is at least the shares of any
// columns the rows do not share, and s survives once those exceed
// b_s − b_r + tol. Two such lower bounds cost O(1): a bit of s's
// positive-share signature missing from r's signature proves a column of s
// outside r, whose share is at least minPos; and r's columns outside s keep
// their shares of −a_r, which sum to at least negAll − |s|·negMax however
// s overlaps r. The first rejects a slot row against a slot row missing one
// of its users, the second against a long capacity row. The margin covers
// the roundoff of the exact test's sums, so the gate rejects only pairs the
// exact test rejects; row s is scattered for the exact O(|r|) test only
// when a candidate gets past it.
func (p *presolved) removeDominated(rows []preRow, ix *colIndex) {
	n := 0
	for r := range rows {
		if rows[r].live && rows[r].rel != EQ {
			n++
		}
	}
	if n < 2 || n > preDominatedCap {
		return
	}
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
	sum := make([]domRow, len(rows))
	for r := range rows {
		row, d := &rows[r], &sum[r]
		if !row.live || row.rel == EQ {
			continue
		}
		d.sign, d.finite, d.zeroBox = 1, true, true
		if row.rel == GE {
			d.sign = -1
		}
		for _, t := range row.terms {
			c, ok := contrib(d.sign*t.Coef, t.Var)
			d.finite = d.finite && ok
			d.all += c
			bit := uint64(1) << (uint64(t.Var) * 0x9e3779b97f4a7c15 >> 58)
			d.sig |= bit
			if c > 0 {
				if d.pos == 0 || c < d.minPos {
					d.minPos = c
				}
				d.pos |= bit
			}
			if lb, ub := p.lb[t.Var], p.ub[t.Var]; lb <= 0 && ub >= 0 && !math.IsInf(lb, -1) && !math.IsInf(ub, 1) {
				neg, _ := contrib(-(d.sign * t.Coef), t.Var)
				d.negAll += neg
				d.negMax = max(d.negMax, neg)
				d.scale += math.Abs(t.Coef) * max(-lb, ub)
			} else {
				d.zeroBox = false
			}
		}
	}
	nv := len(p.orig.vars)
	as := make([]float64, nv)  // row s scattered dense (normalized)
	csv := make([]float64, nv) // per-column share of s alone
	for si := range rows {
		s, ds := &rows[si], &sum[si]
		if !s.live || s.rel == EQ || !ds.finite {
			continue
		}
		rare := -1
		for _, t := range s.terms {
			if rare < 0 || ix.ineq[t.Var] < ix.ineq[rare] {
				rare = int(t.Var)
			}
		}
		if rare < 0 {
			continue
		}
		bs := ds.sign * s.rhs
		tol := preFeasTol * math.Max(1, math.Abs(bs))
		scattered := false
		for _, e := range ix.col(rare) {
			ri := int(e.row)
			r, dr := &rows[ri], &sum[ri]
			if ri == si || r.rel == EQ || !r.live {
				continue
			}
			br := dr.sign * r.rhs
			if ds.zeroBox && dr.zeroBox {
				low := max(0, dr.negAll-float64(len(s.terms))*dr.negMax)
				if ds.pos&^dr.sig != 0 {
					low += ds.minPos
				}
				// 2⁻⁵⁰ per term is eight unit roundoffs: more than the
				// error of the sums the exact test and the bound add,
				// relative to the magnitudes they add up.
				margin := float64(len(s.terms)+len(r.terms)+8) * 0x1p-50 *
					(math.Abs(bs) + math.Abs(br) + tol + 4*(ds.scale+dr.scale))
				if low > bs-br+tol+margin {
					continue
				}
			}
			// The exact test walks r's terms over s scattered dense,
			// correcting s's own total to the max activity of (a_s − a_r):
			// for a column in both rows the difference's share replaces s's,
			// for one only in r it adds on top.
			if !scattered {
				for _, t := range s.terms {
					as[t.Var] = ds.sign * t.Coef
					csv[t.Var], _ = contrib(as[t.Var], t.Var)
				}
				scattered = true
			}
			maxAct, finite := ds.all, true
			for _, t := range r.terms {
				c, ok := contrib(as[t.Var]-dr.sign*t.Coef, t.Var)
				if !ok {
					finite = false
					break
				}
				maxAct += c - csv[t.Var]
			}
			if finite && br+maxAct <= bs+tol {
				s.live = false
				break
			}
		}
		if scattered {
			for _, t := range s.terms {
				as[t.Var], csv[t.Var] = 0, 0
			}
		}
	}
}

// mergeDuplicates groups columns that are identical in every live row and
// in the objective, share integrality, and have finite bounds; each group
// collapses to its lowest-VarID representative over the summed bounds.
// Postsolve splits the representative's value back lexicographically
// minimally.
//
// Columns are hashed over the column index and placed in VarID order into
// an open-addressing table keyed by the hash: a column joins the class of
// the representative in its probe sequence whose hash and column match it
// exactly (identity is an equivalence, so at most one can), else it
// founds a class. Groups come out in representative order.
func (p *presolved) mergeDuplicates(rows []preRow, ix *colIndex) {
	nv := len(p.orig.vars)
	// Order-dependent multiply-xor mix (splitmix-style finalizer): the
	// signature must distinguish (row, coef) sequences, not be
	// cryptographic, and it runs once per nonzero — collisions are
	// resolved by the exact comparison.
	mix := func(h uint64, x uint64) uint64 {
		h ^= x
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
		return h
	}
	coef := func(e colEntry) float64 { return rows[e.row].terms[e.pos].Coef }
	// same reports whether columns a and b agree in objective, integrality
	// and the coefficient of every live row.
	same := func(a, b int) bool {
		va, vb := &p.orig.vars[a], &p.orig.vars[b]
		if va.obj != vb.obj || va.integer != vb.integer {
			return false
		}
		ca, cb := ix.col(a), ix.col(b)
		for i, j := 0, 0; ; i, j = i+1, j+1 {
			for i < len(ca) && !rows[ca[i].row].live {
				i++
			}
			for j < len(cb) && !rows[cb[j].row].live {
				j++
			}
			if i == len(ca) || j == len(cb) {
				return i == len(ca) && j == len(cb)
			}
			if ca[i].row != cb[j].row || coef(ca[i]) != coef(cb[j]) {
				return false
			}
		}
	}
	size := 1
	for size < 2*nv {
		size <<= 1
	}
	mask := uint64(size - 1)
	table := make([]int32, size) // 1 + a representative's VarID, 0 empty
	hash := make([]uint64, nv)   // a representative's column hash
	rep := make([]int32, nv)     // 1 + a candidate's representative, 0 for the rest
	count := make([]int32, nv)   // a representative's class size
	groups, members := 0, 0
	for i := range p.orig.vars {
		if p.fixed[i] || math.IsInf(p.lb[i], -1) || math.IsInf(p.ub[i], 1) {
			continue
		}
		h := uint64(14695981039346656037)
		for _, e := range ix.col(i) {
			if rows[e.row].live {
				h = mix(mix(h, uint64(e.row)), math.Float64bits(coef(e)))
			}
		}
		h = mix(h, math.Float64bits(p.orig.vars[i].obj))
		if p.orig.vars[i].integer {
			h = mix(h, 1)
		}
		for slot := h & mask; ; slot = (slot + 1) & mask {
			r := int(table[slot]) - 1
			if r < 0 {
				table[slot] = int32(i) + 1
				hash[i], rep[i], count[i] = h, int32(i)+1, 1
				break
			}
			if hash[r] == h && same(r, i) {
				rep[i] = int32(r) + 1
				count[r]++
				members++
				if count[r] == 2 {
					groups++
					members++
				}
				break
			}
		}
	}
	if groups == 0 {
		return
	}
	// One arena holds every group; a representative, met first, reserves
	// its class's run of it.
	p.groups = make([][]int, 0, groups)
	arena := make([]int, 0, members)
	for i := range rep {
		r := int(rep[i]) - 1
		switch {
		case r < 0 || count[r] < 2:
		case r == i:
			k := len(arena)
			arena = arena[:k+int(count[i])]
			arena[k] = i
			p.grpOf[i] = len(p.groups)
			p.groups = append(p.groups, arena[k:k+1:k+int(count[i])])
		default:
			g := p.grpOf[r]
			p.grpOf[i] = g
			p.groups[g] = append(p.groups[g], i)
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
