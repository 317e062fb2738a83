package solver

import (
	"context"
	"math"
)

// Numerical tolerances for the dense tableau simplex.
const (
	pivotTol = 1e-9 // minimum magnitude of a usable pivot element
	feasTol  = 1e-7 // feasibility / optimality tolerance
)

// ctxCheckMask gates how often the pivot loops poll Options.Context:
// every ctxCheckMask+1 iterations, including iteration 0 (a power-of-two
// mask so the test is one AND). Cancellation surfaces as IterLimit — the
// current point is feasible for the phase being solved but carries no
// certificate, exactly as if the pivot budget had run out — so one long
// LP can no longer overrun a caller's deadline.
const ctxCheckMask = 63

// SolveLP solves the linear relaxation of the model (integrality
// dropped) with the default engine: the LU-factorized revised simplex,
// falling back to the dense two-phase tableau on the rare solves the
// revised path cannot certify.
func (m *Model) SolveLP() Solution {
	return m.solveRelaxation(Options{})
}

// lpScratch is reusable simplex workspace: the dense tableau, basis,
// bound, and cost buffers one LP solve needs. Buffers grow to the largest
// instance seen and are then reused, so a branch-and-bound worker solving
// thousands of node relaxations stops re-allocating dense matrices on
// every node. A scratch must not be shared between concurrent solves;
// each B&B worker owns one.
type lpScratch struct {
	lb, ub []float64 // effective per-variable bounds for this solve

	col, negCol []int     // model var → structural column (+ split column)
	shift       []float64 // model var → lower-bound shift

	rels []Rel  // per-row relation after rhs normalization
	neg  []bool // per-row: coefficients negated during normalization

	flat  []float64   // dense tableau backing storage (rows × total)
	a     [][]float64 // row views into flat
	b     []float64   // rhs, normalized nonnegative (cold) or parent-signed (warm)
	basis []int       // per-row basic column

	cobj    []float64 // phase-2 cost vector (model objective)
	phase1  []float64 // phase-1 cost vector (artificial sum)
	cost    []float64 // working reduced-cost row
	barred  []bool    // columns banned from entering (phase-2 artificials)
	inst    []bool    // basis-installation progress (warm starts)
	slackOf []int     // per-row slack/surplus column, -1 for EQ rows

	x      []float64 // standard-form point
	values []float64 // model-variable values (aliased by returned Solutions)

	nz tabSparse // compressed sparse row structure of the fresh tableau

	maxIter    int             // per-call pivot cap (0 = size-derived default)
	ctx        context.Context // cancellation observed at pivot intervals (nil = never)
	lastRows   int             // rows of the most recent tableau build
	lastTotal  int             // columns of the most recent tableau build
	lastArt    int             // first artificial column of the most recent build
	lastPivots int             // simplex pivots performed by the most recent solve
}

// tabSparse is the compressed-sparse-row companion of the dense tableau:
// per-row nonzero column lists recorded when the tableau is built. The
// FlexWAN formulations are extremely sparse — a slot-conflict or capacity
// row touches a handful of the hundreds of columns — so scans restricted
// to a row's list skip almost the whole dense row. A list stays valid
// only until a pivot writes into its row (clean flag); dirty rows fall
// back to dense scans, and every use skips exact zeros only, so the
// arithmetic is bit-identical to the fully dense code path.
type tabSparse struct {
	idx   []int32 // concatenated nonzero column indices, row-major, ascending
	off   []int   // per-row offsets into idx (len rows+1)
	clean []bool  // row's idx list still matches its dense row
	buf   []int32 // pivot-row gather scratch
}

// rowList returns row r's nonzero columns as recorded at build time.
func (s *tabSparse) rowList(r int) []int32 { return s.idx[s.off[r]:s.off[r+1]] }

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growRels(s []Rel, n int) []Rel {
	if cap(s) < n {
		return make([]Rel, n)
	}
	return s[:n]
}

func growRows(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		return make([][]float64, n)
	}
	return s[:n]
}

// resolveModelBounds fills lb/ub with the model's own bounds.
func (sc *lpScratch) resolveModelBounds(m *Model) {
	n := len(m.vars)
	sc.lb = growFloats(sc.lb, n)
	sc.ub = growFloats(sc.ub, n)
	for i := range m.vars {
		sc.lb[i] = m.vars[i].lb
		sc.ub[i] = m.vars[i].ub
	}
}

// buildColumns assigns structural columns for the effective bounds in
// sc.lb/sc.ub: shifted columns for lower-bounded variables, split x⁺ − x⁻
// pairs for free ones. Returns the structural column count, or ok=false
// when some variable's effective bounds contradict each other (the
// subproblem is infeasible before any pivoting).
func (m *Model) buildColumns(sc *lpScratch) (int, bool) {
	nv := len(m.vars)
	sc.col = growInts(sc.col, nv)
	sc.negCol = growInts(sc.negCol, nv)
	sc.shift = growFloats(sc.shift, nv)
	n := 0
	for i := 0; i < nv; i++ {
		lb, ub := sc.lb[i], sc.ub[i]
		if lb > ub+feasTol {
			return 0, false
		}
		if math.IsInf(lb, -1) {
			// Free (or upper-bounded-only) variable: split x = x⁺ − x⁻.
			sc.col[i] = n
			sc.negCol[i] = n + 1
			sc.shift[i] = 0
			n += 2
		} else {
			sc.col[i] = n
			sc.negCol[i] = -1
			sc.shift[i] = lb
			n++
		}
	}
	return n, true
}

// countAux counts the slack/surplus and artificial columns the normalized
// rows in sc.rels[:mRows] need.
func countAux(sc *lpScratch, mRows int) (nSlack, nArt int) {
	for r := 0; r < mRows; r++ {
		if sc.rels[r] != EQ {
			nSlack++
		}
		if sc.rels[r] != LE {
			nArt++
		}
	}
	return nSlack, nArt
}

// fillTableau writes the dense standard form into the scratch-owned
// backing array: constraint rows first, then one x ≤ ub row per finite
// upper bound, with slack and artificial columns appended per sc.rels.
// sc.b, sc.rels, and sc.neg must already hold the row data; the initial
// basis is the slack (LE) or artificial (GE/EQ) column of each row.
func (m *Model) fillTableau(sc *lpScratch, n, mRows, total, nArt int) {
	sc.flat = growFloats(sc.flat, mRows*total)
	clear(sc.flat)
	sc.a = growRows(sc.a, mRows)
	for r := 0; r < mRows; r++ {
		sc.a[r] = sc.flat[r*total : (r+1)*total]
	}
	sc.basis = growInts(sc.basis, mRows)
	fill := func(r int, v VarID, coef float64) {
		if sc.neg[r] {
			coef = -coef
		}
		row := sc.a[r]
		row[sc.col[v]] += coef
		if sc.negCol[v] >= 0 {
			row[sc.negCol[v]] -= coef
		}
	}
	for ci := range m.cons {
		for _, t := range m.cons[ci].terms {
			fill(ci, t.Var, t.Coef)
		}
	}
	ur := len(m.cons)
	for i := range m.vars {
		if !math.IsInf(sc.ub[i], 1) {
			fill(ur, VarID(i), 1)
			ur++
		}
	}
	sc.slackOf = growInts(sc.slackOf, mRows)
	slackAt, artAt := n, total-nArt
	for r := 0; r < mRows; r++ {
		sc.slackOf[r] = -1
		switch sc.rels[r] {
		case LE:
			sc.a[r][slackAt] = 1
			sc.slackOf[r] = slackAt
			sc.basis[r] = slackAt
			slackAt++
		case GE:
			sc.a[r][slackAt] = -1
			sc.slackOf[r] = slackAt
			slackAt++
			sc.a[r][artAt] = 1
			sc.basis[r] = artAt
			artAt++
		case EQ:
			sc.a[r][artAt] = 1
			sc.basis[r] = artAt
			artAt++
		}
	}
	sc.cost = growFloats(sc.cost, total)
	// Record the fresh tableau's row sparsity: ascending nonzero column
	// lists per row, valid until a pivot dirties the row.
	sc.nz.off = growInts(sc.nz.off, mRows+1)
	sc.nz.clean = growBools(sc.nz.clean, mRows)
	sc.nz.idx = sc.nz.idx[:0]
	for r := 0; r < mRows; r++ {
		sc.nz.off[r] = len(sc.nz.idx)
		for j, v := range sc.a[r] {
			if v != 0 {
				sc.nz.idx = append(sc.nz.idx, int32(j))
			}
		}
		sc.nz.clean[r] = true
	}
	sc.nz.off[mRows] = len(sc.nz.idx)
	if cap(sc.nz.buf) < total {
		sc.nz.buf = make([]int32, 0, total)
	}
	sc.lastRows, sc.lastTotal, sc.lastArt = mRows, total, total-nArt
}

// buildCosts fills sc.cobj with the phase-2 cost vector (minimization;
// Maximize flips sign).
func (m *Model) buildCosts(sc *lpScratch, total int) {
	sc.cobj = growFloats(sc.cobj, total)
	clear(sc.cobj)
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	for i := range m.vars {
		sc.cobj[sc.col[i]] += sign * m.vars[i].obj
		if sc.negCol[i] >= 0 {
			sc.cobj[sc.negCol[i]] -= sign * m.vars[i].obj
		}
	}
}

// extract maps the tableau's basic point back to model variables.
func (m *Model) extract(sc *lpScratch, t *tableau, total int) Solution {
	nv := len(m.vars)
	sc.x = growFloats(sc.x, total)
	clear(sc.x)
	for r, bv := range t.basis {
		if bv < total {
			sc.x[bv] = t.b[r]
		}
	}
	sc.values = growFloats(sc.values, nv)
	obj := 0.0
	for i := 0; i < nv; i++ {
		v := sc.x[sc.col[i]] + sc.shift[i]
		if sc.negCol[i] >= 0 {
			v -= sc.x[sc.negCol[i]]
		}
		sc.values[i] = v
		obj += m.vars[i].obj * v
	}
	return Solution{Status: Optimal, Objective: obj, Values: sc.values}
}

// solveLPBounds solves the LP relaxation under the effective bounds in
// sc.lb/sc.ub with a two-phase dense simplex, reusing sc's buffers
// throughout: the standard form (min c·y s.t. Ay = b, y ≥ 0 with a
// Phase-1 artificial basis) is written directly into the scratch-owned
// tableau, so a solve allocates nothing once the scratch has warmed up.
//
// The returned Solution's Values slice aliases sc.values: callers that
// keep a solution across solves must copy it first.
func (m *Model) solveLPBounds(sc *lpScratch) Solution {
	sc.lastPivots = 0
	nv := len(m.vars)
	n, ok := m.buildColumns(sc)
	if !ok {
		return Solution{Status: Infeasible}
	}

	// Pass 1: per-row shifted rhs and normalized relation. Rows are the
	// model constraints followed by one x ≤ ub row per finite upper bound.
	maxRows := len(m.cons) + nv
	sc.b = growFloats(sc.b, maxRows)
	sc.rels = growRels(sc.rels, maxRows)
	sc.neg = growBools(sc.neg, maxRows)
	mRows := 0
	addRow := func(rhs float64, rel Rel) {
		negated := rhs < 0
		if negated {
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		sc.b[mRows], sc.rels[mRows], sc.neg[mRows] = rhs, rel, negated
		mRows++
	}
	for ci := range m.cons {
		c := &m.cons[ci]
		rhs := c.rhs
		for _, t := range c.terms {
			rhs -= t.Coef * sc.shift[t.Var]
		}
		addRow(rhs, c.rel)
	}
	for i := 0; i < nv; i++ {
		if !math.IsInf(sc.ub[i], 1) {
			addRow(sc.ub[i]-sc.shift[i], LE)
		}
	}

	nSlack, nArt := countAux(sc, mRows)
	total := n + nSlack + nArt
	m.fillTableau(sc, n, mRows, total, nArt)
	m.buildCosts(sc, total)

	t := &tableau{a: sc.a, b: sc.b[:mRows], cost: sc.cost, basis: sc.basis, nz: &sc.nz, maxIter: sc.maxIter, ctx: sc.ctx}

	// Phase 1: minimize the sum of artificials.
	artStart := total - nArt
	if nArt > 0 {
		sc.phase1 = growFloats(sc.phase1, total)
		clear(sc.phase1)
		for j := artStart; j < total; j++ {
			sc.phase1[j] = 1
		}
		t.setCosts(sc.phase1)
		switch t.iterate() {
		case Unbounded:
			// Phase 1 objective is bounded below by 0; unbounded here
			// signals numerical trouble — treat as infeasible.
			sc.lastPivots = t.pivots
			return Solution{Status: Infeasible}
		case IterLimit:
			sc.lastPivots = t.pivots
			return Solution{Status: IterLimit}
		}
		if -t.obj > feasTol {
			sc.lastPivots = t.pivots
			return Solution{Status: Infeasible}
		}
		// Pivot any artificial still in the basis out (degenerate rows).
		// A row that is all zeros over structural columns is a redundant
		// constraint; its artificial stays basic at value 0 and is
		// harmless as long as its column never re-enters (barred below).
		for r, bv := range t.basis {
			if bv < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if math.Abs(t.a[r][j]) > pivotTol {
					t.pivot(r, j)
					break
				}
			}
		}
	}

	// Phase 2: original costs; artificial columns may never re-enter.
	sc.barred = growBools(sc.barred, total)
	clear(sc.barred)
	for j := artStart; j < total; j++ {
		sc.barred[j] = true
	}
	t.barred = sc.barred
	t.setCosts(sc.cobj)
	switch t.iterate() {
	case Unbounded:
		sc.lastPivots = t.pivots
		return Solution{Status: Unbounded}
	case IterLimit:
		sc.lastPivots = t.pivots
		return Solution{Status: IterLimit}
	}
	sc.lastPivots = t.pivots
	return m.extract(sc, t, total)
}

// tableau carries the dense simplex state. All fields are views into an
// lpScratch; the tableau mutates them in place.
type tableau struct {
	a       [][]float64 // m×n
	b       []float64   // m
	cost    []float64   // reduced-cost row (length n)
	obj     float64     // negative of current objective value offset
	basis   []int
	barred  []bool          // columns that may never enter (phase-2 artificials)
	nz      *tabSparse      // build-time row sparsity (nil: always scan dense)
	maxIter int             // per-call pivot cap (0 = size-derived default)
	ctx     context.Context // cancellation observed every ctxCheckMask+1 pivots
	pivots  int             // Gauss-Jordan pivots performed (all phases)
}

// setCosts installs a cost vector (copied into the working row) and
// prices it out against the current basis so the reduced-cost row is
// valid. Rows still clean since the tableau build price out over their
// nonzero lists only — entries off the list are exactly zero, so the
// skipped subtractions are no-ops and the result is bit-identical.
func (t *tableau) setCosts(c []float64) {
	copy(t.cost, c)
	t.obj = 0
	for r, bv := range t.basis {
		cb := c[bv]
		if cb == 0 {
			continue
		}
		row := t.a[r]
		if t.nz != nil && t.nz.clean[r] {
			for _, j := range t.nz.rowList(r) {
				t.cost[j] -= cb * row[j]
			}
		} else {
			for j := range t.cost {
				t.cost[j] -= cb * row[j]
			}
		}
		t.obj -= cb * t.b[r]
	}
}

// iterate runs primal simplex pivots to optimality, switching from
// Dantzig's rule to Bland's rule when iterations exceed a threshold, which
// guarantees termination within the pivot budget. The budget counts
// cumulative tableau pivots (t.pivots), so phase 1, the inter-phase
// artificial pivot-out, and phase 2 all draw from the same cap instead of
// each phase getting a fresh one. Exhausting the budget returns IterLimit:
// the current point is feasible for the phase being solved but carries no
// optimality certificate.
func (t *tableau) iterate() Status {
	mRows := len(t.a)
	nCols := len(t.cost)
	maxIter := t.maxIter
	if maxIter <= 0 {
		maxIter = 200*(mRows+nCols) + 5000
	}
	blandAfter := 20 * (mRows + nCols)
	for iter := 0; t.pivots < maxIter; iter++ {
		if iter&ctxCheckMask == 0 && t.ctx != nil && t.ctx.Err() != nil {
			return IterLimit
		}
		// Entering column.
		enter := -1
		if iter < blandAfter {
			best := -feasTol
			for j := 0; j < nCols; j++ {
				if t.barredCol(j) {
					continue
				}
				if t.cost[j] < best {
					best = t.cost[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < nCols; j++ {
				if t.barredCol(j) {
					continue
				}
				if t.cost[j] < -feasTol {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for r := 0; r < mRows; r++ {
			if t.a[r][enter] > pivotTol {
				ratio := t.b[r] / t.a[r][enter]
				if ratio < bestRatio-feasTol ||
					(ratio < bestRatio+feasTol && (leave < 0 || t.basis[r] < t.basis[leave])) {
					bestRatio = ratio
					leave = r
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	// Iteration budget exhausted: surface it instead of passing the
	// current point off as optimal — callers propagate IterLimit so the
	// lack of a certificate is visible in the solve status.
	return IterLimit
}

// pivot performs a Gauss-Jordan pivot on (row, col). The scaled pivot
// row's nonzero columns are gathered once — from its build-time sparsity
// list when the row is still clean, from a dense scan otherwise — and
// every elimination then touches only those columns. Skipped entries are
// exactly zero, so x − f·0 never runs and the arithmetic is bit-identical
// to a fully dense elimination.
func (t *tableau) pivot(row, col int) {
	t.pivots++
	prow := t.a[row]
	inv := 1 / prow[col]
	for j := range prow {
		prow[j] *= inv
	}
	t.b[row] *= inv
	var nz []int32
	if t.nz != nil {
		nz = t.nz.buf[:0]
		if t.nz.clean[row] {
			for _, j := range t.nz.rowList(row) {
				if prow[j] != 0 {
					nz = append(nz, j)
				}
			}
		} else {
			for j, v := range prow {
				if v != 0 {
					nz = append(nz, int32(j))
				}
			}
		}
		t.nz.buf = nz
	}
	for r := range t.a {
		if r == row {
			continue
		}
		f := t.a[r][col]
		if f == 0 {
			continue
		}
		arow := t.a[r]
		if nz != nil {
			for _, j := range nz {
				arow[j] -= f * prow[j]
			}
		} else {
			for j := range arow {
				arow[j] -= f * prow[j]
			}
		}
		t.b[r] -= f * t.b[row]
		if t.b[r] < 0 && t.b[r] > -feasTol {
			t.b[r] = 0
		}
		if t.nz != nil {
			t.nz.clean[r] = false
		}
	}
	f := t.cost[col]
	if f != 0 {
		if nz != nil {
			for _, j := range nz {
				t.cost[j] -= f * prow[j]
			}
		} else {
			for j := range t.cost {
				t.cost[j] -= f * prow[j]
			}
		}
		t.obj -= f * t.b[row]
	}
	if t.nz != nil {
		t.nz.clean[row] = false
	}
	t.basis[row] = col
}

// barredCol reports whether column j is excluded from entering the basis.
func (t *tableau) barredCol(j int) bool {
	return t.barred != nil && t.barred[j]
}
