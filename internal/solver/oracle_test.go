package solver

import (
	"math"
	"math/big"
)

// The dimension-proportional kernels the sparsity-aware ones replaced, kept
// verbatim (bodies untouched, only renamed or cut out of their caller) as
// oracles for the differential tests in kernel_test.go. Nothing outside
// _test.go files may call them.

// priceColOracle is the column-wise PRICE: α_j = ρ·a_j and d_j = c_j − y·a_j
// in one pass down column j.
func (rx *rxScratch) priceColOracle(j int) (alpha, d float64) {
	if j >= rx.nCols {
		r := j - rx.nCols
		return rx.rho[r], rx.cost[j] - rx.y[r]
	}
	var yd float64
	for k := rx.csc.colPtr[j]; k < rx.csc.colPtr[j+1]; k++ {
		r := rx.csc.rowIdx[k]
		alpha += rx.csc.val[k] * rx.rho[r]
		yd += rx.csc.val[k] * rx.y[r]
	}
	return alpha, rx.cost[j] - yd
}

// factorizeScan is factorize with the left-looking elimination scanning
// every prior pivot position k < j.
func (f *luFactor) factorizeScan(basis []int32, csc *cscMatrix, x []float64) bool {
	m := csc.rows
	f.m = m
	f.perm = growInt32(f.perm, m)
	f.pinv = growInt32(f.pinv, m)
	f.udiag = growFloats(f.udiag, m)
	f.lPtr = growInt32(f.lPtr, m+1)
	f.uPtr = growInt32(f.uPtr, m+1)
	f.lIdx, f.lVal = f.lIdx[:0], f.lVal[:0]
	f.uIdx, f.uVal = f.uIdx[:0], f.uVal[:0]
	f.etaPos = f.etaPos[:0]
	f.etaIdx, f.etaVal = f.etaIdx[:0], f.etaVal[:0]
	f.etaPtr = append(f.etaPtr[:0], 0)
	f.mark = growBools(f.mark, m)
	if cap(f.touch) < m {
		f.touch = make([]int32, 0, m)
	}
	for r := 0; r < m; r++ {
		f.pinv[r] = -1
		f.mark[r] = false
	}
	f.lPtr[0], f.uPtr[0] = 0, 0

	for j := 0; j < m; j++ {
		// Scatter basis column j into the dense work vector.
		touch := f.touch[:0]
		col := basis[j]
		if int(col) >= csc.cols {
			r := col - int32(csc.cols)
			x[r] = 1
			f.mark[r] = true
			touch = append(touch, r)
		} else {
			for k := csc.colPtr[col]; k < csc.colPtr[col+1]; k++ {
				r := csc.rowIdx[k]
				x[r] = csc.val[k]
				f.mark[r] = true
				touch = append(touch, r)
			}
		}
		// Left-looking elimination: columns k < j in pivot order. A prior
		// pivot row's value is fixed once its column is passed (later L
		// columns touch only still-unpivoted rows), so the ascending scan
		// sees every fill-in exactly once.
		for k := 0; k < j; k++ {
			pr := f.perm[k]
			xk := x[pr]
			if xk == 0 {
				continue
			}
			f.uIdx = append(f.uIdx, int32(k))
			f.uVal = append(f.uVal, xk)
			for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
				i := f.lIdx[t]
				if !f.mark[i] {
					f.mark[i] = true
					touch = append(touch, i)
				}
				x[i] -= xk * f.lVal[t]
			}
		}
		f.uPtr[j+1] = int32(len(f.uIdx))
		// Partial pivoting over the unpivoted touched rows.
		piv, pivAbs := int32(-1), luSingTol
		for _, i := range touch {
			if f.pinv[i] < 0 {
				if a := math.Abs(x[i]); a > pivAbs {
					pivAbs, piv = a, i
				}
			}
		}
		if piv < 0 {
			// Singular: clean up the work vector before failing.
			for _, i := range touch {
				x[i] = 0
				f.mark[i] = false
			}
			f.touch = touch[:0]
			return false
		}
		f.perm[j] = piv
		f.pinv[piv] = int32(j)
		d := x[piv]
		f.udiag[j] = d
		for _, i := range touch {
			if f.pinv[i] < 0 && x[i] != 0 {
				f.lIdx = append(f.lIdx, i)
				f.lVal = append(f.lVal, x[i]/d)
			}
			x[i] = 0
			f.mark[i] = false
		}
		f.lPtr[j+1] = int32(len(f.lIdx))
		f.touch = touch[:0]
	}
	f.nFactor++
	f.loadFT()
	if fill := len(f.uIdx) + m; fill > f.peakFill {
		f.peakFill = fill
	}
	return true
}

// ftranOracle is ftran before the U-solve's zero test moved ahead of the
// division.
func (f *luFactor) ftranOracle(x, out []float64) {
	f.nFtran++
	// L solve in place (original-row space, pivot order).
	for k := 0; k < f.m; k++ {
		xk := x[f.perm[k]]
		if xk != 0 {
			for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
				x[f.lIdx[t]] -= xk * f.lVal[t]
			}
		}
	}
	// Gather to pivot order, restoring the zero invariant on x.
	for k := 0; k < f.m; k++ {
		out[k] = x[f.perm[k]]
		x[f.perm[k]] = 0
	}
	// Row etas in creation order: (R·z)[p] = z[p] − rᵀz.
	for e := 0; e < len(f.etaPos); e++ {
		p := f.etaPos[e]
		dot := 0.0
		for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
			dot += f.etaVal[t] * out[f.etaIdx[t]]
		}
		out[p] -= dot
	}
	copy(f.vbuf[:f.m], out[:f.m])
	// Permuted U solve, backward in sequence order: every column entry sits
	// at an earlier sequence position than its column.
	for t := f.m - 1; t >= 0; t-- {
		j := int(f.order[t])
		v := out[j] / f.udiag[j]
		out[j] = v
		if v != 0 {
			ci, cv := f.us.entries(j)
			for q, k := range ci {
				out[k] -= v * cv[q]
			}
		}
	}
}

// btranOracle is the single-right-hand-side btran: Lᵀ solved in place in
// position space through pinv, then scattered to original rows.
func (f *luFactor) btranOracle(c, out []float64) {
	f.nBtran++
	// Permuted Uᵀ solve, forward in sequence order (in place).
	for t := 0; t < f.m; t++ {
		j := int(f.order[t])
		s := c[j]
		ci, cv := f.us.entries(j)
		for q, k := range ci {
			s -= cv[q] * c[k]
		}
		c[j] = s / f.udiag[j]
	}
	// Row-eta transposes in reverse creation order: Rᵀ = I − r·e_pᵀ scatters
	// −r·c[p] into the eliminated columns.
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		cp := c[f.etaPos[e]]
		if cp != 0 {
			for t := f.etaPtr[e]; t < f.etaPtr[e+1]; t++ {
				c[f.etaIdx[t]] -= f.etaVal[t] * cp
			}
		}
	}
	// Lᵀ solve (backward, in place): s_k = t_k − Σ_{i} L[i,k]·s_{pinv[i]}.
	for k := f.m - 1; k >= 0; k-- {
		s := c[k]
		for t := f.lPtr[k]; t < f.lPtr[k+1]; t++ {
			s -= f.lVal[t] * c[f.pinv[f.lIdx[t]]]
		}
		c[k] = s
	}
	// Scatter to original-row space, restoring the zero invariant on c.
	for k := 0; k < f.m; k++ {
		out[f.perm[k]] = c[k]
		c[k] = 0
	}
}

// mergeTermsOracle is AddConstraint's duplicate merge before the position
// index: a quadratic scan up to 32 terms, a map accumulator above.
func mergeTermsOracle(terms []Term) []Term {
	merged := make([]Term, 0, len(terms))
	if len(terms) <= 32 {
		for _, t := range terms {
			found := false
			for i := range merged {
				if merged[i].Var == t.Var {
					merged[i].Coef += t.Coef
					found = true
					break
				}
			}
			if !found {
				merged = append(merged, t)
			}
		}
	} else {
		acc := make(map[VarID]float64, len(terms))
		for _, t := range terms {
			if _, seen := acc[t.Var]; !seen {
				merged = append(merged, Term{Var: t.Var})
			}
			acc[t.Var] += t.Coef
		}
		for i := range merged {
			merged[i].Coef = acc[merged[i].Var]
		}
	}
	out := merged[:0]
	for _, t := range merged {
		if t.Coef != 0 {
			out = append(out, t)
		}
	}
	return out
}

// The exact reference the simplex and the search are held against: a
// bounded-variable primal simplex over math/big rationals pricing by Bland's
// rule, with free columns split and a depth-first branch-and-bound on top.
// It shares nothing with the production path — its own standard form, its
// own pivoting, exact arithmetic — so agreement with it is evidence, not an
// echo. Models must be small: every pivot rewrites a dense rational tableau.

// refResult is the reference's answer. relaxUnbounded records, for a MILP,
// that the root relaxation was unbounded: the status then says whether an
// integer point exists (Unbounded) or not (Infeasible).
type refResult struct {
	status         Status
	obj            *big.Rat
	x              []*big.Rat
	relaxUnbounded bool
}

// float returns the reference objective as a float64.
func (r refResult) float() float64 {
	f, _ := r.obj.Float64()
	return f
}

// ratOf converts a bound: nil stands for an infinite one.
func ratOf(v float64) *big.Rat {
	if math.IsInf(v, 0) {
		return nil
	}
	return new(big.Rat).SetFloat64(v)
}

// refSolve solves m exactly: as an LP when it has no integer variable,
// else as a MILP by branch-and-bound.
func refSolve(m *Model) refResult {
	nv := len(m.vars)
	lb, ub := make([]*big.Rat, nv), make([]*big.Rat, nv)
	integer := false
	for i, v := range m.vars {
		lb[i], ub[i] = ratOf(v.lb), ratOf(v.ub)
		if v.integer {
			integer = true
			if lb[i] != nil {
				lb[i] = ratCeil(lb[i])
			}
			if ub[i] != nil {
				ub[i] = ratFloor(ub[i])
			}
		}
	}
	if !integer {
		return refLP(m, lb, ub, false)
	}
	root := refLP(m, lb, ub, false)
	if root.status != Unbounded {
		return refBranch(m, lb, ub, false)
	}
	// An unbounded relaxation makes the MILP unbounded exactly when it has
	// an integer point (rational data): search for one at zero cost.
	r := refBranch(m, lb, ub, true)
	if r.status == Optimal {
		r.status = Unbounded
	}
	r.relaxUnbounded = true
	return r
}

// refBranch is depth-first branch-and-bound over refLP, branching on the
// first fractional integer variable, down branch first. zeroCost searches
// for any integer point.
func refBranch(m *Model, lb, ub []*big.Rat, zeroCost bool) refResult {
	best := refResult{status: Infeasible}
	min := m.sense == Minimize
	var visit func()
	visit = func() {
		if zeroCost && best.status == Optimal {
			return
		}
		r := refLP(m, lb, ub, zeroCost)
		if r.status != Optimal {
			return
		}
		if best.status == Optimal && !zeroCost {
			if c := r.obj.Cmp(best.obj); (min && c >= 0) || (!min && c <= 0) {
				return
			}
		}
		for i, v := range m.vars {
			if !v.integer || r.x[i].IsInt() {
				continue
			}
			oldLB, oldUB := lb[i], ub[i]
			ub[i] = ratFloor(r.x[i])
			visit()
			ub[i] = oldUB
			lb[i] = ratCeil(r.x[i])
			visit()
			lb[i] = oldLB
			return
		}
		best = r
	}
	visit()
	return best
}

func ratFloor(x *big.Rat) *big.Rat {
	q := new(big.Int).Div(x.Num(), x.Denom()) // Euclidean: the floor for a positive divisor
	return new(big.Rat).SetInt(q)
}

func ratCeil(x *big.Rat) *big.Rat {
	f := ratFloor(x)
	if f.Cmp(x) != 0 {
		f.Add(f, big.NewRat(1, 1))
	}
	return f
}

// refLP solves the LP relaxation of m under bounds lb, ub (nil: infinite)
// exactly, with zero costs when zeroCost is set. Every variable becomes
// nonnegative columns: x = l + y with y ≤ u − l, x = u − y, or x = y⁺ − y⁻
// when free. Every row gets a slack (LE, GE) and an artificial; phase 1
// minimizes the artificials, phase 2 fixes them at 0 and minimizes the
// objective.
func refLP(m *Model, lb, ub []*big.Rat, zeroCost bool) refResult {
	type colMap struct {
		off      big.Rat
		pos, neg int // column of +y and of −y, −1 when absent
	}
	maps := make([]colMap, len(m.vars))
	var colUB []*big.Rat
	addCol := func(u *big.Rat) int {
		colUB = append(colUB, u)
		return len(colUB) - 1
	}
	for i := range m.vars {
		l, u, mp := lb[i], ub[i], &maps[i]
		mp.pos, mp.neg = -1, -1
		switch {
		case l != nil:
			if u != nil && l.Cmp(u) > 0 {
				return refResult{status: Infeasible}
			}
			mp.off.Set(l)
			var w *big.Rat
			if u != nil {
				w = new(big.Rat).Sub(u, l)
			}
			mp.pos = addCol(w)
		case u != nil:
			mp.off.Set(u)
			mp.neg = addCol(nil)
		default:
			mp.pos, mp.neg = addCol(nil), addCol(nil)
		}
	}
	slack := len(colUB)
	for _, c := range m.cons {
		if c.rel != EQ {
			addCol(nil)
		}
	}
	art := len(colUB)
	for range m.cons {
		addCol(nil)
	}
	s := &refSimplex{ub: colUB}
	n, t := len(colUB), new(big.Rat)
	s.x = make([]big.Rat, n)
	s.d = make([]big.Rat, n)
	s.inBasis = make([]bool, n)
	s.atUpper = make([]bool, n)
	for r := range m.cons {
		c := &m.cons[r]
		row := make([]big.Rat, n)
		var b big.Rat
		b.SetFloat64(c.rhs)
		for _, term := range c.terms {
			mp := &maps[term.Var]
			coef := new(big.Rat).SetFloat64(term.Coef)
			b.Sub(&b, t.Mul(coef, &mp.off))
			if mp.pos >= 0 {
				row[mp.pos].Add(&row[mp.pos], coef)
			}
			if mp.neg >= 0 {
				row[mp.neg].Sub(&row[mp.neg], coef)
			}
		}
		switch c.rel {
		case LE:
			row[slack].SetInt64(1)
			slack++
		case GE:
			row[slack].SetInt64(-1)
			slack++
		}
		if b.Sign() < 0 {
			b.Neg(&b)
			for j := range row {
				row[j].Neg(&row[j])
			}
		}
		row[art+r].SetInt64(1)
		s.x[art+r].Set(&b)
		s.inBasis[art+r] = true
		s.a = append(s.a, row)
		s.basis = append(s.basis, art+r)
	}
	cost := make([]big.Rat, n)
	for j := art; j < n; j++ {
		cost[j].SetInt64(1)
	}
	s.price(cost)
	s.run()
	for j := art; j < n; j++ {
		if s.x[j].Sign() != 0 {
			return refResult{status: Infeasible}
		}
	}
	// Drive the artificials out of the basis where a real column can take
	// the row (a degenerate pivot), then fix them at 0.
	for r, b := range s.basis {
		if b < art {
			continue
		}
		for j := 0; j < art; j++ {
			if s.a[r][j].Sign() != 0 {
				s.pivot(r, j)
				break
			}
		}
	}
	zero := new(big.Rat)
	for j := art; j < n; j++ {
		s.ub[j] = zero
		cost[j].SetInt64(0)
	}
	if !zeroCost {
		sign := int64(1)
		if m.sense == Maximize {
			sign = -1
		}
		for i, v := range m.vars {
			c := new(big.Rat).SetFloat64(v.obj)
			c.Mul(c, big.NewRat(sign, 1))
			if mp := &maps[i]; mp.pos >= 0 {
				cost[mp.pos].Set(c)
			}
			if mp := &maps[i]; mp.neg >= 0 {
				cost[mp.neg].Neg(c)
			}
		}
	}
	s.price(cost)
	if !s.run() {
		return refResult{status: Unbounded}
	}
	res := refResult{status: Optimal, obj: new(big.Rat), x: make([]*big.Rat, len(m.vars))}
	for i, v := range m.vars {
		mp := &maps[i]
		x := new(big.Rat).Set(&mp.off)
		if mp.pos >= 0 {
			x.Add(x, &s.x[mp.pos])
		}
		if mp.neg >= 0 {
			x.Sub(x, &s.x[mp.neg])
		}
		res.x[i] = x
		res.obj.Add(res.obj, t.Mul(new(big.Rat).SetFloat64(v.obj), x))
	}
	return res
}

// refSimplex is the reference's dense rational tableau: a = B⁻¹A, d the
// reduced costs, x every column's value. Every column's lower bound is 0;
// ub holds the upper ones (nil: none).
type refSimplex struct {
	a       [][]big.Rat
	d       []big.Rat
	x       []big.Rat
	ub      []*big.Rat
	basis   []int
	inBasis []bool
	atUpper []bool
}

// price sets the reduced costs d = c − c_B·B⁻¹A.
func (s *refSimplex) price(c []big.Rat) {
	t := new(big.Rat)
	for j := range s.d {
		s.d[j].Set(&c[j])
		for r, b := range s.basis {
			s.d[j].Sub(&s.d[j], t.Mul(&c[b], &s.a[r][j]))
		}
	}
}

// run pivots to optimality by Bland's rule: the lowest-index column whose
// reduced cost improves the objective enters; the step stops at the first
// bound reached, the entering column's own (a bound flip) before any tied
// row, the lowest-index basic column among tied rows. It reports false
// when nothing limits the step: the LP is unbounded.
func (s *refSimplex) run() bool {
	t := new(big.Rat)
	for iter := 0; ; iter++ {
		if iter > 100000 {
			panic("reference simplex: no termination")
		}
		q, dir := -1, int64(1)
		for j := range s.d {
			if s.inBasis[j] || (s.ub[j] != nil && s.ub[j].Sign() == 0) {
				continue
			}
			if sg := s.d[j].Sign(); (!s.atUpper[j] && sg < 0) || (s.atUpper[j] && sg > 0) {
				q = j
				if s.atUpper[j] {
					dir = -1
				}
				break
			}
		}
		if q < 0 {
			return true
		}
		var theta *big.Rat
		if s.ub[q] != nil {
			theta = s.ub[q]
		}
		row, hitUpper := -1, false
		for r, b := range s.basis {
			if s.a[r][q].Sign() == 0 {
				continue
			}
			rate := new(big.Rat).Mul(&s.a[r][q], big.NewRat(-dir, 1)) // d x_b / dθ
			var lim *big.Rat
			switch {
			case rate.Sign() < 0:
				lim = new(big.Rat).Quo(&s.x[b], rate)
				lim.Neg(lim)
			case s.ub[b] != nil:
				lim = new(big.Rat).Sub(s.ub[b], &s.x[b])
				lim.Quo(lim, rate)
			default:
				continue
			}
			if theta == nil || lim.Cmp(theta) < 0 || (lim.Cmp(theta) == 0 && row >= 0 && b < s.basis[row]) {
				theta, row, hitUpper = lim, r, rate.Sign() > 0
			}
		}
		if theta == nil {
			return false
		}
		step := new(big.Rat).Mul(theta, big.NewRat(dir, 1))
		s.x[q].Add(&s.x[q], step)
		for r, b := range s.basis {
			s.x[b].Sub(&s.x[b], t.Mul(step, &s.a[r][q]))
		}
		if row < 0 {
			s.atUpper[q] = !s.atUpper[q]
			continue
		}
		s.atUpper[s.basis[row]] = hitUpper
		s.pivot(row, q)
	}
}

// pivot makes column q basic in row r.
func (s *refSimplex) pivot(r, q int) {
	t := new(big.Rat)
	inv := new(big.Rat).Inv(&s.a[r][q])
	prow := s.a[r]
	for j := range prow {
		if prow[j].Sign() != 0 {
			prow[j].Mul(&prow[j], inv)
		}
	}
	eliminate := func(v []big.Rat) {
		f := new(big.Rat).Set(&v[q])
		if f.Sign() == 0 {
			return
		}
		for j := range prow {
			if prow[j].Sign() != 0 {
				v[j].Sub(&v[j], t.Mul(f, &prow[j]))
			}
		}
	}
	for i := range s.a {
		if i != r {
			eliminate(s.a[i])
		}
	}
	eliminate(s.d)
	s.inBasis[s.basis[r]] = false
	s.inBasis[q] = true
	s.atUpper[q] = false
	s.basis[r] = q
}
