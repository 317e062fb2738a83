package solver

import "math"

// SetStart gives the model a MIP start (Gurobi's Start attribute): one
// value per variable, indexed by VarID, that branch-and-bound takes as its
// first incumbent. The solver never trusts it. Each solve checks it against
// the model — its length, every bound, integrality and every row — and
// drops a start that fails with a Logf line; the solve then runs exactly
// as if none had been given. An accepted start is only ever replaced by a
// strictly better point, so a search that cannot beat it returns it, with
// its own values. The values are copied; nil or empty clears the start.
// A start only seeds branch-and-bound: a model that is (or presolves to)
// a pure LP solves as if it had none.
func (m *Model) SetStart(values []float64) {
	m.start = append([]float64(nil), values...)
}

// mipStart is a start that passed checkStart, in some model's space: its
// point and its objective, Σ obj·x in VarID order — the summation order
// postsolve and the search's incumbents use. values is nil when the start
// has no point in that space (see reduceStart): it is then a cutoff only.
type mipStart struct {
	values []float64
	obj    float64
}

// checkStart returns the model's start when it is feasible for the
// original model: the right length, finite, within every bound to feasTol,
// integral to intTol, and within feasTol·max(1,|rhs|) of every row. nil
// when there is no start or it fails, the failure reported through logf.
func (m *Model) checkStart(logf func(format string, args ...interface{})) *mipStart {
	x := m.start
	if x == nil {
		return nil
	}
	reject := func(format string, args ...interface{}) *mipStart {
		if logf != nil {
			logf("solver: MIP start dropped: "+format, args...)
		}
		return nil
	}
	if len(x) != len(m.vars) {
		return reject("%d values for %d variables", len(x), len(m.vars))
	}
	obj := 0.0
	for i := range m.vars {
		v := &m.vars[i]
		switch {
		case math.IsNaN(x[i]) || math.IsInf(x[i], 0):
			return reject("%s = %v", v.name, x[i])
		case x[i] < v.lb-feasTol || x[i] > v.ub+feasTol:
			return reject("%s = %v outside [%v, %v]", v.name, x[i], v.lb, v.ub)
		case v.integer && math.Abs(x[i]-math.Round(x[i])) > intTol:
			return reject("%s = %v is not integral", v.name, x[i])
		}
		obj += v.obj * x[i]
	}
	for i := range m.cons {
		c := &m.cons[i]
		act := 0.0
		for _, t := range c.terms {
			act += t.Coef * x[t.Var]
		}
		tol := feasTol * math.Max(1, math.Abs(c.rhs))
		if (c.rel != GE && act > c.rhs+tol) || (c.rel != LE && act < c.rhs-tol) {
			return reject("row %s activity %v violates %v %v", c.name, act, c.rel, c.rhs)
		}
	}
	return &mipStart{values: x, obj: obj}
}

// reduceStart is the start as the reduced model's search sees it. Its
// objective is less the objective mass of the columns presolve fixed. Its
// point maps column by column: a kept column copies its value, a merged
// group's representative takes the sum of its members, and a fixed column
// must sit at its fixVal (to feasTol). Presolve may fix a column at a value
// the start does not take — dual fixing keeps an optimum, not every point —
// and then, or when the mapped point leaves the reduced bounds by more than
// feasTol, the start has no point in reduced space and enters the search as
// a cutoff only. nil stays nil.
func (p *presolved) reduceStart(s *mipStart) *mipStart {
	if s == nil {
		return nil
	}
	r := &mipStart{obj: s.obj - p.fixedObjective()}
	x := make([]float64, p.reduced.NumVars())
	for i, v := range s.values {
		switch {
		case p.fixed[i]:
			if math.Abs(v-p.fixVal[i]) > feasTol {
				return r
			}
		case p.newID[i] >= 0: // kept, or its group's representative
			x[p.newID[i]] = v
		default: // a later group member: the representative came first
			x[p.newID[p.groups[p.grpOf[i]][0]]] += v
		}
	}
	for j := range x {
		if v := &p.reduced.vars[j]; x[j] < v.lb-feasTol || x[j] > v.ub+feasTol {
			return r
		}
	}
	r.values = x
	return r
}

// crash builds the root LP's starting basis at x, a point of m (a start's
// values in m's space). A column is basic when x puts it strictly inside
// its bounds, or when its cost pulls it off the bound it sits at (at upper
// with minimization-signed cost > feasTol, at lower with cost < −feasTol);
// every other column is nonbasic at the bound it sits at. Each basic
// column, in index order, takes the basis position of a row that x holds
// tight and whose slack is still basic — the one where the column's
// |coefficient| is largest, the lowest such row on ties — and that slack
// leaves at the bound it is tight on. Every other row keeps its slack. nil
// when some basic column finds no row. Nothing here is trusted: solveWarm
// factorizes the basis, checks it is dual feasible and repairs what x left
// primal infeasible, and refuses (the root then solves cold) otherwise.
func (m *Model) crash(x []float64) *rxSnap {
	csc := m.cscMatrixOf()
	nr, nc := csc.rows, csc.cols
	snap := &rxSnap{rows: nr, cols: nc, basis: make([]int32, nr), status: make([]rxStatus, nc+nr)}
	// open[r]: row r is tight at x and its slack still holds position r;
	// leave[r] is the status that slack takes when a column displaces it.
	open := make([]bool, nr)
	leave := make([]rxStatus, nr)
	for r := range m.cons {
		c := &m.cons[r]
		act := 0.0
		for _, t := range c.terms {
			act += t.Coef * x[t.Var]
		}
		tol := feasTol * math.Max(1, math.Abs(c.rhs))
		switch c.rel {
		case LE: // slack rhs − act ∈ [0, ∞)
			open[r], leave[r] = act >= c.rhs-tol, rxAtLower
		case GE: // slack ∈ (−∞, 0]
			open[r], leave[r] = act <= c.rhs+tol, rxAtUpper
		default: // slack fixed at 0
			open[r], leave[r] = true, rxAtLower
		}
		snap.basis[r] = int32(nc + r)
		snap.status[nc+r] = rxBasic
	}
	sign := 1.0
	if m.sense == Maximize {
		sign = -1
	}
	for j := range m.vars {
		v := &m.vars[j]
		cost := sign * v.obj
		atLower, atUpper := x[j] <= v.lb+feasTol, x[j] >= v.ub-feasTol
		switch {
		case atLower && (v.lb == v.ub || cost >= -feasTol):
			snap.status[j] = rxAtLower
			continue
		case atUpper && cost <= feasTol:
			snap.status[j] = rxAtUpper
			continue
		}
		row, best := -1, 0.0
		for k := csc.colPtr[j]; k < csc.colPtr[j+1]; k++ {
			if r := csc.rowIdx[k]; open[r] && math.Abs(csc.val[k]) > best {
				row, best = int(r), math.Abs(csc.val[k])
			}
		}
		if row < 0 {
			return nil
		}
		open[row] = false
		snap.basis[row] = int32(j)
		snap.status[j] = rxBasic
		snap.status[nc+row] = leave[row]
	}
	return snap
}

// into returns sol — a search answer whose incumbent is still the start —
// carrying the start's own values and objective.
func (s *mipStart) into(sol Solution) Solution {
	sol.Values = append([]float64(nil), s.values...)
	sol.Objective = s.obj
	return sol
}

// fixedObjective is Σ obj·fixVal over the columns presolve fixed, in
// VarID order: the constant the reduced model's objective leaves out.
func (p *presolved) fixedObjective() float64 {
	off := 0.0
	for i := range p.orig.vars {
		if p.fixed[i] {
			off += p.orig.vars[i].obj * p.fixVal[i]
		}
	}
	return off
}
