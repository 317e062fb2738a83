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

// mipStart is a start that passed checkStart: its values in the original
// model's space and its objective, Σ obj·x in VarID order — the summation
// order postsolve and the search's incumbents use.
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

// reduced is the start as the reduced model's search sees it: an objective
// only, less offset, the objective mass of the columns presolve fixed.
// Presolve may fix a column at a value the start does not take (dual
// fixing keeps an optimum, not every point), so the start has no values in
// reduced space; it enters the search as a cutoff. nil stays nil.
func (s *mipStart) reduced(offset float64) *mipStart {
	if s == nil {
		return nil
	}
	return &mipStart{obj: s.obj - offset}
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
