package solver

import "math"

// npOutcome is what propagating one row did to the working bounds.
type npOutcome int

const (
	npNone npOutcome = iota
	npChanged
	npInfeasible
)

// npMaxRowChecks caps the rows one node's propagation worklist may
// process. Propagation is monotone (integer bounds only ever tighten onto
// the grid), so it always terminates, but a pathological chain of long
// rows could still make a single node expensive; past the cap the pass
// simply stops tightening, which is always sound.
const npMaxRowChecks = 20000

// npState is a branch-and-bound search's node-presolve scratch: working
// bound vectors kept in sync with the node under examination through an
// undo stack, plus a row worklist. Before each node's LP solve, run
// propagates the node's bound-change chain through the constraint activity
// bounds — integer variables only, under the simplex's feasibility and
// branch-and-bound's integrality tolerances — and emits every
// additional tightening as new boundChange links for the node, so the LP
// and the reduced-cost fixing machinery both see them. A node whose chain
// is propagation-infeasible is pruned without solving its LP at all.
//
// Cost per node is O(chain length + rows touched), not O(vars): the bound
// vectors persist across nodes and the undo stack rewinds exactly the
// entries the previous node wrote, which keeps the dive path's economics
// intact. A state must not be shared between concurrent searches.
type npState struct {
	m   *Model
	csc *cscMatrix

	lb, ub []float64 // working bounds; model bounds whenever undo is empty

	undoV   []int32
	undoUp  []bool
	undoOld []float64

	inQ   []bool
	queue []int32
}

func newNpState(m *Model) *npState {
	np := &npState{m: m, csc: m.cscMatrixOf()}
	nv := len(m.vars)
	np.lb = make([]float64, nv)
	np.ub = make([]float64, nv)
	for i := range m.vars {
		np.lb[i], np.ub[i] = m.vars[i].lb, m.vars[i].ub
	}
	np.inQ = make([]bool, len(m.cons))
	return np
}

// setBound records the old value on the undo stack and writes the new one.
func (np *npState) setBound(v int32, upper bool, val float64) {
	np.undoV = append(np.undoV, v)
	np.undoUp = append(np.undoUp, upper)
	if upper {
		np.undoOld = append(np.undoOld, np.ub[v])
		np.ub[v] = val
	} else {
		np.undoOld = append(np.undoOld, np.lb[v])
		np.lb[v] = val
	}
}

// rewind restores the working bounds to the model bounds by popping the
// undo stack in reverse.
func (np *npState) rewind() {
	for i := len(np.undoV) - 1; i >= 0; i-- {
		v := np.undoV[i]
		if np.undoUp[i] {
			np.ub[v] = np.undoOld[i]
		} else {
			np.lb[v] = np.undoOld[i]
		}
	}
	np.undoV = np.undoV[:0]
	np.undoUp = np.undoUp[:0]
	np.undoOld = np.undoOld[:0]
}

// enqueueVarRows adds every row containing v to the worklist.
func (np *npState) enqueueVarRows(v int32) {
	for k := np.csc.colPtr[v]; k < np.csc.colPtr[v+1]; k++ {
		r := np.csc.rowIdx[k]
		if !np.inQ[r] {
			np.inQ[r] = true
			np.queue = append(np.queue, r)
		}
	}
}

// run propagates chain through the constraint activity bounds. It returns
// the chain extended with one boundChange per propagated tightening (the
// original chain when nothing propagated), the number of tightenings, and
// whether the node's bounds are propagation-infeasible — in which case the
// caller prunes the node without an LP solve. The extended links are valid
// for the whole subtree: descendants only tighten further.
func (np *npState) run(chain *boundChange) (*boundChange, int, bool) {
	np.rewind()
	np.queue = np.queue[:0]
	for c := chain; c != nil; c = c.parent {
		v := int32(c.v)
		if c.upper {
			if c.val < np.ub[v] {
				np.setBound(v, true, c.val)
				np.enqueueVarRows(v)
			}
		} else if c.val > np.lb[v] {
			np.setBound(v, false, c.val)
			np.enqueueVarRows(v)
		}
	}
	nChain := len(np.undoV)
	infeasible := false
	checked := 0
	for qi := 0; qi < len(np.queue); qi++ {
		r := np.queue[qi]
		np.inQ[r] = false
		if infeasible || checked >= npMaxRowChecks {
			continue // drain the queue flags without further work
		}
		checked++
		if np.propagateRow(int(r)) == npInfeasible {
			infeasible = true
		}
	}
	if infeasible {
		return chain, len(np.undoV) - nChain, true
	}
	// Emit the propagated tightenings as chain links, newest first so a
	// variable tightened twice on one side contributes only its final
	// (tightest) value; earlier entries for the same side are skipped.
	extra := chain
	n := 0
	for i := len(np.undoV) - 1; i >= nChain; i-- {
		v, up := np.undoV[i], np.undoUp[i]
		dup := false
		for k := i + 1; k < len(np.undoV); k++ {
			if np.undoV[k] == v && np.undoUp[k] == up {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		val := np.lb[v]
		if up {
			val = np.ub[v]
		}
		extra = &boundChange{parent: extra, v: VarID(v), upper: up, val: val}
		n++
	}
	return extra, n, false
}

// propagateRow applies the activity-bound tightening of one row to the
// working bounds: integer variables only, feasTol/intTol tolerances, both
// directions for EQ rows. Newly tightened variables re-enqueue their rows.
func (np *npState) propagateRow(r int) npOutcome {
	c := &np.m.cons[r]
	minAct, maxAct, minInf, maxInf := rowActivity(c.terms, np.lb, np.ub)
	tol := feasTol * math.Max(1, math.Abs(c.rhs))
	switch c.rel {
	case LE:
		if minInf == 0 && minAct > c.rhs+tol {
			return npInfeasible
		}
	case GE:
		if maxInf == 0 && maxAct < c.rhs-tol {
			return npInfeasible
		}
	case EQ:
		if (minInf == 0 && minAct > c.rhs+tol) || (maxInf == 0 && maxAct < c.rhs-tol) {
			return npInfeasible
		}
	}
	out := npNone
	if c.rel != GE { // LE and EQ propagate the ≤ direction
		switch np.propagateDir(c.terms, c.rhs, 1, minAct, minInf) {
		case npInfeasible:
			return npInfeasible
		case npChanged:
			out = npChanged
		}
	}
	if c.rel != LE { // GE and EQ propagate the ≥ direction as −a·x ≤ −b
		switch np.propagateDir(c.terms, -c.rhs, -1, -maxAct, maxInf) {
		case npInfeasible:
			return npInfeasible
		case npChanged:
			out = npChanged
		}
	}
	return out
}

// propagateDir tightens integer-variable bounds from sign·(a·x) ≤ sign·rhs
// using the minimum activity of the remaining terms, writing through
// setBound so the changes are undoable and emitted to the node's chain.
func (np *npState) propagateDir(terms []Term, rhs, sign, minAct float64, minInf int) npOutcome {
	if minInf > 1 {
		return npNone
	}
	out := npNone
	for _, t := range terms {
		v := int32(t.Var)
		if !np.m.vars[v].integer {
			continue
		}
		coef := sign * t.Coef
		l, u := np.lb[v], np.ub[v]
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
			nb := math.Floor(limit + intTol)
			if math.IsInf(u, 1) || nb < u {
				if nb < l-feasTol {
					return npInfeasible
				}
				np.setBound(v, true, nb)
				np.enqueueVarRows(v)
				out = npChanged
			}
		} else {
			nb := math.Ceil(limit - intTol)
			if math.IsInf(l, -1) || nb > l {
				if nb > u+feasTol {
					return npInfeasible
				}
				np.setBound(v, false, nb)
				np.enqueueVarRows(v)
				out = npChanged
			}
		}
	}
	return out
}

// rowActivity computes a row's activity bounds over the bound vectors lb
// and ub, counting the infinite contributions apart.
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
