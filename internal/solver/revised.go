package solver

import (
	"context"
	"math"
	"sort"
	"sync"
)

// Numerical tolerances of the simplex.
const (
	pivotTol = 1e-9 // minimum magnitude of a usable pivot element
	feasTol  = 1e-7 // feasibility / optimality tolerance
)

// ctxCheckMask gates how often the pivot loop polls Options.Context: every
// ctxCheckMask+1 iterations, including iteration 0 (a power-of-two mask so
// the test is one AND). Cancellation surfaces as IterLimit — the solve
// carries no certificate, exactly as if the pivot budget had run out — so
// one long LP cannot overrun a caller's deadline.
const ctxCheckMask = 63

// Artificial-box policy for dual-infeasible columns at cold start (see
// placeNonbasic): a column whose cost sign demands a bound the model does
// not have gets a temporary box at ±rxBigBound; if the optimum lands on
// that box at a nonzero reduced cost the solve retries once with the box
// enlarged by rxBigGrow, and if it still binds, certify decides the LP
// without boxes.
const (
	rxBigBound = 1e7
	rxBigGrow  = 1e4
)

// rxPivotSafety is the minimum spike-pivot magnitude accepted for a basis
// change. A column can price as eligible (|ρ·a_j| > pivotTol) while the
// FTRAN'd value of the same quantity lands orders of magnitude smaller on
// highly degenerate models; pivoting on such a value produces a
// near-singular next basis whose refactorization then fails. Columns under
// this threshold are numerically ineligible for the current leaving row
// and are excluded from the ratio test instead of pivoted on. Skipping a
// column with |α| < rxPivotSafety perturbs its reduced cost by at most
// θ·|α| per pivot, well inside feasTol for the step sizes these models
// produce.
const rxPivotSafety = 1e-7

// Pricing-weight guards: rxWeightFloor keeps the weighted leaving-row
// score finite when an updated weight has drifted toward zero, and
// rxDevexCap bounds devex reference-weight growth — a weight past the cap
// means the reference framework is long gone and the recurrence is only
// amplifying noise, so the framework resets.
const (
	rxWeightFloor = 1e-10
	rxDevexCap    = 1e7
)

// rxStatus is a column's role relative to the current basis.
type rxStatus int8

const (
	rxAtLower rxStatus = iota // nonbasic at its lower bound
	rxAtUpper                 // nonbasic at its upper bound
	rxBasic
	rxFree // nonbasic at value 0, both bounds infinite
)

// rxSnap is a per-node basis snapshot: the basis and every column's status
// at the parent's optimum. The simplex works on the model rows directly, so
// nothing about the snapshot depends on rhs signs, and bound changes never
// alter its shape (bounds live in vectors). Immutable after creation;
// shared by both children.
type rxSnap struct {
	rows, cols int
	basis      []int32
	status     []rxStatus
}

// rxResult is the internal outcome of a dual-simplex run.
type rxResult int

const (
	rxOptimal rxResult = iota
	rxInfeasible
	rxIterLimit
	rxGiveUp // numerical trouble: no certificate either way
)

// rxScratch is the revised simplex's per-worker state: the shared
// read-only CSC matrix, bound/status/basis vectors sized by columns and
// rows (never rows×cols), the LU factorization of the basis, and a
// handful of dense work vectors of length rows. Standard form is
//
//	min c·x   s.t.  A·x + s = b,  lb ≤ x ≤ ub,
//
// with one implicit unit slack column per row whose bounds encode the
// relation. Bounded variables are handled natively — a nonbasic column
// sits at its lower or upper bound — so finite upper bounds cost nothing.
// A scratch must not be shared between concurrent solves; each
// branch-and-bound worker owns one, taken from rxPool.
type rxScratch struct {
	m     *Model
	csc   *cscMatrix
	nRows int
	nCols int // structural columns; slack j for row r is nCols+r
	nTot  int
	sign  float64 // +1 Minimize, −1 Maximize

	cost   []float64 // per column, sign-scaled (slacks 0)
	lb, ub []float64 // effective bounds for this solve (slack part fixed)
	rhs    []float64 // b: the model's, or zeros for certify's recession LP
	status []rxStatus
	basis  []int32   // per row position, the basic column
	xB     []float64 // basic variable values, by row position

	lu      luFactor
	excl    []uint64 // per-column exclusion epoch for the tiny-pivot retry
	exclEp  uint64
	alphaC  []float64 // the leaving row ρ·a_j per column (priceRow), for the ratio test
	dC      []float64 // cached dual ratio per admissible column
	admis   []int32   // admissible columns of the current ratio test
	cand    rxCands   // ratio-sorted candidate walk of the long-step ratio test
	colBuf  []float64 // dense original-row scratch (FTRAN input; zero between uses)
	w       []float64 // FTRAN output: the spike B⁻¹a_enter
	rho     []float64 // BTRAN(e_p), original-row space
	y       []float64 // BTRAN(c_B), original-row space
	posBuf  []float64 // BTRAN input scratch, position space (zero between uses)
	posBuf2 []float64 // second BTRAN input: ρ and y are solved in one pass

	weightsOK bool      // rowW valid; false falls row selection back to Dantzig
	rowW      []float64 // per-row devex reference weight
	flipJ     []int32   // columns the current ratio test bound-flips
	flipW     []float64 // FTRAN output for the aggregated flip column
	spikeSave []float64 // FT spike saved across the flip FTRAN

	values []float64 // model-variable extraction buffer (aliased by Solutions)

	artLBCols []int32 // columns whose lb is currently an artificial box
	artUBCols []int32 // columns whose ub is currently an artificial box

	crashSnap rxSnap     // the root basis crashed at a MIP start (see crash); never retained
	crashRow  []rxStatus // crash scratch: per row, the status its slack leaves at

	maxIter    int             // per-solve pivot cap (0 = size-derived default)
	ctx        context.Context // cancellation observed every ctxCheckMask+1 pivots (nil = never)
	logf       func(format string, args ...interface{})
	lastPivots int  // pivots of the current solve call (see solve)
	usedArt    bool // solve placed artificial boxes: no snapshot, no fixings

	nBoundFlips int // cumulative since getRxScratch
}

// rxCands is the sorted candidate list of the long-step dual ratio test:
// admissible columns ordered by (ratio, column index), walked in order so
// boxed candidates whose ratio is passed can be flipped bound-to-bound.
// Lives in the scratch and is re-sliced per iteration; sorting allocates
// nothing.
type rxCands struct {
	j     []int32
	ratio []float64
}

func (c *rxCands) Len() int { return len(c.j) }
func (c *rxCands) Less(a, b int) bool {
	if c.ratio[a] != c.ratio[b] {
		return c.ratio[a] < c.ratio[b]
	}
	return c.j[a] < c.j[b]
}
func (c *rxCands) Swap(a, b int) {
	c.j[a], c.j[b] = c.j[b], c.j[a]
	c.ratio[a], c.ratio[b] = c.ratio[b], c.ratio[a]
}

// rxPool holds the simplex workspaces between solves. Every solve takes
// its scratches from it (getRxScratch) and puts them back when it returns
// (putRxScratch), so a steady stream of solves reuses the same vectors and
// LU store instead of building, zeroing and dropping them each time.
var rxPool = sync.Pool{New: func() any { return new(rxScratch) }}

// getRxScratch takes a workspace from the pool and sets it up for m under
// the pivot cap, context and log of opts. Every vector is resized to m;
// every field one solve leaves behind for the next — counters, exclusion
// epochs, artificial-box lists, the weight and box flags — is reset, and
// the buffers that must be zero between uses are cleared, so whatever a
// previous solve of any model left there cannot reach this one.
func getRxScratch(m *Model, opts Options) *rxScratch {
	csc := m.cscMatrixOf()
	rx := rxPool.Get().(*rxScratch)
	nRows, nCols := csc.rows, csc.cols
	nTot := nRows + nCols
	// The literal zeroes every field it does not name: flags, counters,
	// epochs. The named ones keep their backing arrays.
	*rx = rxScratch{
		m:         m,
		csc:       csc,
		nRows:     nRows,
		nCols:     nCols,
		nTot:      nTot,
		sign:      1,
		cost:      grow(rx.cost, nTot),
		lb:        grow(rx.lb, nTot),
		ub:        grow(rx.ub, nTot),
		rhs:       csc.rhs,
		status:    grow(rx.status, nTot),
		basis:     grow(rx.basis, nRows),
		xB:        grow(rx.xB, nRows),
		lu:        rx.lu,
		excl:      grow(rx.excl, nTot),
		alphaC:    grow(rx.alphaC, nTot),
		dC:        grow(rx.dC, nTot),
		admis:     rx.admis[:0],
		cand:      rxCands{j: rx.cand.j[:0], ratio: rx.cand.ratio[:0]},
		colBuf:    grow(rx.colBuf, nRows),
		w:         grow(rx.w, nRows),
		rho:       grow(rx.rho, nRows),
		y:         grow(rx.y, nRows),
		posBuf:    grow(rx.posBuf, nRows),
		posBuf2:   grow(rx.posBuf2, nRows),
		rowW:      grow(rx.rowW, nRows),
		flipJ:     rx.flipJ[:0],
		flipW:     grow(rx.flipW, nRows),
		spikeSave: grow(rx.spikeSave, nRows),
		values:    grow(rx.values, nCols),
		artLBCols: rx.artLBCols[:0],
		artUBCols: rx.artUBCols[:0],
		crashSnap: rxSnap{basis: rx.crashSnap.basis, status: rx.crashSnap.status},
		crashRow:  rx.crashRow,
		maxIter:   opts.MaxLPIter,
		ctx:       opts.Context,
		logf:      opts.Logf,
	}
	rx.lu.nFactor, rx.lu.nUpdate, rx.lu.nFtran, rx.lu.nBtran, rx.lu.peakFill = 0, 0, 0, 0, 0
	clear(rx.excl)
	clear(rx.colBuf)
	clear(rx.posBuf)
	clear(rx.posBuf2)
	clear(rx.lu.c2)
	if m.sense == Maximize {
		rx.sign = -1
	}
	for i := range m.vars {
		rx.cost[i] = rx.sign * m.vars[i].obj
	}
	clear(rx.cost[nCols:])
	// Slack bounds are fixed by the row relations; set once per solve.
	for r := 0; r < nRows; r++ {
		j := nCols + r
		switch csc.rel[r] {
		case LE:
			rx.lb[j], rx.ub[j] = 0, math.Inf(1)
		case GE:
			rx.lb[j], rx.ub[j] = math.Inf(-1), 0
		case EQ:
			rx.lb[j], rx.ub[j] = 0, 0
		}
	}
	return rx
}

// putRxScratch returns rx to the pool, dropping its references to the
// model and the caller's context and log. Nothing the solver hands out
// aliases a workspace: every Solution that leaves it carries its own copy
// of Values, and basis snapshots are copies too.
func putRxScratch(rx *rxScratch) {
	rx.m, rx.csc, rx.rhs, rx.ctx, rx.logf = nil, nil, nil, nil, nil
	rxPool.Put(rx)
}

// resetWeights reinstalls the unit devex reference framework — exact for
// the all-slack basis, and for any other basis the standard approximate
// restart: pricing quality degrades for a few pivots, never correctness.
func (rx *rxScratch) resetWeights() {
	for i := range rx.rowW {
		rx.rowW[i] = 1
	}
	rx.weightsOK = true
}

// resolveBounds loads the model bounds tightened by the node's bound-change
// chain into the structural part of lb/ub.
func (rx *rxScratch) resolveBounds(chain *boundChange) {
	for i := range rx.m.vars {
		rx.lb[i], rx.ub[i] = rx.m.vars[i].lb, rx.m.vars[i].ub
	}
	for c := chain; c != nil; c = c.parent {
		if c.upper {
			if c.val < rx.ub[c.v] {
				rx.ub[c.v] = c.val
			}
		} else if c.val > rx.lb[c.v] {
			rx.lb[c.v] = c.val
		}
	}
}

// nonbasicValue returns the value a nonbasic column currently sits at.
func (rx *rxScratch) nonbasicValue(j int) float64 {
	switch rx.status[j] {
	case rxAtLower:
		return rx.lb[j]
	case rxAtUpper:
		return rx.ub[j]
	}
	return 0 // rxFree (and rxBasic, whose value lives in xB)
}

// scatterCol writes column j (structural or slack) into the dense
// original-row vector x, which must be zero on entry.
func (rx *rxScratch) scatterCol(j int, x []float64) {
	if j >= rx.nCols {
		x[j-rx.nCols] = 1
		return
	}
	for k := rx.csc.colPtr[j]; k < rx.csc.colPtr[j+1]; k++ {
		x[rx.csc.rowIdx[k]] = rx.csc.val[k]
	}
}

// computeXB recomputes the basic values xB = B⁻¹(b − N·x_N) from scratch.
// Called after every (re)factorization so accumulated update error in xB
// is flushed along with the row etas.
func (rx *rxScratch) computeXB() {
	x := rx.colBuf
	copy(x, rx.rhs)
	for j := 0; j < rx.nCols; j++ {
		if rx.status[j] == rxBasic {
			continue
		}
		v := rx.nonbasicValue(j)
		if v == 0 {
			continue
		}
		for k := rx.csc.colPtr[j]; k < rx.csc.colPtr[j+1]; k++ {
			x[rx.csc.rowIdx[k]] -= rx.csc.val[k] * v
		}
	}
	for r := 0; r < rx.nRows; r++ {
		j := rx.nCols + r
		if rx.status[j] != rxBasic {
			x[r] -= rx.nonbasicValue(j)
		}
	}
	rx.lu.ftran(x, rx.xB)
}

// refactor factorizes the current basis and recomputes xB. Returns false
// on a singular basis.
func (rx *rxScratch) refactor() bool {
	if !rx.lu.factorize(rx.basis, rx.csc, rx.colBuf) {
		return false
	}
	rx.computeXB()
	return true
}

// priceRow computes the leaving row of B⁻¹[A I] into alphaC: α_j = ρ·a_j
// for every column, accumulated row-wise over the rows where ρ is nonzero
// — Σ_r ρ_r·A[r,·] over the shared immutable model rows — so the cost is
// the nonzeros of those rows, not of the whole matrix. Rows are visited in
// ascending order, the order a CSC column stores its entries in, so each
// α_j is bit-equal to the column-wise dot product.
func (rx *rxScratch) priceRow() {
	alpha := rx.alphaC[:rx.nCols]
	for j := range alpha {
		alpha[j] = 0
	}
	for r, rr := range rx.rho {
		if rr == 0 {
			continue
		}
		for _, t := range rx.m.cons[r].terms {
			alpha[t.Var] += t.Coef * rr
		}
	}
	copy(rx.alphaC[rx.nCols:], rx.rho)
}

// loadBasicCosts writes c_B, the right-hand side of the dual solve
// y = B⁻ᵀc_B, into the position-space vector c.
func (rx *rxScratch) loadBasicCosts(c []float64) {
	for r, j := range rx.basis {
		c[r] = rx.cost[j]
	}
}

// reducedCost returns d_j = c_j − y·a_j for column j against the duals
// currently in rx.y.
func (rx *rxScratch) reducedCost(j int) float64 {
	if j >= rx.nCols {
		return rx.cost[j] - rx.y[j-rx.nCols]
	}
	var yd float64
	for k := rx.csc.colPtr[j]; k < rx.csc.colPtr[j+1]; k++ {
		yd += rx.csc.val[k] * rx.y[rx.csc.rowIdx[k]]
	}
	return rx.cost[j] - yd
}

// dualIterate runs bounded-variable dual simplex pivots from the current
// (dual-feasible) basis until primal feasibility (rxOptimal), a violated
// row whose full long-step walk cannot absorb the violation
// (rxInfeasible), the pivot budget (rxIterLimit), or numerical trouble
// (rxGiveUp). The pivot budget is cumulative per solve call: iterations
// already recorded in lastPivots (by an earlier run of the same call — a
// failed dive or warm start, a boxed attempt, a certificate run) count
// against maxIter, so no part of the call can spend the cap twice.
//
// Row selection scores violation²/weight under devex, falls back to the
// largest violation (Dantzig) when the weights have gone stale, and
// switches to first-violated-index after a Bland-style threshold. The entering column comes from a long-step ratio
// test: admissible columns are walked in (ratio, index) order, and a boxed
// candidate whose ratio is passed while the remaining violation still
// exceeds feasTol is flipped to its opposite bound instead of pivoted on.
// The walk stops at the first candidate it cannot flip past, and the
// entering column is the max-|α| member of that candidate's feasTol ratio
// tie group — the same discriminator as before the long step existed —
// so the pivot sequence stays deterministic.
func (rx *rxScratch) dualIterate() rxResult {
	maxIter := rx.maxIter
	if maxIter <= 0 {
		maxIter = 100*(rx.nRows+rx.nTot) + 2000
	}
	budget := maxIter - rx.lastPivots
	blandAfter := 20 * (rx.nRows + rx.nTot)
	for iter := 0; iter < budget; iter++ {
		if iter&ctxCheckMask == 0 && rx.ctx != nil && rx.ctx.Err() != nil {
			return rxIterLimit
		}
		// Leaving row; sigma is the violation direction (+1 above ub, −1
		// below lb). Devex scores violation²/weight — the weight
		// approximates ‖B⁻ᵀe_i‖², the length of the dual ray the pivot
		// would move along — which is what breaks the degeneracy
		// oscillation: Dantzig keeps re-picking rows whose large violation
		// moves along a near-parallel ray, weighted pricing discounts
		// exactly those.
		p, sigma, worst := -1, 1.0, feasTol
		if rx.weightsOK && iter < blandAfter {
			best := 0.0
			for r := 0; r < rx.nRows; r++ {
				bc := rx.basis[r]
				xr := rx.xB[r]
				v, s := rx.lb[bc]-xr, -1.0
				if v <= feasTol {
					if v = xr - rx.ub[bc]; v <= feasTol {
						continue
					}
					s = 1
				}
				wr := rx.rowW[r]
				if wr < rxWeightFloor {
					wr = rxWeightFloor
				}
				if score := v * v / wr; score > best {
					best, p, sigma, worst = score, r, s, v
				}
			}
		} else {
			for r := 0; r < rx.nRows; r++ {
				bc := rx.basis[r]
				xr := rx.xB[r]
				if v := rx.lb[bc] - xr; v > worst {
					worst, p, sigma = v, r, -1
					if iter >= blandAfter {
						break
					}
				} else if v := xr - rx.ub[bc]; v > worst {
					worst, p, sigma = v, r, 1
					if iter >= blandAfter {
						break
					}
				}
			}
		}
		if p < 0 {
			return rxOptimal
		}
		leave := int(rx.basis[p])

		// Price: ρ = B⁻ᵀe_p gives the leaving row of B⁻¹A; y = B⁻ᵀc_B
		// gives reduced costs. Both are solved fresh at every pivot — one
		// pass over the factor for the pair — so there is no carried cost
		// row to drift; only the admissible columns' d_j are then priced
		// from y.
		rx.posBuf[p] = 1
		rx.loadBasicCosts(rx.posBuf2)
		rx.lu.btran(rx.posBuf, rx.rho, rx.posBuf2, rx.y)

		// Dual ratio test: among nonbasic columns whose movement pushes
		// xB[p] toward its violated bound, the entering column must be one
		// whose reduced cost hits zero first. One row-wise pricing pass gives
		// every column's α; d is priced for the admissible ones only, a few
		// dozen columns out of a thousand. The winner is then chosen among the
		// columns whose ratio ties the minimum within feasTol as the one
		// with the LARGEST |α|. The tie-break is the load-bearing part: on
		// massively degenerate models (near-parallel columns after
		// coefficient tightening) most ratios are exactly zero, and always
		// taking the smallest index walks into a sequence of tiny pivots
		// whose huge steps blow up the basic values until the basis goes
		// numerically singular. Preferring the biggest pivot keeps steps —
		// and the basis condition number — bounded.
		rx.priceRow()
		rx.admis = rx.admis[:0]
		for j := 0; j < rx.nTot; j++ {
			alpha := rx.alphaC[j]
			if alpha == 0 {
				continue // off the leaving row: inadmissible whatever its status
			}
			st := rx.status[j]
			if st == rxBasic || rx.lb[j] == rx.ub[j] {
				continue // fixed columns cannot move; their d is unconstrained
			}
			switch st {
			case rxAtLower:
				if sigma*alpha <= pivotTol {
					continue
				}
			case rxAtUpper:
				if sigma*alpha >= -pivotTol {
					continue
				}
			default: // rxFree: d ≈ 0, either direction admissible
				if math.Abs(alpha) <= pivotTol {
					continue
				}
			}
			ratio := rx.reducedCost(j) / (sigma * alpha)
			if ratio < 0 {
				ratio = 0 // roundoff pushed d marginally past its bound
			}
			rx.admis = append(rx.admis, int32(j))
			rx.dC[j] = ratio
		}
		// Sort the candidates by (ratio, index) once; the tiny-pivot
		// exclusion retry below redoes the walk, not the sort.
		rx.cand.j = append(rx.cand.j[:0], rx.admis...)
		rx.cand.ratio = rx.cand.ratio[:0]
		for _, j32 := range rx.admis {
			rx.cand.ratio = append(rx.cand.ratio, rx.dC[j32])
		}
		sort.Sort(&rx.cand)

		// The walk retries with the chosen column excluded whenever its
		// FTRAN'd spike pivot comes out below rxPivotSafety — pivoting on a
		// tiny α would hand the next refactorization a near-singular basis
		// (see the constant's comment).
		rx.exclEp++
		excluded := 0
		enter := -1
		var alphaP float64
		for {
			// Long-step walk in ratio order: δ is the dual-objective slope —
			// the remaining violation of row p — which flipping a boxed
			// candidate bound-to-bound shrinks by width·|α|. A candidate is
			// passed (marked for flipping, applied only after the entering
			// pivot survives the safety check) while δ stays above feasTol;
			// the walk stops at the first candidate it cannot flip past —
			// pivoting there lands the leaving variable exactly on its
			// bound. Free and unboxed columns have infinite width and always
			// stop the walk, so models without boxed columns behave exactly
			// as before.
			rx.flipJ = rx.flipJ[:0]
			delta := worst
			stop := -1
			for ci := 0; ci < len(rx.cand.j); ci++ {
				j := int(rx.cand.j[ci])
				if rx.excl[j] == rx.exclEp {
					continue
				}
				if drop := (rx.ub[j] - rx.lb[j]) * math.Abs(rx.alphaC[j]); delta-drop > feasTol {
					rx.flipJ = append(rx.flipJ, int32(j))
					delta -= drop
					continue
				}
				stop = ci
				break
			}
			if stop < 0 {
				if excluded > 0 {
					// Tiny-pivot exclusions ate the walk: too
					// ill-conditioned to certify infeasibility here.
					return rxGiveUp
				}
				// Walking (and flipping) every admissible column leaves row
				// p violated: the dual objective improves along this ray
				// without bound, so no feasible point exists under these
				// bounds. (With no admissible columns at all this is the
				// classic dual-unbounded row certificate.)
				return rxInfeasible
			}
			// Only candidates whose ratio the dual step STRICTLY passes stay
			// flipped. A candidate in the stop's feasTol tie group keeps its
			// bound: its reduced cost is ≈0 at the new dual point, so either
			// bound is dual-feasible — and flipping it would move the primal
			// point across a degenerate (θ ≈ 0) step with no dual progress,
			// which is exactly the cycling the dual simplex is otherwise
			// immune to. With the filter, any iteration that flips has
			// θ > feasTol and strictly improves the dual objective, so flip
			// sequences terminate.
			stopRatio := rx.cand.ratio[stop]
			keep := rx.flipJ[:0]
			for _, j32 := range rx.flipJ {
				if rx.dC[j32] < stopRatio-feasTol {
					keep = append(keep, j32)
				}
			}
			rx.flipJ = keep
			// Entering column: max |α| within the stop's feasTol ratio tie
			// group, including tie-group members the filter just unflipped.
			enter = -1
			bestAbs := 0.0
			for ci := 0; ci < len(rx.cand.j); ci++ {
				if rx.cand.ratio[ci] > stopRatio+feasTol {
					break
				}
				j := int(rx.cand.j[ci])
				if rx.excl[j] == rx.exclEp || rx.cand.ratio[ci] < stopRatio-feasTol {
					continue
				}
				if a := math.Abs(rx.alphaC[j]); a > bestAbs {
					bestAbs = a
					enter = j
				}
			}

			// Spike: w = B⁻¹a_enter.
			rx.scatterCol(enter, rx.colBuf)
			rx.lu.ftran(rx.colBuf, rx.w)
			alphaP = rx.w[p]
			if math.Abs(alphaP) > rxPivotSafety {
				break
			}
			rx.excl[enter] = rx.exclEp
			excluded++
		}

		// Apply the flips: every flipped column moves to its opposite bound
		// in its admissible direction. One aggregated FTRAN updates the
		// basic values for all of them together; the Forrest–Tomlin spike
		// of the entering column is saved around it so ftUpdate still
		// consumes the right vector.
		if len(rx.flipJ) > 0 {
			for _, j32 := range rx.flipJ {
				j := int(j32)
				dv := rx.ub[j] - rx.lb[j]
				if rx.status[j] == rxAtUpper {
					dv = -dv
					rx.status[j] = rxAtLower
				} else {
					rx.status[j] = rxAtUpper
				}
				if j >= rx.nCols {
					rx.colBuf[j-rx.nCols] += dv
				} else {
					for k := rx.csc.colPtr[j]; k < rx.csc.colPtr[j+1]; k++ {
						rx.colBuf[rx.csc.rowIdx[k]] += dv * rx.csc.val[k]
					}
				}
			}
			rx.lu.saveSpike(rx.spikeSave)
			rx.lu.ftran(rx.colBuf, rx.flipW)
			rx.lu.restoreSpike(rx.spikeSave)
			for i := 0; i < rx.nRows; i++ {
				rx.xB[i] -= rx.flipW[i]
			}
		}

		// Primal step: the leaving variable lands exactly on its violated
		// bound; the entering variable absorbs the (post-flip) step.
		target := rx.ub[leave]
		if sigma < 0 {
			target = rx.lb[leave]
		}
		step := (rx.xB[p] - target) / alphaP
		enterVal := rx.nonbasicValue(enter) + step
		if step != 0 {
			for i := 0; i < rx.nRows; i++ {
				rx.xB[i] -= step * rx.w[i]
			}
		}
		enterPrev := rx.status[enter]
		rx.xB[p] = enterVal
		if sigma > 0 {
			rx.status[leave] = rxAtUpper
		} else {
			rx.status[leave] = rxAtLower
		}
		rx.status[enter] = rxBasic
		rx.basis[p] = int32(enter)
		rx.lastPivots++

		// Factor update: Forrest–Tomlin in place unless the spike pivot is
		// tiny, fill has outgrown the factorization, or the update itself
		// detects numerical drift — all of which refactorize instead.
		if math.Abs(alphaP) < luEtaTol || rx.lu.needRefactor() || !rx.lu.ftUpdate(p, alphaP) {
			if !rx.refactor() {
				// The factorization had drifted far enough that the pivot we
				// just made was priced from bad numbers and produced a
				// numerically dependent basis. Undo the pivot AND the flips
				// (a flipped column's status is only dual-consistent across
				// the step the rollback cancels), rebuild fresh factors for
				// the previous basis (which was valid), and redo the
				// iteration with accurate pricing. The weights were not yet
				// updated, so they still describe the restored basis.
				rx.basis[p] = int32(leave)
				rx.status[leave] = rxBasic
				rx.status[enter] = enterPrev
				for _, j32 := range rx.flipJ {
					j := int(j32)
					if rx.status[j] == rxAtUpper {
						rx.status[j] = rxAtLower
					} else {
						rx.status[j] = rxAtUpper
					}
				}
				rx.lastPivots--
				if !rx.refactor() {
					return rxGiveUp
				}
				continue
			}
			// A successful refactorization invalidates the devex reference
			// framework (devex weights are relative to the framework
			// installed at the last reset).
			if rx.weightsOK {
				rx.resetWeights()
				rx.nBoundFlips += len(rx.flipJ)
				continue
			}
		}
		rx.nBoundFlips += len(rx.flipJ)

		if rx.weightsOK {
			// Devex recurrence in terms of the pre-pivot spike α = B⁻¹a_enter
			// (rx.w) and the pre-update reference weight γ_p:
			// γ_i' = max(γ_i, (α_i/α_p)²γ_p), γ_p' = max(γ_p/α_p², 1).
			gp := rx.rowW[p]
			inv := 1 / (alphaP * alphaP)
			maxW := 1.0
			for i := 0; i < rx.nRows; i++ {
				if i == p {
					continue
				}
				if ai := rx.w[i]; ai != 0 {
					if cw := ai * ai * inv * gp; cw > rx.rowW[i] {
						rx.rowW[i] = cw
					}
					if rx.rowW[i] > maxW {
						maxW = rx.rowW[i]
					}
				}
			}
			gpNew := gp * inv
			if gpNew < 1 {
				gpNew = 1
			}
			rx.rowW[p] = gpNew
			if gpNew > maxW {
				maxW = gpNew
			}
			if math.IsNaN(maxW) || math.IsInf(maxW, 0) {
				rx.weightsOK = false
			} else if maxW > rxDevexCap {
				// The reference framework has decayed past usefulness:
				// restart it rather than keep amplifying one direction.
				rx.resetWeights()
			}
		}
	}
	return rxIterLimit
}

// placeNonbasic assigns every structural column a dual-feasible nonbasic
// status for the all-slack basis: positive cost at lower, negative at
// upper, zero wherever a finite bound exists (free otherwise). A column
// whose cost sign demands a bound the problem does not have gets an
// artificial box at ±big (previous boxes are dissolved first). Returns
// whether any box was placed.
func (rx *rxScratch) placeNonbasic(big float64) bool {
	rx.dropBoxes()
	for j := 0; j < rx.nCols; j++ {
		l, u, c := rx.lb[j], rx.ub[j], rx.cost[j]
		lInf, uInf := math.IsInf(l, -1), math.IsInf(u, 1)
		switch {
		case c > feasTol:
			if lInf {
				rx.lb[j] = -big
				rx.artLBCols = append(rx.artLBCols, int32(j))
			}
			rx.status[j] = rxAtLower
		case c < -feasTol:
			if uInf {
				rx.ub[j] = big
				rx.artUBCols = append(rx.artUBCols, int32(j))
			}
			rx.status[j] = rxAtUpper
		default:
			switch {
			case !lInf:
				rx.status[j] = rxAtLower
			case !uInf:
				rx.status[j] = rxAtUpper
			default:
				rx.status[j] = rxFree
			}
		}
	}
	art := len(rx.artLBCols)+len(rx.artUBCols) > 0
	rx.usedArt = rx.usedArt || art
	return art
}

// dropBoxes dissolves the artificial boxes placeNonbasic placed.
func (rx *rxScratch) dropBoxes() {
	for _, j := range rx.artLBCols {
		rx.lb[j] = math.Inf(-1)
	}
	for _, j := range rx.artUBCols {
		rx.ub[j] = math.Inf(1)
	}
	rx.artLBCols = rx.artLBCols[:0]
	rx.artUBCols = rx.artUBCols[:0]
}

// boxesFree reports whether a boxed optimum is the true one: every column
// nonbasic at an artificial box prices at zero reduced cost there, so the
// duals stay feasible with the boxes removed and the point, feasible for
// the real bounds, is optimal for them too.
func (rx *rxScratch) boxesFree() bool {
	rx.loadBasicCosts(rx.posBuf)
	rx.lu.btran(rx.posBuf, rx.y, nil, nil)
	for _, j := range rx.artLBCols {
		if rx.status[j] == rxAtLower && math.Abs(rx.reducedCost(int(j))) > feasTol {
			return false
		}
	}
	for _, j := range rx.artUBCols {
		if rx.status[j] == rxAtUpper && math.Abs(rx.reducedCost(int(j))) > feasTol {
			return false
		}
	}
	return true
}

// extract maps the current basic point back to model variables. The
// returned Values alias rx.values: callers that keep a solution across
// solves must copy first.
func (rx *rxScratch) extract() Solution {
	for j := 0; j < rx.nCols; j++ {
		rx.values[j] = rx.nonbasicValue(j)
	}
	for r := 0; r < rx.nRows; r++ {
		if b := int(rx.basis[r]); b < rx.nCols {
			rx.values[b] = rx.xB[r]
		}
	}
	obj := 0.0
	for j := 0; j < rx.nCols; j++ {
		obj += rx.m.vars[j].obj * rx.values[j]
	}
	return Solution{Status: Optimal, Objective: obj, Values: rx.values}
}

// solve is one LP solve call under the model bounds tightened by chain: a
// dive on the retained parent state when dive holds bound changes, else a
// warm start from snap when there is one, and a cold solve when neither
// resolves it. One pivot budget (MaxLPIter) spans the whole ladder, and
// lastPivots reports what the call spent. warm reports that the dive or
// the warm start resolved the call.
func (rx *rxScratch) solve(chain *boundChange, snap *rxSnap, dive []*boundChange) (sol Solution, warm bool) {
	rx.lastPivots = 0
	if len(dive) > 0 {
		if sol, ok := rx.solveDive(dive); ok {
			return sol, true
		}
		rx.resolveBounds(chain)
	} else {
		rx.resolveBounds(chain)
		if snap != nil {
			if sol, ok := rx.solveWarm(snap); ok {
				return sol, true
			}
		}
	}
	return rx.solveCold(), false
}

// fromSlacks runs the dual simplex from the all-slack basis, nonbasic
// columns where placeNonbasic put them.
func (rx *rxScratch) fromSlacks() rxResult {
	for r := 0; r < rx.nRows; r++ {
		j := rx.nCols + r
		rx.basis[r] = int32(j)
		rx.status[j] = rxBasic
	}
	if !rx.refactor() {
		return rxGiveUp
	}
	rx.resetWeights()
	return rx.dualIterate()
}

// solveCold solves from the all-slack basis under the bounds loaded by
// resolveBounds. An optimum the artificial boxes may have shaped — one
// still sitting on a box at a nonzero reduced cost after the enlarged
// retry, or Infeasible under boxes — is settled by certify.
func (rx *rxScratch) solveCold() Solution {
	rx.usedArt = false
	for j := 0; j < rx.nCols; j++ {
		if rx.lb[j] > rx.ub[j]+feasTol {
			return Solution{Status: Infeasible}
		}
	}
	big := rxBigBound
	for attempt := 0; attempt < 2; attempt++ {
		art := rx.placeNonbasic(big)
		switch rx.fromSlacks() {
		case rxOptimal:
			if !art || rx.boxesFree() {
				return rx.extract()
			}
		case rxInfeasible:
			if !art {
				return Solution{Status: Infeasible}
			}
			// The boxes shrink the feasible region: no certificate.
			return rx.certify()
		case rxIterLimit:
			return Solution{Status: IterLimit}
		default:
			return rx.giveUp("numerical trouble")
		}
		big *= rxBigGrow
	}
	return rx.certify()
}

// certify decides a cold solve the artificial boxes shaped, on the same
// scratch and within the same pivot budget, with two runs of the dual
// simplex that need no boxes. First a zero-cost run: every column is dual
// feasible at any bound it has (a free one sits at 0), so the run ends at a
// feasible point or at a row no bound flips can repair, which certifies
// Infeasible. Then, for a feasible LP, the recession LP: min c·d over
// A·d + s = 0 with every slack in its row's cone and every column's
// direction in [−1, 1], closed to 0 on the side of a finite bound. A
// negative optimum is a ray along which the objective improves without end:
// the LP is Unbounded. Anything else — a bounded LP whose optimum lies past
// the boxes, the pivot budget, numerical trouble — ends as IterLimit.
func (rx *rxScratch) certify() Solution {
	rx.dropBoxes()
	for j := 0; j < rx.nCols; j++ {
		rx.cost[j] = 0
	}
	rx.placeNonbasic(0)
	r := rx.fromSlacks()
	for j := 0; j < rx.nCols; j++ {
		rx.cost[j] = rx.sign * rx.m.vars[j].obj
	}
	switch r {
	case rxInfeasible:
		return Solution{Status: Infeasible}
	case rxIterLimit:
		return Solution{Status: IterLimit}
	case rxGiveUp:
		return rx.giveUp("numerical trouble deciding feasibility")
	}
	lb := append([]float64(nil), rx.lb[:rx.nCols]...)
	ub := append([]float64(nil), rx.ub[:rx.nCols]...)
	for j := 0; j < rx.nCols; j++ {
		rx.lb[j], rx.ub[j] = -1, 1
		if !math.IsInf(lb[j], -1) {
			rx.lb[j] = 0
		}
		if !math.IsInf(ub[j], 1) {
			rx.ub[j] = 0
		}
	}
	rx.rhs = make([]float64, rx.nRows)
	rx.placeNonbasic(0)
	r = rx.fromSlacks()
	ray := r == rxOptimal && rx.sign*rx.extract().Objective < -feasTol
	rx.rhs = rx.csc.rhs
	copy(rx.lb, lb)
	copy(rx.ub, ub)
	switch {
	case ray:
		return Solution{Status: Unbounded}
	case r == rxOptimal:
		return rx.giveUp("a bounded optimum past the artificial boxes")
	case r == rxIterLimit:
		return Solution{Status: IterLimit}
	}
	return rx.giveUp("numerical trouble in the recession LP")
}

// giveUp reports a cold solve the simplex could not certify: IterLimit, no
// point, and a log line saying why.
func (rx *rxScratch) giveUp(why string) Solution {
	if rx.logf != nil {
		rx.logf("solver: LP not certified (%s): reporting %v", why, IterLimit)
	}
	return Solution{Status: IterLimit}
}

// dualFeasible verifies every nonbasic column prices out on the right side
// for its status, using the y already in rx.y.
func (rx *rxScratch) dualFeasible() bool {
	for j := 0; j < rx.nTot; j++ {
		st := rx.status[j]
		if st == rxBasic || rx.lb[j] == rx.ub[j] {
			continue
		}
		d := rx.reducedCost(j)
		switch st {
		case rxAtLower:
			if d < -feasTol {
				return false
			}
		case rxAtUpper:
			if d > feasTol {
				return false
			}
		default:
			if math.Abs(d) > feasTol {
				return false
			}
		}
	}
	return true
}

// finishDual runs the dual simplex and converts the outcome. ok=false
// sends the caller down the ladder to a cold solve. A spent pivot budget
// is final: the cold solve would share it.
func (rx *rxScratch) finishDual() (Solution, bool) {
	switch rx.dualIterate() {
	case rxOptimal:
		return rx.extract(), true
	case rxInfeasible:
		return Solution{Status: Infeasible}, true
	case rxIterLimit:
		return Solution{Status: IterLimit}, true
	default:
		return Solution{}, false
	}
}

// solveWarm re-optimizes under the bounds loaded by resolveBounds starting
// from a parent snapshot: install statuses and basis, factorize once,
// verify dual feasibility (costs are unchanged, so the parent's optimal
// basis should price out clean — refuse on roundoff rather than risk a
// dual loop), then repair primal feasibility with the dual simplex.
// ok=false means fall back to solveCold.
func (rx *rxScratch) solveWarm(snap *rxSnap) (Solution, bool) {
	rx.usedArt = false
	if snap.rows != rx.nRows || snap.cols != rx.nCols {
		return Solution{}, false
	}
	for j := 0; j < rx.nCols; j++ {
		if rx.lb[j] > rx.ub[j]+feasTol {
			return Solution{Status: Infeasible}, true
		}
	}
	copy(rx.basis, snap.basis)
	copy(rx.status, snap.status)
	// A nonbasic-at-bound status needs that bound finite. Snapshots are
	// only taken from solves without artificial boxes and branching only
	// tightens bounds, so this never fires; keep as a cheap invariant.
	for j := 0; j < rx.nTot; j++ {
		switch rx.status[j] {
		case rxAtLower:
			if math.IsInf(rx.lb[j], -1) {
				return Solution{}, false
			}
		case rxAtUpper:
			if math.IsInf(rx.ub[j], 1) {
				return Solution{}, false
			}
		}
	}
	if !rx.refactor() {
		return Solution{}, false
	}
	rx.loadBasicCosts(rx.posBuf)
	rx.lu.btran(rx.posBuf, rx.y, nil, nil)
	if !rx.dualFeasible() {
		return Solution{}, false
	}
	// The parent's basis is not all-slack, so unit weights are only the
	// standard approximate restart — fine for pricing, which only has to
	// rank rows, and warm-started repairs are short anyway.
	rx.resetWeights()
	return rx.finishDual()
}

// solveDive re-optimizes in place after tightening bounds on the parent's
// optimal state still sitting in the scratch — no refactorization at all.
// A tightened bound on a basic variable changes nothing until the dual
// repair; on a nonbasic variable at that bound it shifts the column's
// value, moving xB by −δ·B⁻¹a_j — one FTRAN against the factorization
// already in place. ok=false means re-solve cold.
func (rx *rxScratch) solveDive(changes []*boundChange) (Solution, bool) {
	// The dive continues from the parent's final basis, which the weights
	// still describe — keep them unless the parent solve left them stale.
	if !rx.weightsOK {
		rx.resetWeights()
	}
	for _, c := range changes {
		j := int(c.v)
		if c.upper {
			newUb := math.Min(rx.ub[j], c.val)
			if newUb < rx.lb[j]-feasTol {
				return Solution{Status: Infeasible}, true
			}
			delta := newUb - rx.ub[j]
			rx.ub[j] = newUb
			switch rx.status[j] {
			case rxAtUpper:
				if delta != 0 {
					rx.shiftNonbasic(j, delta)
				}
			case rxFree:
				if newUb < 0 {
					rx.status[j] = rxAtUpper
					rx.shiftNonbasic(j, newUb)
				}
			}
		} else {
			newLb := math.Max(rx.lb[j], c.val)
			if newLb > rx.ub[j]+feasTol {
				return Solution{Status: Infeasible}, true
			}
			delta := newLb - rx.lb[j]
			rx.lb[j] = newLb
			switch rx.status[j] {
			case rxAtLower:
				if delta != 0 {
					rx.shiftNonbasic(j, delta)
				}
			case rxFree:
				if newLb > 0 {
					rx.status[j] = rxAtLower
					rx.shiftNonbasic(j, newLb)
				}
			}
		}
	}
	return rx.finishDual()
}

// shiftNonbasic moves nonbasic column j's value by delta, updating the
// basic values: xB ← xB − δ·B⁻¹a_j.
func (rx *rxScratch) shiftNonbasic(j int, delta float64) {
	rx.scatterCol(j, rx.colBuf)
	rx.lu.ftran(rx.colBuf, rx.w)
	for i := 0; i < rx.nRows; i++ {
		rx.xB[i] -= delta * rx.w[i]
	}
}

// snapshot captures the basis and statuses of the most recent Optimal
// solve, or nil when the solve used artificial boxes (children must not
// inherit statuses pinned to bounds that do not exist).
func (rx *rxScratch) snapshot() *rxSnap {
	if rx.usedArt {
		return nil
	}
	return &rxSnap{
		rows:   rx.nRows,
		cols:   rx.nCols,
		basis:  append([]int32(nil), rx.basis...),
		status: append([]rxStatus(nil), rx.status...),
	}
}

// fixings extends chain with bound tightenings read off the optimal basis
// in the scratch: an integer column nonbasic at a bound with reduced cost d
// degrades the objective by |d| per unit it moves inward, so once the
// incumbent is within budget, its range shrinks to ⌊budget/|d|⌋. The 1e-6
// relative margin keeps every solution within roundoff of the incumbent
// objective alive, so equal-objective optima — and with them the canonical
// lexicographic tie-break — survive.
func (rx *rxScratch) fixings(obj, inc float64, chain *boundChange) *boundChange {
	if rx.usedArt {
		return chain // artificial boxes make the dual prices unreliable
	}
	zMin, incMin := rx.sign*obj, rx.sign*inc
	budget := incMin - zMin + 1e-6*math.Max(1, math.Abs(incMin))
	if budget < 0 {
		return chain
	}
	rx.loadBasicCosts(rx.posBuf)
	rx.lu.btran(rx.posBuf, rx.y, nil, nil)
	for i := range rx.m.vars {
		if !rx.m.vars[i].integer {
			continue
		}
		st := rx.status[i]
		if st != rxAtLower && st != rxAtUpper {
			continue
		}
		width := rx.ub[i] - rx.lb[i]
		if width < 1 {
			continue
		}
		d := rx.reducedCost(i)
		if st == rxAtLower && d > feasTol {
			if maxT := math.Floor(budget / d); maxT < width {
				chain = &boundChange{parent: chain, v: VarID(i), upper: true, val: rx.lb[i] + maxT}
			}
		} else if st == rxAtUpper && d < -feasTol {
			if maxT := math.Floor(budget / -d); maxT < width {
				chain = &boundChange{parent: chain, v: VarID(i), upper: false, val: rx.ub[i] - maxT}
			}
		}
	}
	return chain
}

// lpStats aggregates LU/basis health over a scratch's solves: full
// refactorizations, FTRAN/BTRAN solve counts and bound flips.
type lpStats struct {
	factorizations int
	ftrans         int
	btrans         int
	boundFlips     int
}

func (rx *rxScratch) stats() lpStats {
	lu := &rx.lu
	return lpStats{
		factorizations: lu.nFactor,
		ftrans:         lu.nFtran,
		btrans:         lu.nBtran,
		boundFlips:     rx.nBoundFlips,
	}
}

// merge folds o into s.
func (s *lpStats) merge(o lpStats) {
	s.factorizations += o.factorizations
	s.ftrans += o.ftrans
	s.btrans += o.btrans
	s.boundFlips += o.boundFlips
}

// addTo copies the counters into a Solution's exported stats fields.
func (s lpStats) addTo(sol *Solution) {
	sol.Refactorizations = s.factorizations
	sol.FTRANCount = s.ftrans
	sol.BTRANCount = s.btrans
	sol.BoundFlips = s.boundFlips
}
