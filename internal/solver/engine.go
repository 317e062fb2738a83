package solver

import "context"

// lpEngine is the per-worker LP interface branch-and-bound drives: load a
// node's bounds, solve (cold, warm from a parent snapshot, or diving on
// the engine's retained parent state), snapshot the optimal basis for the
// children, and derive reduced-cost fixings. Two implementations exist —
// the revised simplex with LU-factorized basis and the dense two-phase
// tableau (the revised engine's fallback, and the test-only
// Options.denseSimplex oracle). Snapshots are opaque (any): each engine recognizes only its
// own type and a worker hands whatever it is given back to solveWarm,
// which makes mixed-engine trees (a dense-fallback node's children under
// revised siblings) safe by construction.
type lpEngine interface {
	// applyBounds loads the model bounds tightened by chain. Must be
	// called before solveCold/solveWarm (solveDive instead continues from
	// the engine's retained state).
	applyBounds(chain *boundChange)
	// solveCold solves from scratch. The returned Values alias engine
	// scratch; copy before the next solve on this engine.
	solveCold() Solution
	// solveWarm re-optimizes from a parent snapshot; ok=false means fall
	// back to solveCold.
	solveWarm(snap any) (Solution, bool)
	// solveDive re-optimizes the engine's retained parent state after
	// tightening bounds; ok=false means re-solve via applyBounds.
	solveDive(changes []*boundChange) (Solution, bool)
	// snapshot captures the most recent Optimal solve's basis for warm
	// starts, or nil when the solve does not support one.
	snapshot() any
	// fixings extends chain with reduced-cost bound tightenings read off
	// the most recent Optimal solve.
	fixings(obj, inc float64, chain *boundChange) *boundChange
	// pivots reports the simplex pivots of the most recent solve call.
	pivots() int
	// stats reports cumulative basis-maintenance health counters for this
	// engine's lifetime (zero for the dense engine, which keeps no LU).
	stats() lpStats
}

// lpStats aggregates LU/basis health over an engine's lifetime: full
// refactorizations, in-place basis updates (Forrest–Tomlin or eta append),
// FTRAN/BTRAN solve counts, the peak U-plus-eta fill, and how many solves
// the revised engine handed to the dense fallback.
type lpStats struct {
	factorizations int
	updates        int
	ftrans         int
	btrans         int
	peakFill       int
	denseFallbacks int
	boundFlips     int
	weightResets   int
}

// merge folds o into s (sums, except peak fill which takes the max).
func (s *lpStats) merge(o lpStats) {
	s.factorizations += o.factorizations
	s.updates += o.updates
	s.ftrans += o.ftrans
	s.btrans += o.btrans
	if o.peakFill > s.peakFill {
		s.peakFill = o.peakFill
	}
	s.denseFallbacks += o.denseFallbacks
	s.boundFlips += o.boundFlips
	s.weightResets += o.weightResets
}

// addTo copies the counters into a Solution's exported stats fields.
func (s lpStats) addTo(sol *Solution) {
	sol.Refactorizations = s.factorizations
	sol.BasisUpdates = s.updates
	sol.FTRANCount = s.ftrans
	sol.BTRANCount = s.btrans
	sol.PeakUFill = s.peakFill
	sol.DenseFallbacks = s.denseFallbacks
	sol.BoundFlips = s.boundFlips
	sol.WeightResets = s.weightResets
}

// newLPEngine builds the per-worker engine these options select.
func newLPEngine(m *Model, opts Options) lpEngine {
	if opts.denseSimplex {
		return newDenseEngine(m, opts.MaxLPIter, opts.Context)
	}
	return newRevisedEngine(m, opts)
}

// solveRelaxation solves the LP relaxation (integrality dropped) with a
// fresh engine for opts, detaching Values from the engine scratch.
func (m *Model) solveRelaxation(opts Options) Solution {
	eng := newLPEngine(m, opts)
	eng.applyBounds(nil)
	sol := eng.solveCold()
	sol.SimplexIters = eng.pivots()
	st := eng.stats()
	st.addTo(&sol)
	if st.denseFallbacks > 0 && opts.Logf != nil {
		opts.Logf("solver: root LP fell back to the dense engine")
	}
	if sol.Values != nil {
		sol.Values = append([]float64(nil), sol.Values...)
	}
	return sol
}

// denseEngine adapts the dense-tableau two-phase simplex (lpScratch and
// friends) to the engine interface.
type denseEngine struct {
	m  *Model
	sc *lpScratch
}

func newDenseEngine(m *Model, maxIter int, ctx context.Context) *denseEngine {
	return &denseEngine{m: m, sc: &lpScratch{maxIter: maxIter, ctx: ctx}}
}

func (e *denseEngine) applyBounds(chain *boundChange) { applyBounds(e.m, chain, e.sc) }

func (e *denseEngine) solveCold() Solution { return e.m.solveLPBounds(e.sc) }

func (e *denseEngine) solveWarm(snap any) (Solution, bool) {
	bs, ok := snap.(*basisSnap)
	if !ok {
		return Solution{}, false
	}
	return e.m.solveLPWarm(e.sc, bs)
}

func (e *denseEngine) solveDive(changes []*boundChange) (Solution, bool) {
	return e.m.solveLPDive(e.sc, changes)
}

func (e *denseEngine) snapshot() any { return e.sc.snapshot() }

func (e *denseEngine) fixings(obj, inc float64, chain *boundChange) *boundChange {
	return e.m.reducedCostFixings(e.sc, obj, inc, chain)
}

func (e *denseEngine) pivots() int { return e.sc.lastPivots }

func (e *denseEngine) stats() lpStats { return lpStats{} }

// revisedEngine drives the revised simplex, falling back to a lazily
// built dense engine on the rare solves the revised path cannot certify
// (singular basis, numerical trouble, a binding artificial box). The
// fallback is per-solve: the next node tries the revised path again.
// lastDense tracks which engine produced the most recent solve so that
// snapshot/fixings/solveDive read the matching state.
type revisedEngine struct {
	m  *Model
	rx *rxScratch

	fall      *denseEngine // lazily allocated on first fallback
	chain     *boundChange // bounds of the current node (for the fallback)
	lastDense bool
	last      int // pivots of the most recent solve (both engines)
	fallbacks int // solves handed to the dense engine (see solveCold)
}

func newRevisedEngine(m *Model, opts Options) *revisedEngine {
	rx := newRxScratch(m, opts.etaFileUpdates)
	rx.setPricing(opts.pricing)
	rx.maxIter = opts.MaxLPIter
	rx.ctx = opts.Context
	return &revisedEngine{m: m, rx: rx}
}

func (e *revisedEngine) dense() *denseEngine {
	if e.fall == nil {
		e.fall = newDenseEngine(e.m, e.rx.maxIter, e.rx.ctx)
	}
	return e.fall
}

func (e *revisedEngine) applyBounds(chain *boundChange) {
	e.chain = chain
	e.rx.resolveBounds(chain)
}

func (e *revisedEngine) solveCold() Solution {
	e.lastDense = false
	sol, ok := e.rx.solveCold()
	e.last = e.rx.lastPivots
	if ok {
		return sol
	}
	// The revised path could not certify this solve (singular basis,
	// numerical giveup, or an artificial box that kept binding): count the
	// handoff so it shows up in SolveStats instead of vanishing silently.
	// The dense engine only gets the pivot budget the revised attempt left
	// unspent — MaxLPIter caps the solve call, not each engine it visits —
	// and if nothing remains the call reports IterLimit without a dense
	// solve at all.
	e.fallbacks++
	e.lastDense = true
	d := e.dense()
	if e.rx.maxIter > 0 {
		rem := e.rx.maxIter - e.rx.lastPivots
		if rem <= 0 {
			e.fall.sc.lastPivots = 0
			return Solution{Status: IterLimit}
		}
		d.sc.maxIter = rem
	}
	d.applyBounds(e.chain)
	sol = d.solveCold()
	e.last += d.sc.lastPivots
	return sol
}

func (e *revisedEngine) solveWarm(snap any) (Solution, bool) {
	switch s := snap.(type) {
	case *rxSnap:
		e.lastDense = false
		sol, ok := e.rx.solveWarm(s)
		e.last = e.rx.lastPivots
		return sol, ok
	case *basisSnap:
		// A dense-fallback parent's snapshot: warm-start its children on
		// the dense engine too, preserving the basis-reuse rate across the
		// engine boundary. This is a fresh solve call, so the dense scratch
		// gets the full configured budget back (a prior fallback may have
		// left it shrunk to that call's remainder).
		e.lastDense = true
		d := e.dense()
		d.sc.maxIter = e.rx.maxIter
		d.applyBounds(e.chain)
		sol, ok := d.solveWarm(s)
		e.last = d.sc.lastPivots
		return sol, ok
	}
	return Solution{}, false
}

func (e *revisedEngine) solveDive(changes []*boundChange) (Solution, bool) {
	// The caller dives only when the engine still holds the parent's
	// optimal state; lastDense records which scratch that is.
	if e.lastDense {
		d := e.dense()
		d.sc.maxIter = e.rx.maxIter // fresh solve call: full budget
		sol, ok := d.solveDive(changes)
		e.last = e.fall.sc.lastPivots
		return sol, ok
	}
	sol, ok := e.rx.solveDive(changes)
	e.last = e.rx.lastPivots
	return sol, ok
}

func (e *revisedEngine) snapshot() any {
	if e.lastDense {
		return e.fall.snapshot()
	}
	if s := e.rx.snapshot(); s != nil {
		return s
	}
	return nil // untyped nil: a typed-nil *rxSnap would defeat snap != nil checks
}

func (e *revisedEngine) fixings(obj, inc float64, chain *boundChange) *boundChange {
	if e.lastDense {
		return e.fall.fixings(obj, inc, chain)
	}
	return e.rx.fixings(obj, inc, chain)
}

func (e *revisedEngine) pivots() int { return e.last }

func (e *revisedEngine) stats() lpStats {
	lu := &e.rx.lu
	return lpStats{
		factorizations: lu.nFactor,
		updates:        lu.nUpdate,
		ftrans:         lu.nFtran,
		btrans:         lu.nBtran,
		peakFill:       lu.peakFill,
		denseFallbacks: e.fallbacks,
		boundFlips:     e.rx.nBoundFlips,
		weightResets:   e.rx.nWeightResets,
	}
}
