package solver

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
)

// intTol is the tolerance under which a relaxation value counts as integral.
const intTol = 1e-6

// Solve solves the model exactly: as an LP when it has no integer
// variables, otherwise with LP-relaxation branch-and-bound, under default
// options.
func (m *Model) Solve() Solution {
	sol, _ := m.SolveWithOptions(Options{})
	return sol
}

// SolveWithOptions solves with explicit search limits. Branch-and-bound
// nodes are explored by Options.Workers concurrent workers (default
// GOMAXPROCS) sharing a best-first frontier. The model is first reduced
// by the presolve layer (bound propagation, substitution, redundant-row
// and duplicate-column removal) and the solution is rehydrated against
// the original VarIDs afterwards. Every Options value is valid, so the
// error is always nil today; it stays in the signature for callers that
// wrap it.
func (m *Model) SolveWithOptions(opts Options) (Solution, error) {
	opts = opts.withDefaults()
	if opts.noPresolve {
		return m.solveReduced(opts), nil
	}
	p := m.presolve(opts.Logf)
	if p.infeasible {
		return Solution{
			Status:       Infeasible,
			PresolveRows: p.rowsRemoved,
			PresolveCols: p.colsRemoved,
		}, nil
	}
	sol := p.reduced.solveReduced(opts)
	return p.postsolve(sol), nil
}

// solveReduced runs the actual search on m as-is: as an LP when it has no
// integer variables, otherwise with LP-relaxation branch-and-bound. opts
// must already carry defaults.
func (m *Model) solveReduced(opts Options) Solution {
	hasInt := false
	for _, v := range m.vars {
		if v.integer {
			hasInt = true
			break
		}
	}
	if !hasInt {
		return m.solveRelaxation(opts)
	}
	return m.branchAndBound(opts)
}

// boundChange is one copy-on-branch bound tightening. A bbNode's bounds
// are the chain of changes back to the root instead of per-node map
// clones; since branching only ever tightens, the chain can be applied in
// any order by taking the max of lower bounds and min of upper bounds.
type boundChange struct {
	parent *boundChange
	v      VarID
	upper  bool // true: ub ← min(ub, val); false: lb ← max(lb, val)
	val    float64
}

// applyBounds resolves the model bounds into sc.lb/sc.ub, then tightens
// them with the chain.
func applyBounds(m *Model, c *boundChange, sc *lpScratch) {
	sc.resolveModelBounds(m)
	for ; c != nil; c = c.parent {
		if c.upper {
			if c.val < sc.ub[c.v] {
				sc.ub[c.v] = c.val
			}
		} else {
			if c.val > sc.lb[c.v] {
				sc.lb[c.v] = c.val
			}
		}
	}
}

// objRounder lifts fractional LP bounds onto values an integer solution
// can actually attain, so nodes whose subtree provably cannot beat the
// incumbent are pruned without ever solving their relaxations. Two sound
// lifts, detected once per model:
//
//   - gcd: when every variable with a nonzero objective coefficient is
//     integer and every coefficient is an integer, any integer point's
//     objective is a multiple of g = gcd(|c_j|); a minimization bound z
//     rounds up to the next multiple of g (down for maximization).
//   - cardinality: when additionally every such coefficient and lower
//     bound is nonnegative, obj = Σ c_j·x_j brackets the positive-cost
//     activity T = Σ x_j by cmin·T ≤ obj ≤ cmax·T with T integer, so a
//     minimization bound z implies T ≥ ⌈z/cmax⌉ and obj ≥ cmin·⌈z/cmax⌉
//     (and obj ≤ cmax·⌊z/cmin⌋ for maximization).
//
// The cardinality lift is what collapses near-uniform covering objectives
// (like the planning MIP's 1+ε·spacing costs): a bound of 1.79 means two
// wavelengths are unavoidable, which costs at least 2·cmin — often the
// incumbent objective exactly, pruning the entire tied frontier.
type objRounder struct {
	min  bool
	g    float64 // coefficient gcd; 0 when the gcd lift is inapplicable
	card bool    // cardinality lift applicable
	cmin float64 // smallest positive objective coefficient
	cmax float64 // largest objective coefficient
}

func newObjRounder(m *Model) objRounder {
	r := objRounder{min: m.sense == Minimize, card: true}
	var g int64
	gcdOK := true
	for i := range m.vars {
		v := &m.vars[i]
		c := v.obj
		if c == 0 {
			continue
		}
		if !v.integer {
			// A continuous variable contributes arbitrary objective mass:
			// no integral structure to exploit.
			return objRounder{min: r.min}
		}
		if c < 0 || v.lb < 0 {
			r.card = false
		} else {
			if r.cmin == 0 || c < r.cmin {
				r.cmin = c
			}
			if c > r.cmax {
				r.cmax = c
			}
		}
		if a := math.Abs(c); a == math.Trunc(a) && a < 1e15 {
			g = gcd64(g, int64(a))
		} else {
			gcdOK = false
		}
	}
	if gcdOK && g > 0 {
		r.g = float64(g)
	}
	if r.cmax <= 0 {
		r.card = false
	}
	return r
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lift returns the strongest valid bound implied by z. The 1e-9 relative
// slack before rounding keeps values that are an ulp past an attainable
// objective from being lifted over it.
func (r objRounder) lift(z float64) float64 {
	if math.IsInf(z, 0) || math.IsNaN(z) {
		return z
	}
	round := func(q float64) float64 {
		tol := 1e-9 * math.Max(1, math.Abs(q))
		if r.min {
			return math.Ceil(q - tol)
		}
		return math.Floor(q + tol)
	}
	if r.card {
		var l float64
		if r.min {
			l = r.cmin * math.Max(0, round(z/r.cmax))
		} else {
			l = r.cmax * math.Max(0, round(z/r.cmin))
		}
		if r.betterBound(l, z) {
			z = l
		}
	}
	if r.g > 0 {
		if l := r.g * round(z/r.g); r.betterBound(l, z) {
			z = l
		}
	}
	return z
}

// betterBound reports whether a is a tighter bound than b (larger for
// minimization, smaller for maximization).
func (r objRounder) betterBound(a, b float64) bool {
	if r.min {
		return a > b
	}
	return a < b
}

// bbNode is one subproblem: the root LP plus a chain of bound tightenings.
type bbNode struct {
	bounds *boundChange
	bound  float64 // relaxation objective of the parent (optimistic)
	depth  int

	// snap is the parent's optimal basis snapshot (engine-specific:
	// *rxSnap or *basisSnap); both children share one immutable snapshot
	// and try a dual-simplex warm start from it before falling back to a
	// cold solve. nil at the root.
	snap any
	// fracStep is how far the branch moved the branched variable: the
	// down-fraction for an ub child, the up-fraction for an lb child.
	// Pseudocost updates divide the observed objective degradation by it.
	fracStep float64
}

// nodeQueue is a best-first priority queue. For minimization the smallest
// bound is most promising; for maximization the largest.
type nodeQueue struct {
	nodes []*bbNode
	min   bool
}

func (q nodeQueue) Len() int { return len(q.nodes) }
func (q nodeQueue) Less(i, j int) bool {
	a, b := q.nodes[i], q.nodes[j]
	if a.bound != b.bound {
		if q.min {
			return a.bound < b.bound
		}
		return a.bound > b.bound
	}
	// Equal bounds: deepest first (best-bound with plunging). Diving on
	// ties finds incumbents sooner, keeps the frontier small, and pops a
	// just-pushed child right after its parent — which is what lets the
	// dual-simplex dive path reuse the parent tableau still sitting in the
	// worker's scratch.
	return a.depth > b.depth
}
func (q nodeQueue) Swap(i, j int)       { q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i] }
func (q *nodeQueue) Push(x interface{}) { q.nodes = append(q.nodes, x.(*bbNode)) }
func (q *nodeQueue) Pop() interface{} {
	old := q.nodes
	n := len(old)
	item := old[n-1]
	old[n-1] = nil // release the node (and its bound chain) to the GC
	q.nodes = old[:n-1]
	return item
}

// bbSearch is the shared state of one concurrent branch-and-bound run.
// The mutex guards everything below it; workers block on cond when the
// frontier is empty but siblings still have nodes in flight.
type bbSearch struct {
	m       *Model
	opts    Options
	min     bool
	workers int
	round   objRounder

	mu   sync.Mutex
	cond *sync.Cond

	queue    *nodeQueue
	inFlight int       // nodes popped but not yet fully processed
	active   []float64 // per-worker bound of the in-flight node (NaN = idle)
	nodes    int       // nodes expanded so far (LP relaxations solved)
	ramped   bool      // frontier has (or had) ≥ workers nodes; go wide

	incumbent *Solution // best integral solution; Values owned (copied)

	simplexIters int     // total pivots across all workers (incl. root solve)
	warmHits     int     // nodes resolved by a dual-simplex warm start
	lu           lpStats // basis health summed over root + worker engines
	npFixings    int     // node-presolve bound tightenings across all nodes

	// Pseudocost bookkeeping (nil slices unless branching is pseudocost).
	// Guarded by mu like everything else: updates happen in processLocked
	// when a child's relaxation is reported, reads in selectBranchLocked.
	// pcDown* is the ub-tightened (floor) side, pcUp* the lb-raised (ceil)
	// side; the Tot* aggregates provide the reliability fallback for
	// variables with no observations of their own yet.
	pcDownSum, pcUpSum       []float64
	pcDownN, pcUpN           []int
	pcDownTotSum, pcUpTotSum float64
	pcDownTotN, pcUpTotN     int

	stop      bool    // some worker decided the search is over
	limitHit  bool    // MaxNodes exhausted before completion
	cancelled bool    // Options.Context cancelled
	gapStop   bool    // RelGap early stop
	stopBound float64 // proven bound at the early stop
}

func (m *Model) branchAndBound(opts Options) Solution {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	root := m.solveRelaxation(opts)
	if root.Status != Optimal {
		if root.Status == IterLimit && opts.Context != nil && opts.Context.Err() != nil {
			// The root LP was aborted by the caller's context, not a pivot
			// budget: report the same LimitReached a between-node
			// cancellation does, so MIP callers see one cancel status.
			root.Status = LimitReached
		}
		root.Workers = workers
		return root
	}

	s := &bbSearch{
		m:       m,
		opts:    opts,
		min:     m.sense == Minimize,
		workers: workers,
		round:   newObjRounder(m),
		queue:   &nodeQueue{min: m.sense == Minimize},
		active:  make([]float64, workers),
		// A single worker is always "ramped": the gate only matters when
		// there is someone to share the frontier with.
		ramped:       workers <= 1,
		simplexIters: root.SimplexIters,
		lu: lpStats{
			factorizations: root.Refactorizations,
			updates:        root.BasisUpdates,
			ftrans:         root.FTRANCount,
			btrans:         root.BTRANCount,
			peakFill:       root.PeakUFill,
			denseFallbacks: root.DenseFallbacks,
			boundFlips:     root.BoundFlips,
			weightResets:   root.WeightResets,
		},
	}
	if opts.branching != branchMostFractional {
		nv := len(m.vars)
		s.pcDownSum = make([]float64, nv)
		s.pcUpSum = make([]float64, nv)
		s.pcDownN = make([]int, nv)
		s.pcUpN = make([]int, nv)
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.active {
		s.active[i] = math.NaN()
	}
	heap.Push(s.queue, &bbNode{bound: s.round.lift(root.Objective)})

	if workers == 1 {
		s.worker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for i := 0; i < workers; i++ {
			go func(id int) {
				defer wg.Done()
				s.worker(id)
			}(i)
		}
		wg.Wait()
	}
	return s.finish(workers)
}

// betterObj reports whether objective a improves on b.
func (s *bbSearch) betterObj(a, b float64) bool {
	if s.min {
		return a < b
	}
	return a > b
}

// globalBoundLocked returns the most optimistic bound over the candidate
// node, every in-flight node, and the head of the frontier: the proven
// bound on the true optimum at this instant. Requires s.mu held.
func (s *bbSearch) globalBoundLocked(candidate float64) float64 {
	best := candidate
	improve := func(b float64) {
		if math.IsNaN(b) {
			return
		}
		if math.IsNaN(best) || s.betterObj(b, best) {
			best = b
		}
	}
	for _, b := range s.active {
		improve(b)
	}
	if s.queue.Len() > 0 {
		improve(s.queue.nodes[0].bound)
	}
	return best
}

// worker is one branch-and-bound worker loop. It owns a private LP engine
// and pops nodes from the shared frontier until the search terminates.
func (s *bbSearch) worker(id int) {
	eng := newLPEngine(s.m, s.opts)
	ctx := s.opts.Context
	// tabOwner/tabBounds identify whose optimal state the engine currently
	// retains: the basis snapshot created from that solve and the bound
	// chain it was solved under. When the next popped node descends
	// directly from exactly that solve, solveDive re-optimizes the retained
	// state in place instead of rebuilding anything.
	var tabOwner any
	var tabBounds *boundChange
	var diveChanges []*boundChange
	var np *npState
	if !s.opts.noNodePresolve {
		np = newNpState(s.m)
	}
	fellBack := 0 // dense fallbacks already logged for this worker
	s.mu.Lock()
	for {
		if s.stop {
			break
		}
		if s.queue.Len() == 0 {
			if s.inFlight == 0 {
				// Frontier exhausted with nothing in flight: done.
				s.stop = true
				s.cond.Broadcast()
				break
			}
			// Siblings may still push children; wait for them.
			s.cond.Wait()
			continue
		}
		if !s.ramped {
			// Ramp-up: near the root the frontier is tiny and several
			// workers hammering one or two nodes only buy lock contention
			// and duplicated bounding work. Stay effectively serial — one
			// node in flight at a time — until the frontier is wide enough
			// to feed every worker, then open up for good.
			if s.queue.Len() >= s.workers {
				s.ramped = true
			} else if s.inFlight > 0 {
				s.cond.Wait()
				continue
			}
		}
		if ctx != nil && ctx.Err() != nil {
			s.stop, s.cancelled = true, true
			s.stopBound = s.globalBoundLocked(math.NaN())
			s.cond.Broadcast()
			break
		}
		if s.nodes >= s.opts.MaxNodes {
			s.stop, s.limitHit = true, true
			s.stopBound = s.globalBoundLocked(math.NaN())
			s.cond.Broadcast()
			break
		}
		node := heap.Pop(s.queue).(*bbNode)
		hasInc := s.incumbent != nil
		incObj := 0.0
		if hasInc {
			incObj = s.incumbent.Objective
			if !s.betterObj(node.bound, incObj) {
				// Not better than the incumbent: discard. (Unlike the
				// sequential solver we cannot conclude the whole frontier
				// is pruned — an in-flight sibling may still improve the
				// incumbent — so just drop this node and keep looping.)
				continue
			}
			if relGap(incObj, s.globalBoundLocked(node.bound)) <= s.opts.RelGap {
				s.stop, s.gapStop = true, true
				s.stopBound = s.globalBoundLocked(node.bound)
				s.cond.Broadcast()
				break
			}
		}
		s.nodes++
		s.inFlight++
		s.active[id] = node.bound
		s.mu.Unlock()

		// Node presolve: push the node's branching decisions (and inherited
		// fixings) through the constraint activity bounds before solving.
		// Propagated tightenings extend the node's chain — the LP, the dive
		// path, and reduced-cost fixing all see them — and a chain proven
		// infeasible by propagation prunes the node with no LP solve at all.
		nFix := 0
		if np != nil && node.bounds != nil {
			extra, n, infeas := np.run(node.bounds)
			nFix = n
			if infeas {
				s.mu.Lock()
				s.inFlight--
				s.active[id] = math.NaN()
				s.npFixings += nFix
				s.processLocked(node, Solution{Status: Infeasible}, nil, node.bounds)
				s.cond.Broadcast()
				continue
			}
			node.bounds = extra
		}

		var sol Solution
		warm, dove := false, false
		iters := 0
		if !s.opts.noWarmStart && node.snap != nil && node.snap == tabOwner {
			// Dive path: the engine still holds this node's parent's
			// optimal state. Collect the bound changes separating the node
			// from that solve (its branching plus any reduced-cost fixings)
			// and apply them in place, then repair with dual simplex — no
			// rebuild, no refactorization.
			diveChanges = diveChanges[:0]
			c := node.bounds
			for c != nil && c != tabBounds && len(diveChanges) < 64 {
				diveChanges = append(diveChanges, c)
				c = c.parent
			}
			if c == tabBounds && len(diveChanges) > 0 {
				ws, ok := eng.solveDive(diveChanges)
				iters += eng.pivots()
				dove = true
				if ok {
					sol, warm = ws, true
				}
			}
		}
		if !warm {
			eng.applyBounds(node.bounds)
			if !s.opts.noWarmStart && node.snap != nil && !dove {
				ws, ok := eng.solveWarm(node.snap)
				iters += eng.pivots()
				if ok {
					sol, warm = ws, true
				}
			}
			if !warm {
				sol = eng.solveCold()
				iters += eng.pivots()
			}
		}
		// Snapshot the optimal basis outside the lock while the engine
		// still holds it — but only when this node will actually branch —
		// and tighten the children's bound chain with reduced-cost fixings
		// against the incumbent read at pop time (a stale incumbent is only
		// weaker, so the fixings stay valid).
		var snap any
		fixBase := node.bounds
		if sol.Status == Optimal && s.hasFracInt(sol.Values) {
			snap = eng.snapshot()
			if hasInc {
				fixBase = eng.fixings(sol.Objective, incObj, node.bounds)
			}
		}
		tabOwner, tabBounds = snap, fixBase

		s.mu.Lock()
		s.inFlight--
		s.active[id] = math.NaN()
		s.simplexIters += iters
		s.npFixings += nFix
		if warm {
			s.warmHits++
		}
		if fb := eng.stats().denseFallbacks; fb > fellBack {
			fellBack = fb
			if s.opts.Logf != nil {
				s.opts.Logf("solver: node LP fell back to the dense engine (%d on this worker)", fb)
			}
		}
		s.processLocked(node, sol, snap, fixBase)
		// Wake idle siblings: children may have been pushed, or this was
		// the last in-flight node and the frontier is now empty.
		s.cond.Broadcast()
	}
	s.lu.merge(eng.stats())
	s.mu.Unlock()
}

// hasFracInt reports whether any integer variable is fractional in values.
func (s *bbSearch) hasFracInt(values []float64) bool {
	for i, v := range s.m.vars {
		if !v.integer {
			continue
		}
		x := values[i]
		if math.Abs(x-math.Round(x)) > intTol {
			return true
		}
	}
	return false
}

// reducedCostFixings extends chain with bound tightenings justified by the
// node's optimal reduced costs. For any feasible point of this subtree,
// obj = z + Σ c̄_j·x_j over the stored (shifted, nonnegative) columns with
// every c̄_j ≥ 0 at optimality, so moving an integer variable t units off
// the bound it is nonbasic at costs at least t·c̄ — and once that exceeds
// the incumbent gap, those values cannot hold a better-or-tied solution
// and are tightened away. The 1e-6 relative margin keeps every solution
// within roundoff of the incumbent objective alive, so equal-objective
// optima — and with them the canonical lexicographic tie-break — survive.
// Reads the worker's own scratch right after its optimal solve; no lock.
func (m *Model) reducedCostFixings(sc *lpScratch, obj, inc float64, chain *boundChange) *boundChange {
	zMin, incMin := obj, inc
	if m.sense == Maximize {
		zMin, incMin = -obj, -inc
	}
	budget := incMin - zMin + 1e-6*math.Max(1, math.Abs(incMin))
	if budget < 0 {
		return chain
	}
	ur := len(m.cons) // rolling row index of the next finite-ub row
	for i := range m.vars {
		v := &m.vars[i]
		r := -1
		if !math.IsInf(sc.ub[i], 1) {
			r = ur
			ur++
		}
		if !v.integer || sc.negCol[i] >= 0 {
			continue
		}
		width := sc.ub[i] - sc.lb[i]
		if width < 1 {
			continue // no whole integer step left to exclude
		}
		// Down side: a positive reduced cost on the structural column means
		// the variable sits nonbasic at its lower bound; raising it t units
		// costs ≥ t·c̄.
		if cr := sc.cost[sc.col[i]]; cr > feasTol {
			if maxT := math.Floor(budget / cr); maxT < width {
				chain = &boundChange{parent: chain, v: VarID(i), upper: true, val: sc.lb[i] + maxT}
				width = maxT
			}
		}
		// Up side: a positive reduced cost on the ub row's slack means the
		// variable sits nonbasic at its upper bound; lowering it t units
		// costs ≥ t·c̄ of that slack.
		if r >= 0 && width >= 1 {
			if scol := sc.slackOf[r]; scol >= 0 {
				if cr := sc.cost[scol]; cr > feasTol {
					if maxT := math.Floor(budget / cr); maxT < width {
						chain = &boundChange{parent: chain, v: VarID(i), upper: false, val: sc.ub[i] - maxT}
					}
				}
			}
		}
	}
	return chain
}

// processLocked handles one solved relaxation: prune, record an incumbent,
// or branch. Requires s.mu held. sol.Values aliases the worker's scratch;
// snap is the node's own optimal basis and fixBase its bound chain
// extended with reduced-cost fixings (== node.bounds when there are none;
// both unused when the node does not branch).
func (s *bbSearch) processLocked(node *bbNode, sol Solution, snap any, fixBase *boundChange) {
	// Feed the pseudocosts before any pruning: the degradation this child
	// observed is real information about its branch variable either way.
	s.observePseudocostLocked(node, sol)
	if sol.Status == IterLimit {
		// The node LP ran out of pivots without an optimality certificate:
		// it can be neither pruned nor soundly branched (its bound is
		// unproven). Stop the search like a node-budget stop and report
		// LimitReached with the incumbent so far.
		if !s.stop {
			s.stop, s.limitHit = true, true
			s.stopBound = s.globalBoundLocked(node.bound)
		}
		return
	}
	if sol.Status != Optimal {
		return // infeasible subtree
	}
	// Lift the relaxation value onto the integral objective grid: the
	// subtree's true optimum is ≥ the lift (≤ for max), so prune and push
	// children against the lifted bound. This is what finally caps the
	// tied frontier on degenerate covering instances, where hundreds of
	// nodes share a fractional bound strictly below — but a lifted bound
	// exactly at — the incumbent objective.
	lifted := s.round.lift(sol.Objective)
	if s.incumbent != nil && !s.betterObj(lifted, s.incumbent.Objective) {
		return
	}
	branchVar := s.selectBranchLocked(sol.Values)
	if branchVar < 0 {
		// Integral: candidate incumbent. Snap values to exact integers,
		// copy them out of the worker scratch, and recompute the objective
		// from the snapped values — for integer-coefficient models this
		// makes the incumbent objective exact, hence bit-identical across
		// branching rules, worker counts, and warm/cold solve paths.
		values := append([]float64(nil), sol.Values...)
		obj := 0.0
		for i, v := range s.m.vars {
			if v.integer {
				values[i] = math.Round(values[i])
			}
			obj += v.obj * values[i]
		}
		sol.Values = values
		sol.Objective = obj
		if s.acceptIncumbentLocked(sol) && s.opts.Logf != nil {
			s.opts.Logf("solver: incumbent %.6g at node %d", sol.Objective, s.nodes)
		}
		return
	}
	// Branch: two children sharing the parent chain (plus this node's
	// reduced-cost fixings) copy-on-branch, and the parent's basis
	// snapshot for their warm starts.
	x := sol.Values[branchVar]
	heap.Push(s.queue, &bbNode{
		bounds:   &boundChange{parent: fixBase, v: branchVar, upper: true, val: math.Floor(x)},
		bound:    lifted,
		depth:    node.depth + 1,
		snap:     snap,
		fracStep: x - math.Floor(x),
	})
	heap.Push(s.queue, &bbNode{
		bounds:   &boundChange{parent: fixBase, v: branchVar, upper: false, val: math.Ceil(x)},
		bound:    lifted,
		depth:    node.depth + 1,
		snap:     snap,
		fracStep: math.Ceil(x) - x,
	})
}

// observePseudocostLocked records the objective degradation this node's
// relaxation exhibited relative to its parent's bound, attributed to the
// branching that created the node. An infeasible child is the extreme
// degradation — its branch killed the subproblem outright — and is
// recorded as an observation an order of magnitude above the tree-wide
// average, so variables whose branchings cause infeasibility score high
// and get branched early. On degenerate instances where every feasible
// child ties its parent's bound, this is the only pseudocost signal there
// is. Requires s.mu held.
func (s *bbSearch) observePseudocostLocked(node *bbNode, sol Solution) {
	if s.pcDownSum == nil || node.bounds == nil || node.fracStep <= intTol {
		return
	}
	var per float64
	switch sol.Status {
	case Optimal:
		degr := sol.Objective - node.bound
		if !s.min {
			degr = node.bound - sol.Objective
		}
		if degr < 0 {
			degr = 0 // roundoff: a child cannot beat its parent's bound
		}
		per = degr / node.fracStep
	case Infeasible:
		n := s.pcDownTotN + s.pcUpTotN
		avg := 0.0
		if n > 0 {
			avg = (s.pcDownTotSum + s.pcUpTotSum) / float64(n)
		}
		per = 10 * (1 + avg)
	default:
		return // limit/unbounded: no usable information
	}
	v := node.bounds.v
	if node.bounds.upper {
		s.pcDownSum[v] += per
		s.pcDownN[v]++
		s.pcDownTotSum += per
		s.pcDownTotN++
	} else {
		s.pcUpSum[v] += per
		s.pcUpN[v]++
		s.pcUpTotSum += per
		s.pcUpTotN++
	}
}

// pcEst is the reliability-initialized pseudocost estimate for variable i
// on one side: its own average once it has an observation, else the
// tree-wide average for that side, else 1 (which degenerates the score to
// plain fractionality until any branching has been observed at all).
func pcEst(sum []float64, n []int, totSum float64, totN int, i int) float64 {
	if n[i] > 0 {
		return sum[i] / float64(n[i])
	}
	if totN > 0 {
		return totSum / float64(totN)
	}
	return 1
}

// selectBranchLocked picks the integer variable to branch on, or -1 when
// the point is integral. Requires s.mu held (pseudocost reads).
func (s *bbSearch) selectBranchLocked(values []float64) VarID {
	if s.pcDownSum == nil {
		// Most-fractional rule.
		branchVar := VarID(-1)
		worstFrac := intTol
		for i, v := range s.m.vars {
			if !v.integer {
				continue
			}
			x := values[i]
			frac := math.Abs(x - math.Round(x))
			if frac > worstFrac {
				worstFrac = frac
				branchVar = VarID(i)
			}
		}
		return branchVar
	}
	// Pseudocost product score. The 1e-6 floor is applied to each side's
	// estimate, not to the estimate·fractionality product: on heavily
	// degenerate instances every observed degradation is 0, and flooring
	// the product would collapse all scores to one constant — turning the
	// rule into lowest-index branching. Flooring the estimates keeps the
	// score proportional to fDown·fUp, so a zero-information pseudocost
	// rule degenerates to most-fractional instead. Strict > keeps the
	// first index on ties, making the pick deterministic given the same
	// bookkeeping state.
	best := VarID(-1)
	bestScore := -1.0
	for i, v := range s.m.vars {
		if !v.integer {
			continue
		}
		x := values[i]
		fDown := x - math.Floor(x)
		fUp := math.Ceil(x) - x
		if fDown < intTol || fUp < intTol {
			continue // integral within tolerance
		}
		down := pcEst(s.pcDownSum, s.pcDownN, s.pcDownTotSum, s.pcDownTotN, i)
		up := pcEst(s.pcUpSum, s.pcUpN, s.pcUpTotSum, s.pcUpTotN, i)
		score := math.Max(down, 1e-6) * fDown * math.Max(up, 1e-6) * fUp
		if score > bestScore {
			bestScore = score
			best = VarID(i)
		}
	}
	return best
}

// acceptIncumbentLocked installs sol as the incumbent if it is strictly
// better, or if it ties the current objective and is canonically smaller
// (lexicographically smaller Values). The tie-break makes the reported
// Values independent of which worker finds an equal-objective solution
// first. Requires s.mu held; sol.Values must be owned by sol.
func (s *bbSearch) acceptIncumbentLocked(sol Solution) bool {
	if s.incumbent != nil {
		if !s.betterObj(sol.Objective, s.incumbent.Objective) {
			if !objEqual(sol.Objective, s.incumbent.Objective) || !lexLess(sol.Values, s.incumbent.Values) {
				return false
			}
		}
	}
	s.incumbent = &sol
	return true
}

// objEqual reports whether two objective values tie within relative
// tolerance (the canonical-tie-break window).
func objEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// lexLess reports whether a precedes b lexicographically.
func lexLess(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// finish assembles the Solution after all workers have returned.
func (s *bbSearch) finish(workers int) Solution {
	var out Solution
	switch {
	case s.cancelled || s.limitHit:
		if s.incumbent == nil {
			out = Solution{Status: LimitReached}
		} else {
			out = *s.incumbent
			out.Status = LimitReached
			if !math.IsNaN(s.stopBound) {
				out.Gap = relGap(out.Objective, s.stopBound)
			} else {
				// Frontier and in-flight set were both empty at the stop:
				// the incumbent bound is all that remains.
				out.Gap = 0
			}
		}
	case s.gapStop:
		out = *s.incumbent
		out.Gap = relGap(out.Objective, s.stopBound)
		if out.Gap <= intTol {
			out.Status = Optimal
		} else {
			out.Status = GapLimit
		}
	default:
		// Frontier exhausted (including pruned-to-empty): optimality is
		// proven, or the model is integer-infeasible.
		if s.incumbent == nil {
			out = Solution{Status: Infeasible}
		} else {
			out = *s.incumbent
			out.Status = Optimal
			out.Gap = 0
		}
	}
	out.Nodes = s.nodes
	out.Workers = workers
	out.SimplexIters = s.simplexIters
	out.WarmStartHits = s.warmHits
	s.lu.addTo(&out)
	out.NodePresolveFixings = s.npFixings
	return out
}

// relGap is the relative distance between the incumbent objective and the
// proven bound.
func relGap(obj, bound float64) float64 {
	return math.Abs(obj-bound) / math.Max(1, math.Abs(obj))
}
