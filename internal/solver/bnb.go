package solver

import (
	"container/heap"
	"math"
	"runtime"
	"slices"
	"sync"
)

// intTol is the tolerance under which a relaxation value counts as integral.
const intTol = 1e-6

// SolveLP solves the linear relaxation of the model (integrality dropped)
// with the dual simplex.
func (m *Model) SolveLP() Solution {
	return m.solveRelaxation(Options{})
}

// Solve solves the model exactly: as an LP when it has no integer
// variables, otherwise with LP-relaxation branch-and-bound, under default
// options.
func (m *Model) Solve() Solution {
	sol, _ := m.SolveWithOptions(Options{})
	return sol
}

// SolveWithOptions solves with explicit search limits: as an LP when the
// model has no integer variables, otherwise with LP-relaxation
// branch-and-bound, whose nodes Options.Workers concurrent workers (default
// GOMAXPROCS) explore from a shared best-first frontier. The model is
// solved as given: builders emit it reduced (see plan.SolveExact), and the
// solver neither copies nor rewrites it. A MIP start (SetStart) that is
// still the incumbent at the end is returned as given. Every Options value
// is valid, so the error is always nil today; it stays in the signature for
// callers that wrap it.
func (m *Model) SolveWithOptions(opts Options) (Solution, error) {
	opts = opts.withDefaults()
	var start *mipStart
	if !opts.noStart {
		start = m.checkStart(opts.Logf)
	}
	if !slices.ContainsFunc(m.vars, func(v variable) bool { return v.integer }) {
		return m.solveRelaxation(opts), nil
	}
	sol, kept := m.branchAndBound(opts, start)
	if kept {
		sol = start.into(sol)
	}
	return sol, nil
}

// solveRelaxation solves the LP relaxation (integrality dropped) on a pooled
// scratch, detaching Values from it before the scratch goes back.
func (m *Model) solveRelaxation(opts Options) Solution {
	rx := getRxScratch(m, opts)
	sol, _ := rx.solve(nil, nil, nil)
	sol.SimplexIters = rx.lastPivots
	rx.stats().addTo(&sol)
	if sol.Values != nil {
		sol.Values = append([]float64(nil), sol.Values...)
	}
	putRxScratch(rx)
	return sol
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

	// snap is the parent's optimal basis snapshot; both children share it
	// and try a dual-simplex warm start from it before falling back to a
	// cold solve. The root is never queued: branchAndBound solves it.
	snap *rxSnap
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
	// dual-simplex dive path reuse the parent's factorized basis still
	// sitting in the worker's scratch.
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

	// incumbent is the best integral solution, Values owned (copied); or
	// the MIP start, which has an objective and no Values.
	incumbent *Solution

	simplexIters int     // total pivots across all workers (incl. root solve)
	warmHits     int     // nodes resolved by a dual-simplex warm start
	lu           lpStats // basis health summed over the worker scratches
	npFixings    int     // node-presolve bound tightenings across all nodes

	// Pseudocost bookkeeping, guarded by mu like everything else: updates
	// happen in processLocked when a child's relaxation is reported, reads
	// in selectBranchLocked. pc holds one entry per variable, allocated at
	// the first branch (a root that proves the start never needs it); tot
	// aggregates every observation, the reliability fallback for variables
	// with none of their own yet.
	pc  []pseudocost
	tot pseudocost

	stop      bool    // some worker decided the search is over
	limitHit  bool    // MaxNodes exhausted before completion
	cancelled bool    // Options.Context cancelled
	gapStop   bool    // RelGap early stop
	stopBound float64 // proven bound at the early stop
}

// pseudocost sums the per-unit objective degradations observed on the
// down (ub-tightened, floor) and up (lb-raised, ceil) branches of a
// variable, and counts them.
type pseudocost struct {
	downSum, upSum float64
	downN, upN     int
}

// branchAndBound runs the search, seeded with start (nil: none) as the
// first incumbent. kept reports that the start is still the incumbent at
// the end; the Solution then has the start's objective and no Values.
func (m *Model) branchAndBound(opts Options, start *mipStart) (sol Solution, kept bool) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
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
		ramped: workers <= 1,
	}
	if start != nil {
		// Nil Values mark the start, and keep every tie from replacing it:
		// lexLess against an empty slice is false.
		s.incumbent = &Solution{Objective: start.obj}
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.active {
		s.active[i] = math.NaN()
	}

	// The root LP is solved once, on the scratch worker 0 inherits: its
	// retained optimal state is what the root's children dive from. A start
	// with a point in m's space crashes the root's starting basis there; the
	// warm start checks that basis as it checks any node's, and any refusal
	// solves the root cold, as without a start.
	rx := getRxScratch(m, opts)
	var crash *rxSnap
	if start != nil && !opts.noWarmStart {
		crash = rx.crash(start.values)
	}
	root, _ := rx.solve(nil, crash, nil)
	s.simplexIters = rx.lastPivots
	if root.Status == IterLimit && s.incumbent != nil {
		// A limit stopped the root LP: the start stands, with no bound
		// proven against it.
		s.limitHit, s.stopBound = true, math.Inf(1)
		if s.min {
			s.stopBound = math.Inf(-1)
		}
		s.lu.merge(rx.stats())
		putRxScratch(rx)
		return s.finish(workers)
	}
	if root.Status != Optimal {
		if root.Status == IterLimit && opts.Context != nil && opts.Context.Err() != nil {
			// The root LP was aborted by the caller's context, not a pivot
			// budget: report the same LimitReached a between-node
			// cancellation does, so MIP callers see one cancel status.
			root.Status = LimitReached
		}
		root.Workers = workers
		root.SimplexIters = s.simplexIters
		rx.stats().addTo(&root)
		if root.Values != nil {
			root.Values = append([]float64(nil), root.Values...)
		}
		putRxScratch(rx)
		return root, false
	}

	// The root is node 1, admitted and processed like any popped node. A
	// start its lifted bound cannot beat ends the search right here, with
	// no node expanded and no worker started.
	node := &bbNode{bound: s.round.lift(root.Objective)}
	var snap *rxSnap
	var fixBase *boundChange
	s.mu.Lock()
	if ok, inc := s.admitLocked(node); ok {
		s.nodes++
		snap, fixBase = s.retain(rx, root, node.bounds, inc)
		s.processLocked(node, root, snap, fixBase)
	}
	done := s.stop || s.queue.Len() == 0
	s.mu.Unlock()
	if done {
		s.lu.merge(rx.stats())
		putRxScratch(rx)
		return s.finish(workers)
	}

	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for id := 1; id < workers; id++ {
		go func(id int) {
			defer wg.Done()
			s.worker(id, nil, nil, nil)
		}(id)
	}
	s.worker(0, rx, snap, fixBase)
	wg.Wait()
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

// worker is one branch-and-bound worker loop. It owns a private simplex
// scratch and pops nodes from the shared frontier until the search
// terminates, then puts the scratch back in the pool. rx is the scratch to
// adopt (nil: take one from the pool), and
// tabOwner/tabBounds identify whose optimal state it retains: the basis
// snapshot created from that solve and the bound chain it was solved
// under. When the next popped node descends directly from exactly that
// solve, the dive re-optimizes the retained state in place instead of
// rebuilding anything. Worker 0 adopts the root's scratch this way.
func (s *bbSearch) worker(id int, rx *rxScratch, tabOwner *rxSnap, tabBounds *boundChange) {
	if rx == nil {
		rx = getRxScratch(s.m, s.opts)
	}
	var diveChanges []*boundChange
	var np *npState
	if !s.opts.noNodePresolve {
		np = newNpState(s.m)
	}
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
		node := heap.Pop(s.queue).(*bbNode)
		ok, inc := s.admitLocked(node)
		if !ok {
			if s.stop {
				break
			}
			continue
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

		// Dive path: the scratch still holds this node's parent's optimal
		// state. Collect the bound changes separating the node from that
		// solve (its branching plus any reduced-cost fixings) to apply in
		// place, then repair with dual simplex — no rebuild, no
		// refactorization. Otherwise the node warm-starts from its parent's
		// snapshot.
		var dive []*boundChange
		from := node.snap
		if s.opts.noWarmStart {
			from = nil
		} else if from != nil && from == tabOwner {
			diveChanges = diveChanges[:0]
			c := node.bounds
			for c != nil && c != tabBounds && len(diveChanges) < 64 {
				diveChanges = append(diveChanges, c)
				c = c.parent
			}
			if c == tabBounds {
				dive = diveChanges
			}
		}
		sol, warm := rx.solve(node.bounds, from, dive)
		snap, fixBase := s.retain(rx, sol, node.bounds, inc)
		tabOwner, tabBounds = snap, fixBase

		s.mu.Lock()
		s.inFlight--
		s.active[id] = math.NaN()
		s.simplexIters += rx.lastPivots
		s.npFixings += nFix
		if warm {
			s.warmHits++
		}
		s.processLocked(node, sol, snap, fixBase)
		// Wake idle siblings: children may have been pushed, or this was
		// the last in-flight node and the frontier is now empty.
		s.cond.Broadcast()
	}
	s.lu.merge(rx.stats())
	s.mu.Unlock()
	putRxScratch(rx)
}

// admitLocked decides whether the popped node is expanded. Cancellation,
// an exhausted node budget and a closed RelGap stop the search; a node
// whose bound cannot beat the incumbent is dropped. (Unlike a sequential
// solver a worker cannot conclude the whole frontier is pruned — an
// in-flight sibling may still improve the incumbent — so a dropped node
// does not end the search.) inc is the incumbent objective the node was
// admitted against, NaN when there is none. Requires s.mu held.
func (s *bbSearch) admitLocked(node *bbNode) (ok bool, inc float64) {
	ctx := s.opts.Context
	switch {
	case ctx != nil && ctx.Err() != nil:
		s.cancelled = true
	case s.nodes >= s.opts.MaxNodes:
		s.limitHit = true
	case s.incumbent == nil:
		return true, math.NaN()
	case !s.betterObj(node.bound, s.incumbent.Objective):
		return false, 0
	case relGap(s.incumbent.Objective, s.globalBoundLocked(node.bound)) <= s.opts.RelGap:
		s.gapStop = true
	default:
		return true, s.incumbent.Objective
	}
	s.stop = true
	s.stopBound = s.globalBoundLocked(node.bound)
	s.cond.Broadcast()
	return false, 0
}

// retain snapshots the scratch's optimal basis after a node's solve — only
// when the node will branch — and extends its chain with reduced-cost
// fixings against inc, the incumbent objective read when the node was
// admitted (a stale incumbent is only weaker, so the fixings stay valid;
// NaN: no incumbent, no fixings). It reads the scratch and the immutable
// model only, so workers call it outside the lock.
func (s *bbSearch) retain(rx *rxScratch, sol Solution, chain *boundChange, inc float64) (snap *rxSnap, fixBase *boundChange) {
	fixBase = chain
	if sol.Status == Optimal && s.hasFracInt(sol.Values) {
		snap = rx.snapshot()
		if !math.IsNaN(inc) {
			fixBase = rx.fixings(sol.Objective, inc, chain)
		}
	}
	return snap, fixBase
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

// processLocked handles one solved relaxation: prune, record an incumbent,
// or branch. Requires s.mu held. sol.Values aliases the worker's scratch;
// snap is the node's own optimal basis and fixBase its bound chain
// extended with reduced-cost fixings (== node.bounds when there are none;
// both unused when the node does not branch).
func (s *bbSearch) processLocked(node *bbNode, sol Solution, snap *rxSnap, fixBase *boundChange) {
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
		// worker counts and warm/cold solve paths.
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
	// snapshot for their warm starts. The first branch opens the
	// pseudocost table the children will report into.
	if s.pc == nil {
		s.pc = make([]pseudocost, len(s.m.vars))
	}
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
	if node.bounds == nil || node.fracStep <= intTol {
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
		n := s.tot.downN + s.tot.upN
		avg := 0.0
		if n > 0 {
			avg = (s.tot.downSum + s.tot.upSum) / float64(n)
		}
		per = 10 * (1 + avg)
	default:
		return // limit/unbounded: no usable information
	}
	for _, p := range []*pseudocost{&s.pc[node.bounds.v], &s.tot} {
		if node.bounds.upper {
			p.downSum += per
			p.downN++
		} else {
			p.upSum += per
			p.upN++
		}
	}
}

// pcEst is the reliability-initialized pseudocost estimate for variable i
// on one side: its own average once it has an observation, else the
// tree-wide average for that side, else 1 (which degenerates the score to
// plain fractionality until any branching has been observed at all).
func pcEst(sum float64, n int, totSum float64, totN int) float64 {
	if n > 0 {
		return sum / float64(n)
	}
	if totN > 0 {
		return totSum / float64(totN)
	}
	return 1
}

// selectBranchLocked picks the integer variable to branch on, or -1 when
// the point is integral. Requires s.mu held (pseudocost reads).
func (s *bbSearch) selectBranchLocked(values []float64) VarID {
	// Pseudocost product score: the per-unit objective degradations
	// observed on past down/up branches of the variable, weighted by its
	// current fractionality; unreliable estimates (no observation on a
	// side yet) borrow the tree-wide average. The 1e-6 floor is applied to
	// each side's estimate, not to the estimate·fractionality product: on
	// heavily degenerate instances every observed degradation is 0, and
	// flooring the product would collapse all scores to one constant —
	// turning the rule into lowest-index branching. Flooring the estimates
	// keeps the score proportional to fDown·fUp, so a zero-information
	// pseudocost rule branches on the most fractional variable instead.
	// Strict > keeps the first index on ties, making the pick deterministic
	// given the same bookkeeping state.
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
		var p pseudocost
		if s.pc != nil {
			p = s.pc[i]
		}
		down := pcEst(p.downSum, p.downN, s.tot.downSum, s.tot.downN)
		up := pcEst(p.upSum, p.upN, s.tot.upSum, s.tot.upN)
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

// finish assembles the Solution after all workers have returned. kept
// reports that the incumbent is still the MIP start (see branchAndBound).
func (s *bbSearch) finish(workers int) (sol Solution, kept bool) {
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
	return out, s.incumbent != nil && s.incumbent.Values == nil
}

// relGap is the relative distance between the incumbent objective and the
// proven bound.
func relGap(obj, bound float64) float64 {
	return math.Abs(obj-bound) / math.Max(1, math.Abs(obj))
}
