package solver

import (
	"container/heap"
	"math"
	"slices"
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
// model has no integer variables, otherwise with a serial best-first
// LP-relaxation branch-and-bound on one simplex workspace. The model is
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
	rx.addStats(&sol)
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
	// sitting in the scratch.
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

// bbSearch is the state of one branch-and-bound run: the best-first
// frontier, the incumbent, the pseudocosts and the counters the Solution
// reports. One goroutine runs the whole search on one simplex scratch.
type bbSearch struct {
	m     *Model
	opts  Options
	min   bool
	round objRounder

	queue *nodeQueue
	nodes int // nodes expanded so far (LP relaxations solved)

	// incumbent is the best integral solution, Values owned (copied); or
	// the MIP start, which has an objective and no Values.
	incumbent *Solution

	simplexIters int // total pivots, the root solve included
	warmHits     int // nodes resolved by a dual-simplex warm start
	npFixings    int // node-presolve bound tightenings across all nodes

	// Pseudocost bookkeeping: updates happen in process when a child's
	// relaxation is reported, reads in selectBranch. pc holds one entry
	// per variable, allocated at the first branch (a root that proves the
	// start never needs it); tot aggregates every observation, the
	// reliability fallback for variables with none of their own yet.
	pc  []pseudocost
	tot pseudocost

	limitHit  bool    // MaxNodes exhausted, or a node LP hit its pivot cap
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
	s := &bbSearch{
		m:     m,
		opts:  opts,
		min:   m.sense == Minimize,
		round: newObjRounder(m),
		queue: &nodeQueue{min: m.sense == Minimize},
	}
	if start != nil {
		// Nil Values mark the start; only a strictly better point
		// replaces it.
		s.incumbent = &Solution{Objective: start.obj}
	}

	// The root LP is solved once, on the scratch the whole search runs on:
	// its retained optimal state is what the root's children dive from. A
	// start with a point in m's space crashes the root's starting basis
	// there; the warm start checks that basis as it checks any node's, and
	// any refusal solves the root cold, as without a start.
	rx := getRxScratch(m, opts)
	defer putRxScratch(rx)
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
		return s.finish(rx)
	}
	if root.Status != Optimal {
		if root.Status == IterLimit && opts.Context != nil && opts.Context.Err() != nil {
			// The root LP was aborted by the caller's context, not a pivot
			// budget: report the same LimitReached a between-node
			// cancellation does, so MIP callers see one cancel status.
			root.Status = LimitReached
		}
		root.SimplexIters = s.simplexIters
		rx.addStats(&root)
		if root.Values != nil {
			root.Values = append([]float64(nil), root.Values...)
		}
		return root, false
	}
	s.search(rx, root)
	return s.finish(rx)
}

// stopped reports that a limit, a cancellation or a closed RelGap ended
// the search before the frontier emptied.
func (s *bbSearch) stopped() bool { return s.limitHit || s.cancelled || s.gapStop }

// search expands the root, whose optimal relaxation rx still holds, then
// pops the best-first frontier until it is empty or the search stops.
// The scratch retains the optimal state of the last node it solved: the
// basis snapshot taken from that solve (tabOwner) and the bound chain it
// was solved under (tabBounds). When the next popped node descends
// directly from exactly that solve, the dive re-optimizes the retained
// state in place instead of rebuilding anything.
func (s *bbSearch) search(rx *rxScratch, root Solution) {
	// The root is node 1, admitted and processed like any popped node. A
	// start its lifted bound cannot beat ends the search right here, with
	// no node expanded.
	node := &bbNode{bound: s.round.lift(root.Objective)}
	if !s.admit(node) {
		return
	}
	s.nodes++
	tabOwner, tabBounds := s.retain(rx, root, node.bounds)
	s.process(node, root, tabOwner, tabBounds)
	if s.queue.Len() == 0 {
		return // the root was pruned or integral: no node state to build
	}

	var diveChanges []*boundChange
	var np *npState
	if !s.opts.noNodePresolve {
		np = newNpState(s.m)
	}
	for !s.stopped() && s.queue.Len() > 0 {
		node := heap.Pop(s.queue).(*bbNode)
		if !s.admit(node) {
			continue
		}
		s.nodes++

		// Node presolve: push the node's branching decisions (and inherited
		// fixings) through the constraint activity bounds before solving.
		// Propagated tightenings extend the node's chain — the LP, the dive
		// path, and reduced-cost fixing all see them — and a chain proven
		// infeasible by propagation prunes the node with no LP solve at all.
		if np != nil && node.bounds != nil {
			extra, nFix, infeas := np.run(node.bounds)
			s.npFixings += nFix
			if infeas {
				s.process(node, Solution{Status: Infeasible}, nil, node.bounds)
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
		s.simplexIters += rx.lastPivots
		if warm {
			s.warmHits++
		}
		tabOwner, tabBounds = s.retain(rx, sol, node.bounds)
		s.process(node, sol, tabOwner, tabBounds)
	}
}

// admit decides whether the popped node is expanded. Cancellation, an
// exhausted node budget and a closed RelGap stop the search; a node whose
// bound cannot beat the incumbent is dropped. The frontier is best-first,
// so the popped node's bound is the proven bound on the optimum.
func (s *bbSearch) admit(node *bbNode) bool {
	ctx := s.opts.Context
	switch {
	case ctx != nil && ctx.Err() != nil:
		s.cancelled = true
	case s.nodes >= s.opts.MaxNodes:
		s.limitHit = true
	case s.incumbent == nil:
		return true
	case !s.betterObj(node.bound, s.incumbent.Objective):
		return false
	case relGap(s.incumbent.Objective, node.bound) <= s.opts.RelGap:
		s.gapStop = true
	default:
		return true
	}
	s.stopBound = node.bound
	return false
}

// betterObj reports whether objective a improves on b.
func (s *bbSearch) betterObj(a, b float64) bool {
	if s.min {
		return a < b
	}
	return a > b
}

// retain snapshots the scratch's optimal basis after a node's solve — only
// when the node will branch — and extends its chain with reduced-cost
// fixings against the incumbent objective (none without an incumbent).
func (s *bbSearch) retain(rx *rxScratch, sol Solution, chain *boundChange) (snap *rxSnap, fixBase *boundChange) {
	fixBase = chain
	if sol.Status == Optimal && s.hasFracInt(sol.Values) {
		snap = rx.snapshot()
		if s.incumbent != nil {
			fixBase = rx.fixings(sol.Objective, s.incumbent.Objective, chain)
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

// process handles one solved relaxation: prune, record an incumbent, or
// branch. sol.Values aliases the scratch;
// snap is the node's own optimal basis and fixBase its bound chain
// extended with reduced-cost fixings (== node.bounds when there are none;
// both unused when the node does not branch).
func (s *bbSearch) process(node *bbNode, sol Solution, snap *rxSnap, fixBase *boundChange) {
	// Feed the pseudocosts before any pruning: the degradation this child
	// observed is real information about its branch variable either way.
	s.observePseudocost(node, sol)
	if sol.Status == IterLimit {
		// The node LP ran out of pivots without an optimality certificate:
		// it can be neither pruned nor soundly branched (its bound is
		// unproven). Stop the search like a node-budget stop and report
		// LimitReached with the incumbent so far.
		s.limitHit, s.stopBound = true, node.bound
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
	branchVar := s.selectBranch(sol.Values)
	if branchVar < 0 {
		// Integral: candidate incumbent. Snap values to exact integers,
		// copy them out of the scratch, and recompute the objective from
		// the snapped values — for integer-coefficient models this makes
		// the incumbent objective exact, hence bit-identical across warm
		// and cold solve paths.
		values := append([]float64(nil), sol.Values...)
		obj := 0.0
		for i, v := range s.m.vars {
			if v.integer {
				values[i] = math.Round(values[i])
			}
			obj += v.obj * values[i]
		}
		if s.incumbent != nil && !s.betterObj(obj, s.incumbent.Objective) {
			return
		}
		sol.Values = values
		sol.Objective = obj
		s.incumbent = &sol
		if s.opts.Logf != nil {
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

// observePseudocost records the objective degradation this node's
// relaxation exhibited relative to its parent's bound, attributed to the
// branching that created the node. An infeasible child is the extreme
// degradation — its branch killed the subproblem outright — and is
// recorded as an observation an order of magnitude above the tree-wide
// average, so variables whose branchings cause infeasibility score high
// and get branched early. On degenerate instances where every feasible
// child ties its parent's bound, this is the only pseudocost signal there
// is.
func (s *bbSearch) observePseudocost(node *bbNode, sol Solution) {
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

// selectBranch picks the integer variable to branch on, or -1 when the
// point is integral.
func (s *bbSearch) selectBranch(values []float64) VarID {
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

// finish assembles the Solution once the search on rx has ended. kept
// reports that the incumbent is still the MIP start (see branchAndBound).
func (s *bbSearch) finish(rx *rxScratch) (sol Solution, kept bool) {
	var out Solution
	switch {
	case s.cancelled || s.limitHit:
		if s.incumbent == nil {
			out = Solution{Status: LimitReached}
		} else {
			out = *s.incumbent
			out.Status = LimitReached
			out.Gap = relGap(out.Objective, s.stopBound)
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
	out.SimplexIters = s.simplexIters
	out.WarmStartHits = s.warmHits
	rx.addStats(&out)
	out.NodePresolveFixings = s.npFixings
	return out, s.incumbent != nil && s.incumbent.Values == nil
}

// relGap is the relative distance between the incumbent objective and the
// proven bound.
func relGap(obj, bound float64) float64 {
	return math.Abs(obj-bound) / math.Max(1, math.Abs(obj))
}
