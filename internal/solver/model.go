// Package solver is a pure-Go mixed-integer linear programming stack: a
// dense two-phase simplex for linear programs and a best-first
// branch-and-bound for integrality.
//
// The FlexWAN paper solves its planning and restoration formulations with
// Gurobi (§7: "Julia ... and the Gurobi solver", with LP relaxation and a
// < 0.1% gap). This package is the stdlib-only substitute: exact on the
// small and medium instances used to validate the planning heuristic, with
// the same relaxation-based bounding strategy. It is a general MILP
// solver — models are built from variables, linear constraints, and a
// linear objective — not a FlexWAN-specific routine.
package solver

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Sense selects minimization or maximization of the objective.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

func (s Sense) String() string {
	if s == Maximize {
		return "maximize"
	}
	return "minimize"
}

// Rel is a constraint relation.
type Rel int

const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// VarID indexes a variable within its model.
type VarID int

// Term is one coefficient·variable product in a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

type variable struct {
	name    string
	lb, ub  float64
	integer bool
	obj     float64
}

type constraint struct {
	name  string
	terms []Term
	rel   Rel
	rhs   float64
}

// Model is a mixed-integer linear program under construction. Build with
// NewModel, add variables and constraints, then call Solve.
type Model struct {
	name  string
	sense Sense
	vars  []variable
	cons  []constraint
	start []float64 // SetStart's values, unchecked until a solve

	// pos is AddConstraint's duplicate index: 1 + a variable's position in
	// the row being merged while a call runs, zero between calls.
	pos []int32

	// cscOnce/csc cache the column-compressed constraint matrix the
	// revised simplex works on: built once on first solve and shared
	// read-only by every branch-and-bound worker. Mutating the model after
	// a solve started is already undefined, so the cache never invalidates.
	cscOnce sync.Once
	csc     *cscMatrix
}

// NewModel returns an empty model.
func NewModel(name string, sense Sense) *Model {
	return &Model{name: name, sense: sense}
}

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Grow pre-allocates capacity for nVars additional variables and nCons
// additional constraints. Semantics never change; builders that can
// count their size cheaply up front (the exact MIP formulations) call it
// to avoid append-doubling garbage on large models.
func (m *Model) Grow(nVars, nCons int) {
	if c := len(m.vars) + nVars; c > cap(m.vars) {
		vars := make([]variable, len(m.vars), c)
		copy(vars, m.vars)
		m.vars = vars
	}
	if c := len(m.cons) + nCons; c > cap(m.cons) {
		cons := make([]constraint, len(m.cons), c)
		copy(cons, m.cons)
		m.cons = cons
	}
}

// AddVar adds a continuous variable with bounds [lb, ub] and objective
// coefficient obj. Use math.Inf(1) for an unbounded ub.
func (m *Model) AddVar(name string, lb, ub, obj float64) VarID {
	m.vars = append(m.vars, variable{name: name, lb: lb, ub: ub, obj: obj})
	return VarID(len(m.vars) - 1)
}

// AddIntVar adds an integer variable with bounds [lb, ub].
func (m *Model) AddIntVar(name string, lb, ub, obj float64) VarID {
	id := m.AddVar(name, lb, ub, obj)
	m.vars[id].integer = true
	return id
}

// AddBinVar adds a 0/1 variable.
func (m *Model) AddBinVar(name string, obj float64) VarID {
	return m.AddIntVar(name, 0, 1, obj)
}

// AddConstraint adds Σ terms rel rhs. Terms referencing the same variable
// are accumulated, in order of first occurrence, and terms whose
// coefficients cancel to zero are dropped.
func (m *Model) AddConstraint(name string, terms []Term, rel Rel, rhs float64) error {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			return fmt.Errorf("solver: constraint %s references unknown variable %d", name, t.Var)
		}
	}
	if len(m.pos) < len(m.vars) {
		m.pos = make([]int32, cap(m.vars)) // all zero: nothing is lost
	}
	merged := make([]Term, 0, len(terms))
	for _, t := range terms {
		if k := m.pos[t.Var]; k > 0 {
			merged[k-1].Coef += t.Coef
			continue
		}
		merged = append(merged, t)
		m.pos[t.Var] = int32(len(merged))
	}
	out := merged[:0]
	for _, t := range merged {
		m.pos[t.Var] = 0
		if t.Coef != 0 {
			out = append(out, t)
		}
	}
	m.cons = append(m.cons, constraint{name: name, terms: out, rel: rel, rhs: rhs})
	return nil
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal (or within-gap) solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective improves without limit.
	Unbounded
	// LimitReached means the node or iteration budget ran out before the
	// search completed; Solution carries the incumbent if one exists.
	LimitReached
	// GapLimit means branch-and-bound stopped at the requested relative
	// optimality gap (Options.RelGap) with a nonzero proven gap: the
	// incumbent is within that gap of optimal but not proven optimal.
	// Solution.Gap carries the proven gap.
	GapLimit
	// IterLimit means a simplex solve exhausted its pivot budget before
	// proving optimality: the point reached is feasible for the phase it
	// stopped in but carries no optimality certificate. LP solves surface
	// it directly; branch-and-bound treats a node hitting it like a node
	// budget stop and finishes with LimitReached plus the incumbent.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case GapLimit:
		return "gap-limit"
	case IterLimit:
		return "iteration-limit"
	default:
		return "limit-reached"
	}
}

// Solution is the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64
	// Values holds one entry per variable, indexed by VarID.
	Values []float64
	// Gap is the relative optimality gap proven at termination (MILP
	// only; 0 for LPs). +Inf when a limit stopped the root LP and the
	// answer is the MIP start, against which no bound was proven.
	Gap float64
	// Nodes is the number of branch-and-bound nodes explored, the root
	// included; 0 when the root LP bound alone proves a MIP start optimal.
	Nodes int
	// Workers is the number of branch-and-bound workers used (0 for LPs).
	Workers int
	// SimplexIters is the total number of simplex pivots performed across
	// the solve: cold primal iterations (both phases), warm-start basis
	// re-installation pivots, and dual-simplex repair pivots.
	SimplexIters int
	// WarmStartHits counts branch-and-bound node relaxations resolved by
	// the dual-simplex warm start (including children proven infeasible by
	// it) rather than a cold two-phase primal solve. 0 for LPs.
	WarmStartHits int
	// BoundFlips counts nonbasic boxed variables the long-step dual ratio
	// test moved bound-to-bound instead of pivoting on — each one walks
	// through a degenerate vertex at the cost of one FTRAN instead of a
	// basis change.
	BoundFlips int
	// WeightResets counts devex pricing-weight reference resets (at each
	// refactorization, or when a weight outgrows the reference cap).
	WeightResets int
	// PresolveRows and PresolveCols count the constraint rows and variable
	// columns the presolve layer eliminated before the search (0 when it
	// removed nothing). Values are always reported against the original
	// model's VarIDs (postsolve rehydrates eliminated columns).
	PresolveRows int
	PresolveCols int
	// LU/basis health, summed over the root solve and every worker engine:
	// Refactorizations counts full basis factorizations, BasisUpdates the
	// in-place Forrest–Tomlin pivot updates, FTRANCount/BTRANCount the
	// triangular solves against the factorization, and PeakUFill the
	// largest U-plus-eta nonzero count any worker's factor reached.
	Refactorizations int
	BasisUpdates     int
	FTRANCount       int
	BTRANCount       int
	PeakUFill        int
	// DenseFallbacks counts LP solves the revised engine could not certify
	// (singular basis, numerical giveup, or a binding artificial box) and
	// handed to the dense two-phase engine mid-search.
	DenseFallbacks int
	// NodePresolveFixings counts the bound tightenings node presolve
	// propagated from branching decisions before node LP solves (0 for
	// pure LPs).
	NodePresolveFixings int
}

// Value returns the solution value of v.
func (s Solution) Value(v VarID) float64 {
	if int(v) < 0 || int(v) >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[v]
}

// IntValue returns the solution value of v rounded to the nearest integer.
func (s Solution) IntValue(v VarID) int {
	return int(math.Round(s.Value(v)))
}

// branchRule selects how branch-and-bound picks the variable to branch
// on at a fractional node. Production runs pseudocost; most-fractional is
// a test-only ablation (Options.branching).
type branchRule string

const (
	// branchMostFractional branches on the integer variable whose
	// relaxation value is farthest from an integer — the classic textbook
	// rule, cheap but blind to objective impact.
	branchMostFractional branchRule = "most-fractional"
	// branchPseudocost branches on the variable with the best pseudocost
	// score: the product of the per-unit objective degradations observed
	// on past down/up branches of that variable, weighted by the current
	// fractionality. Unreliable estimates (fewer than one observation per
	// side) borrow the tree-wide average. Usually explores far fewer
	// nodes than most-fractional on hard instances. The default.
	branchPseudocost branchRule = "pseudocost"
)

// pricingRule selects how the revised dual simplex picks the leaving row
// at each pivot. The rule never changes what a solve proves — status and
// objective at proven optimality are identical across rules — only how
// many pivots it takes to get there. Production runs devex; the other two
// are test-only ablations (Options.pricing).
type pricingRule string

const (
	// pricingDantzig picks the row with the largest bound violation — the
	// textbook rule the engine used before weighted pricing existed. Cheap
	// per pivot but blind to the geometry, so degenerate instances can
	// oscillate through long sequences of near-zero steps.
	pricingDantzig pricingRule = "dantzig"
	// pricingDevex scores each row's violation against an approximate
	// reference weight maintained by the devex recurrence, resetting the
	// reference framework on every refactorization. Nearly steepest-edge
	// quality at no extra FTRAN/BTRAN work per pivot. The default.
	pricingDevex pricingRule = "devex"
	// pricingSteepestEdge maintains exact dual steepest-edge weights
	// ‖B⁻ᵀe_i‖² via the Forrest–Goldfarb update, at the cost of one extra
	// FTRAN per pivot.
	pricingSteepestEdge pricingRule = "steepest-edge"
)

// Options tune the MILP search.
type Options struct {
	// MaxNodes bounds branch-and-bound nodes (0 = default 200000).
	MaxNodes int
	// RelGap stops the search once the relative incumbent/bound gap falls
	// below this value (default 1e-6; the paper quotes < 0.1%).
	RelGap float64
	// Workers is the number of concurrent branch-and-bound workers
	// (0 = GOMAXPROCS). Objective and Status are deterministic across
	// worker counts when the search runs to proven optimality; with a
	// loose RelGap or a binding MaxNodes the early-stop point depends on
	// timing, and with Workers > 1 pseudocost scores depend on the order
	// workers report results, so use Workers: 1 where exact
	// reproducibility of node counts or early stops matters.
	Workers int
	// Context, when non-nil, cancels the search early. The simplex
	// engines poll it at pivot intervals, so cancellation aborts even in
	// the middle of one long LP: a MIP solve returns LimitReached with
	// the best incumbent so far, and a pure-LP solve returns IterLimit
	// (the point is phase-feasible but carries no certificate).
	Context context.Context
	// MaxLPIter caps simplex pivots per LP solve call, cumulative across
	// everything the call runs: warm-start basis re-installation and a
	// revised→dense fallback (the dense engine only gets whatever budget
	// the revised attempt left unspent). 0 means the size-derived default.
	// A solve that exhausts the cap returns IterLimit instead of claiming
	// optimality.
	MaxLPIter int
	// MaxVars is the variable-count guard model builders (plan, restore)
	// enforce before constructing an exact MIP for these options; the
	// solver itself never refuses a model. 0 means DefaultMaxVars — see
	// MaxBuildVars.
	MaxVars int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})

	// Ablation switches. Production always runs their zero values; only
	// tests set them — package solver directly, package solver_test
	// through export_test.go — to hold each engine against its
	// differential oracle. Status and objective at proven optimality never
	// depend on them.
	//
	// branching and pricing pick the branch-variable and leaving-row rules
	// ("" = pseudocost, devex). noWarmStart solves every node relaxation
	// cold with the two-phase primal simplex. noPresolve skips the
	// presolve/postsolve layer, noNodePresolve the per-node bound
	// propagation. denseSimplex runs every LP on the dense two-phase
	// tableau (memory O(rows·cols); prices by largest violation only).
	// etaFileUpdates maintains the revised engine's basis with the
	// product-form eta file (refactorization every 64 etas) instead of
	// Forrest–Tomlin updates. noStart ignores the model's MIP start
	// (SetStart), so the search has to find its own first incumbent.
	branching      branchRule
	pricing        pricingRule
	noWarmStart    bool
	noPresolve     bool
	noNodePresolve bool
	denseSimplex   bool
	etaFileUpdates bool
	noStart        bool
}

// DefaultMaxVars is the MaxVars guard when none is set: the revised
// simplex stores the constraint matrix sparsely and its basis factored,
// so it scales to hundreds of thousands of columns.
const DefaultMaxVars = 250000

// defaultDenseMaxVars is the guard under the dense-tableau ablation, whose
// memory is quadratic in the standard-form size.
const defaultDenseMaxVars = 8000

// MaxBuildVars returns the effective variable cap for these options:
// MaxVars when set, otherwise the default for the selected LP engine.
func (o Options) MaxBuildVars() int {
	if o.MaxVars > 0 {
		return o.MaxVars
	}
	if o.denseSimplex {
		return defaultDenseMaxVars
	}
	return DefaultMaxVars
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.RelGap == 0 {
		o.RelGap = 1e-6
	}
	return o
}
