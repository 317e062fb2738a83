// Package solver is a pure-Go mixed-integer linear programming stack: a
// bounded-variable dual simplex over an LU-factorized basis for linear
// programs and a best-first branch-and-bound for integrality.
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
	"strconv"
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
	// read-only by every solve of the model, concurrent ones included.
	// Mutating the model after a solve started is already undefined, so
	// the cache never invalidates.
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
// coefficient obj. Use math.Inf(1) for an unbounded ub. Names only label
// diagnostics (a dropped MIP start, a bad constraint) and may be empty: an
// unnamed variable reads x<id> there, an unnamed row r<index>.
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

// diagName is what diagnostics call a column or row: its name, or when
// that is empty, prefix (x for a column, r for a row) and its index.
func diagName(name, prefix string, i int) string {
	if name != "" {
		return name
	}
	return prefix + strconv.Itoa(i)
}

// AddConstraint adds Σ terms rel rhs. Terms referencing the same variable
// are accumulated, in order of first occurrence, and terms whose
// coefficients cancel to zero are dropped.
func (m *Model) AddConstraint(name string, terms []Term, rel Rel, rhs float64) error {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			return fmt.Errorf("solver: constraint %s references unknown variable %d", diagName(name, "r", len(m.cons)), t.Var)
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
	// IterLimit means a simplex solve stopped without a certificate: its
	// pivot budget ran out, its context was cancelled, or it could not
	// decide the LP numerically (a Logf line says which). The Solution
	// carries no point. LP solves surface it directly; branch-and-bound
	// treats a node hitting it like a node budget stop and finishes with
	// LimitReached plus the incumbent.
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
	// SimplexIters is the total number of dual simplex pivots performed
	// across the solve: cold solves, dives and warm starts, and the
	// certificate runs that settle a cold solve its artificial boxes shaped.
	SimplexIters int
	// WarmStartHits counts branch-and-bound node relaxations resolved by a
	// dive or warm start from the parent's basis (including children proven
	// infeasible by it) rather than a cold solve. 0 for LPs.
	WarmStartHits int
	// BoundFlips counts nonbasic boxed variables the long-step dual ratio
	// test moved bound-to-bound instead of pivoting on — each one walks
	// through a degenerate vertex at the cost of one FTRAN instead of a
	// basis change.
	BoundFlips int
	// LU/basis health of the solve, the root LP and every node included:
	// Refactorizations counts full basis factorizations and
	// FTRANCount/BTRANCount the triangular solves against the
	// factorization.
	Refactorizations int
	FTRANCount       int
	BTRANCount       int
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

// Options tune the MILP search.
type Options struct {
	// MaxNodes bounds branch-and-bound nodes (0 = default 200000).
	MaxNodes int
	// RelGap stops the search once the relative incumbent/bound gap falls
	// below this value (default 1e-6; the paper quotes < 0.1%).
	RelGap float64
	// Workers is ignored: branch-and-bound is one serial search, and
	// callers get concurrency by running independent solves side by side.
	//
	// Deprecated: no solve reads it. It stays only because
	// benchmark/wl_planexact.go still sets it, and goes with that
	// worker-count probe.
	Workers int
	// Context, when non-nil, cancels the search early. The simplex polls
	// it at pivot intervals, so cancellation aborts even in the middle of
	// one long LP: a MIP solve returns LimitReached with the best
	// incumbent so far, and a pure-LP solve returns IterLimit.
	Context context.Context
	// MaxLPIter caps simplex pivots per LP solve call, cumulative across
	// everything the call runs: a node's dive or warm start and the cold
	// solve it falls back to, and a cold solve's retried artificial box and
	// certificate runs. 0 means the size-derived default. A solve that
	// exhausts the cap returns IterLimit instead of claiming optimality.
	MaxLPIter int
	// MaxVars is the variable-count guard model builders (plan, restore)
	// enforce before constructing an exact MIP for these options — counted
	// in the columns they would build, which for plan is one per mode class
	// and start pixel; the solver itself never refuses a model. 0 means
	// DefaultMaxVars — see MaxBuildVars.
	MaxVars int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})

	// Ablation switches. Production always runs their zero values; only
	// tests set them — package solver directly, package solver_test
	// through export_test.go. Status and objective at proven optimality
	// never depend on them.
	//
	// noWarmStart solves every node relaxation cold. noNodePresolve skips
	// the per-node bound propagation. noStart ignores the model's MIP start
	// (SetStart), so the search has to find its own first incumbent.
	noWarmStart    bool
	noNodePresolve bool
	noStart        bool
}

// DefaultMaxVars is the MaxVars guard when none is set: the simplex stores
// the constraint matrix sparsely and its basis factored, so it scales to
// hundreds of thousands of columns.
const DefaultMaxVars = 250000

// MaxBuildVars returns the effective variable cap for these options:
// MaxVars when set, otherwise DefaultMaxVars.
func (o Options) MaxBuildVars() int {
	if o.MaxVars > 0 {
		return o.MaxVars
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
