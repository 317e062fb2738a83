package solver

// Test hooks for package solver_test, whose tests import plan and eval
// (which import this package) and so cannot live inside it.

// PlanningModel hands planningModel to the external test package, which can
// import plan and hold the restated model against the real builder
// (planmodel_test.go).
var PlanningModel = planningModel

// Ablation names the test-only switches of Options (see the unexported
// fields there) for the external tests.
type Ablation struct {
	Branching      branchRule
	Pricing        pricingRule
	NoWarmStart    bool
	NoPresolve     bool
	NoNodePresolve bool
	DenseSimplex   bool
	EtaFileUpdates bool
}

// Apply returns o with a's switches set.
func (a Ablation) Apply(o Options) Options {
	o.branching, o.pricing = a.Branching, a.Pricing
	o.noWarmStart, o.noPresolve, o.noNodePresolve = a.NoWarmStart, a.NoPresolve, a.NoNodePresolve
	o.denseSimplex, o.etaFileUpdates = a.DenseSimplex, a.EtaFileUpdates
	return o
}

// The non-default rules, for Ablation.Branching and Ablation.Pricing.
const (
	BranchMostFractional = branchMostFractional
	PricingDantzig       = pricingDantzig
	PricingSteepestEdge  = pricingSteepestEdge
)
