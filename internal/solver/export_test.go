package solver

// Test hooks for package solver_test, whose tests import plan and eval
// (which import this package) and so cannot live inside it.

// TightPlanningModel hands tightPlanningModel to the external test package,
// which can import plan and hold the restated model against the real
// builder (planmodel_test.go).
var TightPlanningModel = tightPlanningModel

// TightModelOf hands tightModelOf (tightPlanningModel over any subset of
// the IP links) to the same test.
var TightModelOf = tightModelOf

// Ablation names the test-only switches of Options (see the unexported
// fields there) for the external tests.
type Ablation struct {
	NoWarmStart    bool
	NoNodePresolve bool
	NoStart        bool
}

// Apply returns o with a's switches set.
func (a Ablation) Apply(o Options) Options {
	o.noWarmStart, o.noNodePresolve, o.noStart = a.NoWarmStart, a.NoNodePresolve, a.NoStart
	return o
}
