package api

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"flexwan/internal/chaos"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/solver"
)

// PlanResult is the JSON payload of a completed plan job.
type PlanResult struct {
	Network                string           `json:"network"`
	Scheme                 string           `json:"scheme"`
	K                      int              `json:"k"`
	Feasible               bool             `json:"feasible"`
	Wavelengths            int              `json:"wavelengths"`
	SpectrumGHz            float64          `json:"spectrum_ghz"`
	MeanSpectralEfficiency float64          `json:"mean_spectral_efficiency"`
	Unserved               []string         `json:"unserved,omitempty"`
	Solver                 *plan.SolveStats `json:"solver,omitempty"`
}

// RestoreResult is the JSON payload of a completed restore job. It is a
// pure function of the restore.Result, so an API job and the equivalent
// batch restore.Solve call produce byte-identical payloads.
type RestoreResult struct {
	Scenario     string            `json:"scenario"`
	CutFibers    []string          `json:"cut_fibers"`
	AffectedGbps int               `json:"affected_gbps"`
	RestoredGbps int               `json:"restored_gbps"`
	Capability   float64           `json:"capability"`
	Channels     int               `json:"channels"`
	PerLink      map[string][2]int `json:"per_link,omitempty"`
	Solver       *plan.SolveStats  `json:"solver,omitempty"`
}

// SweepResult is the JSON payload of a completed sweep job.
type SweepResult struct {
	Scenarios      int      `json:"scenarios"`
	Failed         int      `json:"failed"`
	FailedIDs      []string `json:"failed_ids,omitempty"`
	MeanCapability float64  `json:"mean_capability"`
}

// RestoreScenario is the canonical scenario a restore job solves for the
// given cut set. Exported so clients (and the bit-identity tests) can
// construct the exact batch-equivalent restore.Problem.
func RestoreScenario(cutFibers []string) restore.Scenario {
	return restore.Scenario{
		ID:        "cut-" + strings.Join(cutFibers, "+"),
		CutFibers: cutFibers,
	}
}

// RestoreResultJSON renders a restore.Result as the API's job payload.
// Both the executor and the equivalence tests go through this one
// function — byte-identity is by construction.
func RestoreResultJSON(res *restore.Result) (json.RawMessage, error) {
	return json.Marshal(RestoreResult{
		Scenario:     res.Scenario.ID,
		CutFibers:    res.Scenario.CutFibers,
		AffectedGbps: res.AffectedGbps,
		RestoredGbps: res.RestoredGbps,
		Capability:   res.Capability(),
		Channels:     len(res.Restored),
		PerLink:      res.PerLink,
		Solver:       res.Solver,
	})
}

// executeJob is the scheduler's Executor: it dispatches on JobSpec.Type.
func (s *Server) executeJob(ctx context.Context, j *Job) (json.RawMessage, error) {
	switch j.Spec.Type {
	case "plan":
		return s.runPlan(ctx, j)
	case "restore":
		return s.runRestore(ctx, j)
	case "sweep":
		return s.runSweep(ctx, j)
	case "drill":
		return s.runDrill(ctx, j)
	}
	return nil, fmt.Errorf("unknown job type %q (want plan, restore, sweep, or drill)", j.Spec.Type)
}

func (s *Server) runPlan(ctx context.Context, j *Job) (json.RawMessage, error) {
	spec := j.Spec
	e, err := s.plans.base(specKey(spec))
	if err != nil {
		return nil, err
	}
	res := e.res
	if spec.Exact {
		j.Logf("solving exact MIP on %s", spec.Network)
		res, err = plan.SolveExact(plan.Problem{
			Optical: e.net.Optical, IP: e.net.IP,
			Catalog: e.catalog, Grid: e.grid, K: spec.K,
		}, solver.Options{Context: ctx})
		if err != nil {
			return nil, err
		}
		if res.Solver != nil && res.Solver.Status != solver.Optimal && ctx.Err() != nil {
			// The deadline aborted the search (possibly mid-LP, see the
			// solver's pivot-interval context check): Canceled, not a
			// stale Optimal.
			return nil, ctx.Err()
		}
	}
	scheme := spec.Scheme
	if scheme == "" {
		scheme = "flexwan"
	}
	return json.Marshal(PlanResult{
		Network: spec.Network, Scheme: scheme, K: spec.K,
		Feasible:               res.Feasible(),
		Wavelengths:            len(res.Wavelengths),
		SpectrumGHz:            res.SpectrumGHz(),
		MeanSpectralEfficiency: res.MeanSpectralEfficiency(),
		Unserved:               res.Unserved,
		Solver:                 res.Solver,
	})
}

// runRestore answers from the plan entry's payload memo when this cut
// set was rendered before — the restoration is a pure function of (plan,
// ordered cuts) — and otherwise solves, renders and remembers it. The
// deadline check stays ahead of the lookup: a job that expired while
// queued is Canceled even when its answer is one map read away.
func (s *Server) runRestore(ctx context.Context, j *Job) (json.RawMessage, error) {
	spec := j.Spec
	if len(spec.CutFibers) == 0 {
		return nil, fmt.Errorf("restore job needs cut_fibers")
	}
	e, err := s.plans.base(specKey(spec))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cuts := cutKey(spec.CutFibers)
	if payload, ok := s.plans.restored(e, cuts); ok {
		return payload, nil
	}
	res, err := restore.Solve(restore.Problem{
		Optical: e.net.Optical, IP: e.net.IP,
		Catalog: e.catalog, Grid: e.grid,
		Base:     e.res,
		Scenario: RestoreScenario(spec.CutFibers),
		K:        spec.K,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payload, err := RestoreResultJSON(res)
	if err != nil {
		return nil, err
	}
	return e.remember(cuts, payload), nil
}

func (s *Server) runSweep(ctx context.Context, j *Job) (json.RawMessage, error) {
	spec := j.Spec
	e, err := s.plans.base(specKey(spec))
	if err != nil {
		return nil, err
	}
	scenarios := restore.SingleFiberScenarios(e.net.Optical)
	j.Logf("sweeping %d single-fiber scenarios", len(scenarios))
	// The scheduler's workers are the concurrency budget: a sweep job
	// solves its scenarios one after another.
	sw, err := restore.SweepWithOptions(restore.Problem{
		Optical: e.net.Optical, IP: e.net.IP,
		Catalog: e.catalog, Grid: e.grid,
		Base: e.res, K: spec.K,
	}, scenarios, restore.SweepOptions{Workers: 1, Context: ctx})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return json.Marshal(SweepResult{
		Scenarios:      len(scenarios),
		Failed:         sw.Failed(),
		FailedIDs:      sw.FailedIDs(),
		MeanCapability: sw.MeanCapability(),
	})
}

// runDrill builds a fresh loopback testbed (a drill consumes its fleet),
// runs the closed-loop chaos drill, and records every controller action
// in the service's shared config store under the job's identity. Drills
// are serialized: each one stands up dozens of TCP device agents.
func (s *Server) runDrill(ctx context.Context, j *Job) (json.RawMessage, error) {
	spec := j.Spec
	net, err := ResolveNetwork(spec.Network, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	s.drillMu.Lock()
	defer s.drillMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j.Logf("deploying %s testbed", net.Name)
	tb, err := chaos.NewTestbed(net, chaos.Options{
		K:           spec.K,
		ConfigStore: s.store,
		Actor:       j.Tenant + "/" + j.ID,
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	sc := chaos.Scenario{Name: j.ID, Seed: spec.Seed}
	if len(spec.CutFibers) > 0 {
		sc.CutFiber = spec.CutFibers[0]
	}
	j.Logf("running drill (seed %d)", spec.Seed)
	rep, _, err := chaos.Run(tb, sc)
	if err != nil {
		return nil, err
	}
	payload, merr := json.Marshal(rep)
	if merr != nil {
		return nil, merr
	}
	if !rep.OracleMatch || !rep.AuditClean {
		return payload, fmt.Errorf("drill failed: oracle_match=%v audit_clean=%v", rep.OracleMatch, rep.AuditClean)
	}
	return payload, nil
}
