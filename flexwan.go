// Package flexwan is the public API of the FlexWAN reproduction — a
// flexible optical WAN infrastructure with spacing-variable transponders
// (SVTs), a spectrum-sliced optical line system, a centralized
// vendor-agnostic controller, and the cost-minimizing network planning
// and capacity-maximizing optical restoration algorithms of the SIGCOMM
// 2023 paper "FlexWAN: Software Hardware Co-design for Cost-Effective
// and Resilient Optical Backbones".
//
// The package re-exports the stable surface of the internal packages:
//
//   - hardware models: transponder catalogs (SVT / RADWAN BVT / fixed
//     100G), the pixelated spectrum grid, and the physical-layer link
//     model;
//   - topology: optical multigraphs with K-shortest-path routing and the
//     IP demand layer;
//   - algorithms: network planning (Algorithm 1, heuristic and exact MIP)
//     and optical restoration (§8);
//   - control plane: simulated multi-vendor device agents speaking a
//     NETCONF-like protocol, the telemetry data stream, and the
//     centralized controller;
//   - evaluation: workload generators and the harness regenerating every
//     table and figure of the paper.
//
// See examples/quickstart for the five-minute tour.
package flexwan

import (
	"flexwan/internal/phy"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/solver"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/transponder"
)

// Spectrum model (internal/spectrum).
type (
	// Grid is the pixelated spectrum of a fiber (C-band / 12.5 GHz by
	// default).
	Grid = spectrum.Grid
	// Interval is a contiguous pixel range occupied by one wavelength.
	Interval = spectrum.Interval
	// SpectrumAllocator tracks conflict-free, consistent spectrum use
	// across fibers.
	SpectrumAllocator = spectrum.Allocator
	// FiberID names a fiber in the allocator.
	FiberID = spectrum.FiberID
	// Fit selects first-fit or best-fit placement.
	Fit = spectrum.Fit
)

// Spectrum constructors and constants.
var (
	DefaultGrid  = spectrum.DefaultGrid
	NewGrid      = spectrum.NewGrid
	NewAllocator = spectrum.NewAllocator
)

// Placement strategies.
const (
	FirstFit = spectrum.FirstFit
	BestFit  = spectrum.BestFit
)

// Physical layer (internal/phy).
type (
	// LinkModel is the amplified-line OSNR budget.
	LinkModel = phy.LinkModel
	// Modulation is a DSP constellation.
	Modulation = phy.Modulation
	// FEC is a forward-error-correction configuration.
	FEC = phy.FEC
)

// GNParams is the Gaussian-noise nonlinear propagation model — the
// first-principles reach estimator cross-checking Table 2.
type GNParams = phy.GNParams

// Physical-layer helpers.
var (
	DefaultLink         = phy.DefaultLink
	ShannonCapacityGbps = phy.ShannonCapacityGbps
	ShannonMinSNRdB     = phy.ShannonMinSNRdB
	DefaultGN           = phy.DefaultGN
	RequiredSNRdB       = phy.RequiredSNRdB
)

// Transponders (internal/transponder).
type (
	// Mode is one (rate, spacing, reach) operating point.
	Mode = transponder.Mode
	// Catalog is a transponder family's mode set.
	Catalog = transponder.Catalog
	// Provision is a mode multiset covering one demand.
	Provision = transponder.Provision
)

// The three transponder families the paper compares.
var (
	// SVT is FlexWAN's spacing-variable transponder (Table 2).
	SVT = transponder.SVT
	// RADWAN is the rate-adaptive BVT baseline.
	RADWAN = transponder.RADWAN
	// Fixed100G is the traditional fixed-grid 100G baseline.
	Fixed100G = transponder.Fixed100G
)

// Topology (internal/topology).
type (
	// Optical is the ROADM-and-fiber multigraph.
	Optical = topology.Optical
	// NodeID names a ROADM site.
	NodeID = topology.NodeID
	// Fiber is one fiber segment.
	Fiber = topology.Fiber
	// Path is a loopless optical path.
	Path = topology.Path
	// IPLink is an IP-layer demand.
	IPLink = topology.IPLink
	// IPTopology is the demand set.
	IPTopology = topology.IPTopology
)

// NewOptical returns an empty optical topology.
var NewOptical = topology.New

// Planning (internal/plan — Algorithm 1).
type (
	// PlanProblem is one planning instance.
	PlanProblem = plan.Problem
	// PlanResult is a complete plan.
	PlanResult = plan.Result
	// Wavelength is one provisioned channel. Path and Mode are read-only
	// pointers into the plan's candidate paths and the catalog.
	Wavelength = plan.Wavelength
	// LinkPlan summarizes one link's provisioning.
	LinkPlan = plan.LinkPlan
)

// Planning entry points.
var (
	// Plan runs the scalable planning heuristic.
	Plan = plan.Solve
	// PlanExact solves the paper's MIP with the built-in
	// branch-and-bound (small/medium instances).
	PlanExact = plan.SolveExact
	// VerifyPlan re-checks every Algorithm 1 constraint on a result.
	VerifyPlan = plan.Verify
	// ExtendPlan provisions additional capacity incrementally without
	// disturbing live wavelengths (§9 smooth evolution).
	ExtendPlan = plan.Extend
	// DecommissionLink releases all of a link's wavelengths and spectrum.
	DecommissionLink = plan.Decommission
	// Defragment compacts spectrum with make-before-break retunes.
	Defragment = plan.Defragment
)

// Restoration (internal/restore — §8).
type (
	// RestoreProblem is one restoration instance.
	RestoreProblem = restore.Problem
	// RestoreResult is the outcome for one failure scenario.
	RestoreResult = restore.Result
	// Scenario is one fiber-cut case.
	Scenario = restore.Scenario
	// Restored is one re-established channel. Path, Mode and Original are
	// read-only pointers; Original is nil for a channel revived on an
	// extra spare rather than in place of a failed wavelength.
	Restored = restore.Restored
	// SweepResult aggregates restoration over a scenario set.
	SweepResult = restore.SweepResult
	// SweepOptions tunes a scenario sweep (worker count, cancellation).
	SweepOptions = restore.SweepOptions
	// ScenarioError records one failed scenario within a sweep.
	ScenarioError = restore.ScenarioError
)

// Restoration entry points.
var (
	// Restore runs the restoration heuristic for one scenario.
	Restore = restore.Solve
	// RestoreExact solves the §8 MIP exactly.
	RestoreExact = restore.SolveExact
	// RestoreSweepWithOptions restores every scenario against one base
	// plan; zero options solve the scenarios on all cores.
	RestoreSweepWithOptions = restore.SweepWithOptions
	// SingleFiberScenarios enumerates all 1-failure cases.
	SingleFiberScenarios = restore.SingleFiberScenarios
	// PlusSpares computes FlexWAN+ spare transponders.
	PlusSpares = restore.PlusSpares
)

// Solver (internal/solver — the Gurobi substitute).
type (
	// SolverOptions tunes the branch-and-bound.
	SolverOptions = solver.Options
	// MIPModel is a mixed-integer program under construction.
	MIPModel = solver.Model
	// MIPSolution is a solve outcome.
	MIPSolution = solver.Solution
	// Term is one coefficient·variable product.
	Term = solver.Term
	// VarID indexes a model variable.
	VarID = solver.VarID
	// Sense selects minimization or maximization.
	Sense = solver.Sense
	// Rel is a constraint relation.
	Rel = solver.Rel
)

// NewMIPModel starts an empty optimization model.
var NewMIPModel = solver.NewModel

// Optimization senses and relations.
const (
	MinimizeObjective = solver.Minimize
	MaximizeObjective = solver.Maximize
	RelLE             = solver.LE
	RelGE             = solver.GE
	RelEQ             = solver.EQ
)
