// Package flexwan is the public API of the FlexWAN reproduction — a
// flexible optical WAN infrastructure with spacing-variable transponders
// (SVTs), a spectrum-sliced optical line system, a centralized
// vendor-agnostic controller, and the cost-minimizing network planning
// and capacity-maximizing optical restoration algorithms of the SIGCOMM
// 2023 paper "FlexWAN: Software Hardware Co-design for Cost-Effective
// and Resilient Optical Backbones".
//
// The package exports what its commands, examples and tests use:
//
//   - plan: Algorithm 1's planning heuristic over an optical topology,
//     an IP demand layer and a transponder catalog, and its verifier;
//   - restore: §8's restoration heuristic, its scenario generators and
//     the scenario sweep;
//   - the controller and its simulated fleet: device agents on loopback
//     TCP, the telemetry collector, and the chaos testbed that deploys a
//     whole network as live agents;
//   - the daemon: the multi-tenant job service behind cmd/flexwand;
//   - the workloads: the synthetic T-backbone, CERNET and traffic-matrix
//     demand derivation.
//
// Everything else (the MIP solver, exact planning and restoration,
// evolution, the wire protocol, drills) lives in the internal packages
// and is reached through the controller, the daemon and the commands.
// See examples/quickstart for the five-minute tour.
package flexwan

import (
	"flexwan/internal/phy"
	"flexwan/internal/plan"
	"flexwan/internal/restore"
	"flexwan/internal/spectrum"
	"flexwan/internal/topology"
	"flexwan/internal/traffic"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// DefaultGrid is the C-band spectrum of a fiber in 12.5 GHz pixels.
var DefaultGrid = spectrum.DefaultGrid

// Physical layer (internal/phy).
var (
	// DefaultLink is the amplified-line OSNR budget.
	DefaultLink = phy.DefaultLink
	// ShannonMinSNRdB is the Shannon-limit SNR a rate needs in a spacing.
	ShannonMinSNRdB = phy.ShannonMinSNRdB
)

// Catalog is a transponder family's mode set (internal/transponder).
type Catalog = transponder.Catalog

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
	// IPLink is an IP-layer demand.
	IPLink = topology.IPLink
	// IPTopology is the demand set.
	IPTopology = topology.IPTopology
)

// NewOptical returns an empty optical topology.
var NewOptical = topology.New

// PlanProblem is one planning instance (internal/plan — Algorithm 1).
type PlanProblem = plan.Problem

// Planning entry points.
var (
	// Plan runs the scalable planning heuristic.
	Plan = plan.Solve
	// VerifyPlan re-checks every Algorithm 1 constraint on a result.
	VerifyPlan = plan.Verify
)

// Restoration (internal/restore — §8).
type (
	// RestoreProblem is one restoration instance.
	RestoreProblem = restore.Problem
	// RestoreResult is the outcome for one failure scenario.
	RestoreResult = restore.Result
	// Scenario is one fiber-cut case.
	Scenario = restore.Scenario
	// SweepOptions tunes a scenario sweep (worker count, cancellation).
	SweepOptions = restore.SweepOptions
)

// Restoration entry points and failure-scenario generators (§8's
// single, double and probabilistic cut models).
var (
	// Restore runs the restoration heuristic for one scenario.
	Restore = restore.Solve
	// RestoreSweepWithOptions restores every scenario against one base
	// plan; zero options solve the scenarios on all cores.
	RestoreSweepWithOptions = restore.SweepWithOptions
	// SingleFiberScenarios enumerates all 1-failure cases.
	SingleFiberScenarios = restore.SingleFiberScenarios
	// DoubleFiberScenarios enumerates simultaneous 2-fiber failures.
	DoubleFiberScenarios = restore.DoubleFiberScenarios
	// ProbabilisticScenarios samples length-weighted multi-fiber cuts.
	ProbabilisticScenarios = restore.ProbabilisticScenarios
)

// Network bundles an optical topology with its IP demand layer
// (internal/workload).
type Network = workload.Network

// Evaluation workloads.
var (
	// TBackbone generates the synthetic production backbone.
	TBackbone = workload.TBackbone
	// Cernet builds the public CERNET topology with generated demands.
	Cernet = workload.Cernet
)

// Traffic-matrix demand derivation (internal/traffic): the input side of
// the IP TopoMgr.
type (
	// TrafficMatrix is a region-to-region offered-load matrix.
	TrafficMatrix = traffic.Matrix
	// IPLinkSpec declares an IP link whose capacity is to be derived.
	IPLinkSpec = traffic.LinkSpec
	// TrafficOptions tunes demand derivation.
	TrafficOptions = traffic.Options
)

// DeriveDemands routes a traffic matrix over the IP links and returns the
// demand set the planner consumes.
var DeriveDemands = traffic.Derive
