package flexwan

import (
	"flexwan/internal/api"
	"flexwan/internal/controller"
	"flexwan/internal/devmodel"
	"flexwan/internal/restore"
	"flexwan/internal/traffic"
)

// Controller replication (§4.4 fault tolerance) and repair (§9
// zero-touch misconnection recovery).
type (
	// ControllerSnapshot is the replication payload for standby takeover.
	ControllerSnapshot = controller.Snapshot
	// ChannelSnapshot is one live channel in a snapshot.
	ChannelSnapshot = controller.ChannelSnapshot
)

// Snapshot codecs.
var (
	MarshalSnapshot   = controller.MarshalSnapshot
	UnmarshalSnapshot = controller.UnmarshalSnapshot
)

// Failure-scenario generators beyond 1-fiber cuts (§8's k-failure and
// probabilistic models).
var (
	// DoubleFiberScenarios enumerates simultaneous 2-fiber failures.
	DoubleFiberScenarios = restore.DoubleFiberScenarios
	// ProbabilisticScenarios samples length-weighted multi-fiber cuts.
	ProbabilisticScenarios = restore.ProbabilisticScenarios
)

// Traffic-matrix demand derivation (internal/traffic): the input side of
// the IP TopoMgr.
type (
	// TrafficDemand is one region-pair entry of a traffic matrix.
	TrafficDemand = traffic.Demand
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

// Standard device model introspection (§4.3).
type (
	// DeviceComponent is one logical block of the standard device model.
	DeviceComponent = devmodel.Component
	// DeviceModelSpec describes a class's components and workflow.
	DeviceModelSpec = devmodel.ModelSpec
)

// StandardDeviceModel returns the vendor-neutral model per device class.
var StandardDeviceModel = devmodel.StandardModel

// Controller-as-a-service (internal/api): the persistent multi-tenant
// HTTP/JSON layer over the planner, restorer, drills, and device fleet.
// See cmd/flexwand for the daemon and examples/service for in-process
// embedding.
type (
	// APIServer hosts the v1 job/device/config API.
	APIServer = api.Server
	// APIServerOptions configures an APIServer.
	APIServerOptions = api.Options
	// JobSpec describes one submitted job (type, network, deadline).
	JobSpec = api.JobSpec
	// JobView is a job's JSON representation.
	JobView = api.JobView
	// JobState is a job's lifecycle position (Queued → ... → Optimal).
	JobState = api.JobState
	// SchedStats is the /v1/stats payload.
	SchedStats = api.SchedStats
	// ConfigStore is the pluggable versioned-config backend.
	ConfigStore = controller.ConfigStore
	// ConfigVersion is one immutable audited config version.
	ConfigVersion = controller.ConfigVersion
	// DeviceHealth is one device's registration + session status.
	DeviceHealth = controller.DeviceHealth
)

// NewAPIServer builds and starts the controller service.
var NewAPIServer = api.New

// NewConfigStore returns the in-memory append-only config store.
var NewConfigStore = controller.NewMemStore

// Job lifecycle states.
const (
	JobQueued   = api.StateQueued
	JobRunning  = api.StateRunning
	JobOptimal  = api.StateOptimal
	JobFailed   = api.StateFailed
	JobCanceled = api.StateCanceled
)
