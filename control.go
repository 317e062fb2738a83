package flexwan

import (
	"flexwan/internal/chaos"
	"flexwan/internal/controller"
	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/telemetry"
	"flexwan/internal/workload"
)

// Standard device model (internal/devmodel).
type (
	// DeviceDescriptor identifies one managed optical device.
	DeviceDescriptor = devmodel.Descriptor
	// DeviceClass is the device class in the standard model.
	DeviceClass = devmodel.Class
	// TransponderConfig is the standard transponder document.
	TransponderConfig = devmodel.TransponderConfig
	// TransponderState is the standard transponder state document.
	TransponderState = devmodel.TransponderState
	// WSSConfig is the standard WSS passband document.
	WSSConfig = devmodel.WSSConfig
	// Passband is one WSS filter-port passband.
	Passband = devmodel.Passband
	// AmplifierState is the standard amplifier state document.
	AmplifierState = devmodel.AmplifierState
)

// Device classes.
const (
	ClassTransponder = devmodel.ClassTransponder
	ClassWSS         = devmodel.ClassWSS
	ClassAmplifier   = devmodel.ClassAmplifier
)

// Simulated hardware agents (internal/device).
type (
	// Fabric is the shared physical-layer simulation.
	Fabric = device.Fabric
	// TransponderAgent is a simulated transponder device.
	TransponderAgent = device.Transponder
	// WSSAgent is a simulated wavelength-selective switch.
	WSSAgent = device.WSS
	// AmplifierAgent is a simulated EDFA.
	AmplifierAgent = device.Amplifier
	// Alarm is an asynchronous device event.
	Alarm = device.Alarm
)

// Hardware constructors.
var (
	NewFabric           = device.NewFabric
	NewTransponderAgent = device.NewTransponder
	NewWSSAgent         = device.NewWSS
	NewFixedGridWSS     = device.NewFixedGridWSS
	NewAmplifierAgent   = device.NewAmplifier
)

// Management protocol (internal/netconf).
type (
	// ManagementClient is a controller-side device session.
	ManagementClient = netconf.Client
	// ManagementServer is a device-side endpoint.
	ManagementServer = netconf.Server
)

// Management protocol options and errors.
type (
	// DialOptions sets per-session dial and call timeouts.
	DialOptions = netconf.DialOptions
	// RPCError is a device NACK: an intentional rejection the
	// controller must not retry.
	RPCError = netconf.RPCError
	// RPCFault is an injectable transport fault kind.
	RPCFault = netconf.RPCFault
	// FaultDecision is one interceptor verdict for one RPC.
	FaultDecision = netconf.FaultDecision
	// RPCInterceptor decides a fault for each RPC a server handles.
	RPCInterceptor = netconf.Interceptor
)

// Management protocol error classification.
var (
	// IsTransientRPC reports whether an RPC failure is retryable
	// (timeout or lost session) rather than a device NACK.
	IsTransientRPC = netconf.IsTransient
)

// NETCONF-like protocol operations.
const (
	OpGetConfig  = netconf.OpGetConfig
	OpEditConfig = netconf.OpEditConfig
	OpGetState   = netconf.OpGetState
)

// Data stream (internal/telemetry).
type (
	// TelemetryStore is the online KPI time-series store.
	TelemetryStore = telemetry.Store
	// TelemetryPoint is one sample.
	TelemetryPoint = telemetry.Point
	// TelemetryCollector polls devices and detects fiber events.
	TelemetryCollector = telemetry.Collector
	// FiberEvent is a detected optical-layer event.
	FiberEvent = telemetry.Event
)

// Telemetry constructors.
var (
	NewTelemetryStore = telemetry.NewStore
	NewCollector      = telemetry.NewCollector
)

// Centralized controller (internal/controller).
type (
	// Controller is the centralized optical controller.
	Controller = controller.Controller
	// ControllerConfig assembles the controller's global view.
	ControllerConfig = controller.Config
	// DevMgr is the device manager.
	DevMgr = controller.DevMgr
	// AuditReport is a network-wide configuration audit outcome.
	AuditReport = controller.AuditReport
	// RestoreReport is the full outcome of handling one fiber event:
	// restoration result, latency breakdown, and degraded-push skips.
	RestoreReport = controller.RestoreReport
	// RetryPolicy governs per-RPC retries in the device manager.
	RetryPolicy = controller.RetryPolicy
	// ChannelInfo describes one live channel and its hardware.
	ChannelInfo = controller.ChannelInfo
	// FiberUtilization is one fiber's spectrum occupancy
	// (Controller.Utilization).
	FiberUtilization = controller.FiberUtilization
)

// Controller entry points.
var (
	// NewController builds a centralized controller.
	NewController = controller.New
	// DefaultRetryPolicy is the device manager's starting retry policy.
	DefaultRetryPolicy = controller.DefaultRetryPolicy
)

// Fault injection and recovery drills (internal/chaos).
type (
	// ChaosTestbed is a fully deployed control plane on loopback TCP.
	ChaosTestbed = chaos.Testbed
	// ChaosOptions tunes testbed construction.
	ChaosOptions = chaos.Options
	// ChaosScenario scripts one recovery drill.
	ChaosScenario = chaos.Scenario
	// ChaosInjector decides, per RPC, whether to inject a fault.
	ChaosInjector = chaos.Injector
	// ChaosFaultConfig sets per-RPC fault probabilities.
	ChaosFaultConfig = chaos.FaultConfig
	// DrillReport is one drill's scorecard.
	DrillReport = chaos.Report
	// DrillLog is a drill's deterministic event log.
	DrillLog = chaos.Log
	// DrillEvent is one entry of a drill's event log.
	DrillEvent = chaos.Event
)

// Chaos entry points.
var (
	NewChaosTestbed  = chaos.NewTestbed
	NewChaosInjector = chaos.NewInjector
	NewDrillLog      = chaos.NewLog
	// RunDrill executes a scenario against a testbed.
	RunDrill = chaos.Run
	// RingNetwork builds the smallest topology with restoration
	// diversity — the drill smoke workload.
	RingNetwork = chaos.RingNetwork
)

// Workloads (internal/workload).
type (
	// Network bundles an optical topology with its IP demand layer.
	Network = workload.Network
)

// Evaluation workload generators and network I/O.
var (
	// TBackbone generates the synthetic production backbone.
	TBackbone = workload.TBackbone
	// Cernet builds the public CERNET topology with generated demands.
	Cernet = workload.Cernet
	// ReadNetwork parses a network from JSON.
	ReadNetwork = workload.ReadNetwork
	// WriteNetwork serializes a network to JSON.
	WriteNetwork = workload.WriteNetwork
)

// FabricFromTopology builds a fabric mirroring an optical topology's
// fiber plant.
var FabricFromTopology = device.FabricFromTopology
