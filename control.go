package flexwan

import (
	"flexwan/internal/chaos"
	"flexwan/internal/controller"
	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/telemetry"
)

// Standard device model (internal/devmodel).
type (
	// DeviceDescriptor identifies one managed optical device.
	DeviceDescriptor = devmodel.Descriptor
	// DeviceClass is the device class in the standard model.
	DeviceClass = devmodel.Class
	// TransponderConfig is the standard transponder document.
	TransponderConfig = devmodel.TransponderConfig
)

// Device classes.
const (
	ClassTransponder = devmodel.ClassTransponder
	ClassWSS         = devmodel.ClassWSS
	ClassAmplifier   = devmodel.ClassAmplifier
)

// StandardDeviceModel returns the vendor-neutral model per device class
// (§4.3).
var StandardDeviceModel = devmodel.StandardModel

// Fabric is the shared physical-layer simulation the agents run on
// (internal/device).
type Fabric = device.Fabric

// Hardware constructors.
var (
	NewFabric           = device.NewFabric
	NewTransponderAgent = device.NewTransponder
	NewWSSAgent         = device.NewWSS
	NewFixedGridWSS     = device.NewFixedGridWSS
	NewAmplifierAgent   = device.NewAmplifier
)

// Telemetry constructors (internal/telemetry): the online KPI store and
// the collector that polls devices and detects fiber events.
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
	// RestoreReport is the full outcome of handling one fiber event:
	// restoration result, latency breakdown, and degraded-push skips.
	RestoreReport = controller.RestoreReport
	// FiberUtilization is one fiber's spectrum occupancy
	// (Controller.Utilization).
	FiberUtilization = controller.FiberUtilization
)

// NewController builds a centralized controller.
var NewController = controller.New

// ChaosOptions tunes testbed construction (internal/chaos).
type ChaosOptions = chaos.Options

// NewChaosTestbed deploys a network as live agents on loopback TCP and
// applies its plan through a controller.
var NewChaosTestbed = chaos.NewTestbed
