package flexwan

import "flexwan/internal/api"

// Controller-as-a-service (internal/api): the persistent multi-tenant
// HTTP/JSON layer over the planner, restorer, drills, and device fleet.
// See cmd/flexwand for the daemon and examples/service for in-process
// embedding.
type (
	// APIServerOptions configures the service.
	APIServerOptions = api.Options
	// JobSpec describes one submitted job (type, network, deadline).
	JobSpec = api.JobSpec
	// JobView is a job's JSON representation.
	JobView = api.JobView
	// SchedStats is the /v1/stats payload.
	SchedStats = api.SchedStats
)

// NewAPIServer builds and starts the controller service.
var NewAPIServer = api.New

// JobOptimal is the state of a job that finished with its answer.
const JobOptimal = api.StateOptimal
