// Package api is the controller-as-a-service layer: a persistent
// multi-tenant HTTP/JSON API over the planner, restorer, chaos drills,
// and device fleet.
//
// The batch tools (flexwanctl's plan/restore/drill modes) rebuild the
// world per invocation; this package keeps it resident. A Server owns:
//
//   - a bounded multi-tenant Scheduler: fixed admission queue with an
//     explicit 429 on overflow, per-tenant round-robin fair dequeue, at
//     most Workers worker goroutines executing jobs across every tenant
//     (started by Submit, gone when the queue is empty), and a retention
//     window of the 4 × QueueDepth most recently finished jobs — an
//     older job ID answers 404;
//   - a plan cache, the one bounded cache: an LRU of deterministic
//     heuristic base plans per (network, scale, scheme, k, seed), each
//     remembering the restore payloads already rendered against it, so
//     a thousand restoration jobs against the same backbone share one
//     plan solve and one solve per cut set, and return results
//     byte-identical to their batch restore.Solve equivalents;
//   - a versioned config store (controller.ConfigStore) recording every
//     controller Apply/restore/Repair as an immutable audited version;
//   - optionally, a live device fleet (controller.Controller) fronted by
//     the /v1/devices endpoints.
//
// The surface, all compact JSON (request bodies capped at 64 KiB), tenancy
// via the X-Tenant header:
//
//	POST /v1/jobs             submit a JobSpec (plan|restore|sweep|drill) → 202 JobView
//	GET  /v1/jobs             list retained jobs (no result payloads)
//	GET  /v1/jobs/{id}        one job; ?wait=5s long-polls until terminal
//	GET  /v1/jobs/{id}/events event log from ?from=N; SSE under Accept: text/event-stream
//	GET  /v1/devices          fleet health (controller.DeviceHealth)
//	POST /v1/devices          register a devmodel.Descriptor
//	GET  /v1/configs          audit history (?limit=N, snapshots elided)
//	GET  /v1/configs/{n}      one immutable version, snapshot included
//	GET  /v1/stats            scheduler, retention and plan-cache counters (SchedStats)
//	GET  /healthz             liveness
//
// Jobs carry their deadline end to end: DeadlineMs starts at submission,
// queue time counts against it, and the job context reaches
// solver.Options.Context — the simplex engines poll it at pivot
// intervals, so even a single long LP aborts promptly. A job whose
// deadline fires is reported Canceled, never a stale Optimal.
package api
