// Package service is the solve daemon: it turns the batch solver
// pipeline into a long-running, multi-tenant HTTP service, layered
// strictly as transport → fair scheduler → solver.
//
//   - The transport is an HTTP/JSON job API: POST /solve admits a job
//     (synchronous by default, async with {"async": true}), GET
//     /jobs/{id} polls one, GET /healthz reports queue and per-tenant
//     state, and /metrics serves the Prometheus registry next to it.
//     Job bodies and results cross the wire through a one-pass codec
//     (DecodeRequest, AppendResult) held byte-identical to
//     encoding/json.
//   - Admission hands each job straight to the scheduler, a bounded
//     worker pool with per-tenant weighted fair queuing: workers always
//     dispatch the front job of the active tenant with the least
//     weight-normalized served work (vertices/weight), so one noisy
//     tenant cannot starve the rest. There is no coalescing stage: the
//     solvers have no batched kernel to amortize, so a job runs as
//     soon as a worker is free.
//   - The solver layer is the existing registry dispatch
//     (heuristics.Run / heuristics.Best) with per-request
//     SolveOptions.Tenant and SolveOptions.Deadline plumbed through.
//
// Overload is shed, never queued unboundedly: admission refuses jobs
// past a per-tenant queue bound, jobs whose deadline expires while
// queued are dropped at dispatch, and jobs whose deadline expires
// mid-portfolio return the best-so-far valid coloring tagged with
// core.ErrPartial (SolveOptions.PartialOnCancel) — the PR 4 deadline
// semantics reused as the service's degradation policy.
//
// The package also exposes the service/* fault sites (enqueue-drop,
// worker-panic) so internal/chaos storms can drive the
// daemon through its shedding and containment paths, and the shared
// HTTP-server/signal scaffolding (NotifySignals, NewHTTPServer,
// Shutdown) that cmd/ivc builds both its -http and -serve modes on.
//
// Observability rides on the PR 3/PR 5 stack for free: obsv
// ServiceMetrics families (service_*), service.* events on the
// EventSink, and the runtime sampler during solves. See DESIGN.md §13.
package service
