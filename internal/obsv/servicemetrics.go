package obsv

// ServiceMetrics bundles the solve-service metric taxonomy: the
// counters, gauges, and histograms the internal/service daemon layers —
// transport admission and the multi-tenant scheduler — feed. It mirrors
// the SolveMetrics contract: carried by whoever owns the service, and a
// nil *ServiceMetrics disables all of them (every field method is
// nil-receiver-safe, so the service records unconditionally).
type ServiceMetrics struct {
	// QueueDepth is the number of admitted solve jobs waiting to be
	// dispatched to a worker, across all tenants — service_queue_depth.
	QueueDepth *Gauge
	// WorkersBusy is the number of scheduler workers currently running a
	// job — service_workers_busy.
	WorkersBusy *Gauge
	// DispatchSize is the number of jobs per worker dispatch, always 1:
	// the scheduler dispatches single jobs. It keeps the family name
	// service_batch_size, because perfbench's traced run reads its
	// _sum/_count as service.batch_size.mean.
	DispatchSize *Histogram
	// RequestSeconds is the end-to-end admission-to-completion latency
	// per job — service_request_seconds.
	RequestSeconds *Histogram
	// Admitted counts solve jobs admitted past the per-tenant queue
	// bound, summed over tenants — service_tenant_admitted_total.
	Admitted *Counter
	// Shed counts solve jobs refused or dropped by the overload policy
	// (queue bound hit, deadline expired while queued, enqueue-drop
	// fault), summed over tenants — service_tenant_shed_total.
	Shed *Counter
}

// NewServiceMetrics registers the service taxonomy in r and returns the
// bundle. A nil registry yields a non-nil bundle of nil (disabled)
// metrics, which callers may still pass around safely.
func NewServiceMetrics(r *Registry) *ServiceMetrics {
	return &ServiceMetrics{
		QueueDepth: r.Gauge("service_queue_depth",
			"Admitted solve jobs waiting for a scheduler worker, across all tenants."),
		WorkersBusy: r.Gauge("service_workers_busy",
			"Scheduler workers currently running a job."),
		DispatchSize: r.Histogram("service_batch_size",
			"Jobs per scheduler dispatch (always 1: jobs are dispatched singly).",
			[]float64{1}),
		RequestSeconds: r.Histogram("service_request_seconds",
			"End-to-end latency from admission to job completion, in seconds.",
			ExponentialBuckets(0.0001, 4, 10)),
		Admitted: r.Counter("service_tenant_admitted_total",
			"Solve jobs admitted past the per-tenant queue bound, summed over tenants."),
		Shed: r.Counter("service_tenant_shed_total",
			"Solve jobs shed by the overload policy instead of queuing unboundedly, summed over tenants."),
	}
}
