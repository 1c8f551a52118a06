// Package good registers metrics that follow the fel_<layer>_<name> schema.
package good

import "metricschema/good/internal/metrics"

func Register(r *metrics.Registry) float64 {
	r.Counter("fel_core_rounds_total")
	r.Counter("fel_fednode_uploads_total", metrics.L("client", "c1"), metrics.L("group", "g1"))
	r.Gauge("fel_net_queue_depth", 1)
	r.Counter("fel_serve_rounds_total")
	r.Counter("fel_serve_checkpoints_quarantined_total")
	r.Counter("fel_serve_subscribers_rejected_total", metrics.L("reason", "busy"))
	r.Gauge("fel_serve_active_jobs", 1)
	r.Histogram("fel_secagg_share_bytes", 32)
	r.Histogram("fel_fednode_staleness", 1)
	r.Counter("fel_wire_carryover_total")
	r.Gauge("fel_faultnet_round_ticks", 12)
	stop := r.Start("fel_core_round_seconds")
	stop()
	// Dynamic names are the registry's runtime problem, not the linter's.
	r.Gauge(dynamicName(), 1)
	return r.CounterValue("fel_core_rounds_total")
}

func dynamicName() string { return "fel_faultnet_active_faults" }
