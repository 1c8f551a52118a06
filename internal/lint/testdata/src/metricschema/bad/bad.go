// Package bad registers metrics that violate the fel_<layer>_<name> schema.
package bad

import "metricschema/bad/internal/metrics"

func Register(r *metrics.Registry) {
	r.Counter("requests_total")        // want "must start with fel_"
	r.Counter("fel_core_steps")        // want "must end in _total"
	r.Gauge("fel_mystery_depth", 1)    // want "unknown layer"
	r.Gauge("fel_core_queue_total", 1) // want "must not end in _total"
	r.Histogram("fel_core_Loss", 0.5)  // want "only [a-z0-9_] is allowed"
	r.Counter("fel_core_rounds_")      // want "must not end with '_'"
	stop := r.Start("fel_core_train_total") // want "must end in _seconds"
	stop()
	r.Counter("fel_fednode_folds")       // want "must end in _total"
	r.Histogram("fel_secagg_late_total", 1) // want "must not end in _total"
	r.Counter("fel_async_folds_total")  // want "unknown layer"
}
