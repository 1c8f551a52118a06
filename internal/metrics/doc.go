// Package metrics is the repository's observability substrate: a
// stdlib-only, race-safe registry of counters, gauges, and fixed-bucket
// histograms, plus timed phase spans layered on the histograms. It exists
// so every evaluation claim that is really a cost claim — bytes on the
// wire, secure-aggregation work, per-phase wall time, sampling frequency —
// can be read off a live run instead of reconstructed after the fact.
//
// # Instruments
//
// Counter is a monotone integer (Add/Inc), Gauge an instantaneous float
// (Set/Add), Histogram a distribution over fixed log-spaced buckets
// ({1, 2.5, 5}×10^e for e in [−7, 2]). A Span is a histogram observation
// of elapsed seconds:
//
//	span := reg.Start("fel_core_eval_seconds")
//	... the phase ...
//	span.End()
//
// A span on a per-round path opens on its histogram, looked up once:
// evalHist := reg.Histogram("fel_core_eval_seconds"), then
// evalHist.Start() each round.
//
// Every instrument is addressed by a name plus an optional label set:
//
//	reg.Counter("fel_core_group_selected_total", metrics.L("group", "3")).Inc()
//
// Names follow the repo-wide schema fel_<layer>_<name>{label=...} (layers:
// core, net, wire, fednode, secagg); the registry panics on names outside
// it. Labels are sorted into a canonical order, so the argument order at a
// call site never creates a second series.
//
// # Determinism contract
//
// Snapshot renders the whole registry in the Prometheus text exposition
// format with fully sorted keys. Under a fixed seed, every counter and
// gauge — and every histogram's observation *count* — is a pure function
// of the run, so two seeded runs produce byte-identical snapshots once
// MaskTimings strips the timing-valued lines (_seconds bucket and sum
// series). Tests in internal/core and internal/fednode assert exactly
// that; keep new metrics on the deterministic side of the mask (counts,
// not durations) unless they end in _seconds.
//
// # Exposure
//
// Three surfaces, all fed by the same registry: Snapshot/Table for text
// artifacts (internal/trace), JSON for cmd/felbench result files, and
// Handler — /metrics, /debug/vars (expvar), /debug/pprof — mounted by
// cmd/felnode behind its -metrics flag.
//
// A nil *Registry is a valid no-op sink: every method returns a shared
// discard instrument, so instrumented code paths (core.Train, the fednode
// protocol loops) carry no "is metrics enabled" branches.
package metrics
