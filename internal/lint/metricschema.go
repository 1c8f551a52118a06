package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MetricSchema validates every literal metric name handed to the
// internal/metrics registry against the schema PR 3 enforces at runtime:
// names match fel_<layer>_<name> with a layer from the known set, use only
// [a-z0-9_], never end in '_', counters end in _total, and Start spans end
// in _seconds. The registry's own check (metrics.validName) sees the prefix
// and the characters but neither the layer nor the suffix, so a misspelled
// layer or a drifting suffix fails here or nowhere. Label order needs no
// rule: the registry sorts every label set before it names a series.
var MetricSchema = &Analyzer{
	Name: "metric-schema",
	Doc:  "literal metric names must match fel_<layer>_<name> with a known layer and canonical suffixes",
	Run:  runMetricSchema,
}

// metricLayers are the architectural layers allowed in metric names,
// mirroring the package structure: core training, wire codec, simulated
// network, federation node, secure aggregation, fault injection, the
// felserve serving layer (fel_serve_* covers the service-level schema,
// incl. Recover's fel_serve_checkpoints_quarantined_total, and the per-job
// fel_serve_job_* streams), and the buffered-async
// aggregation layer (fel_async_* staleness/buffer/clock instrumentation).
var metricLayers = map[string]bool{
	"core": true, "wire": true, "net": true,
	"fednode": true, "secagg": true, "faultnet": true,
	"serve": true, "async": true,
}

// registryMethods maps internal/metrics Registry methods to the suffix rule
// class they imply for the name argument.
var registryMethods = map[string]string{
	"Counter":      "counter",
	"CounterValue": "counter",
	"Gauge":        "gauge",
	"Histogram":    "histogram",
	"Start":        "span",
	"GaugeValue":   "gauge",
}

func runMetricSchema(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, isRegistryMethod := registryMethods[sel.Sel.Name]
			if !isRegistryMethod {
				return true
			}
			fn, ok := pass.UseOf(sel.Sel).(*types.Func)
			if !ok || !declaredInMetrics(fn) {
				return true
			}
			name, ok := constStringValue(pass, call.Args[0])
			if !ok {
				return true // dynamic names are the registry's runtime problem
			}
			checkMetricName(pass, call.Args[0].Pos(), name, kind)
			return true
		})
	}
}

// declaredInMetrics reports whether fn belongs to the module's
// internal/metrics package.
func declaredInMetrics(fn *types.Func) bool {
	p := fn.Pkg()
	return p != nil && strings.HasSuffix(p.Path(), "internal/metrics")
}

func checkMetricName(pass *Pass, pos token.Pos, name, kind string) {
	if !strings.HasPrefix(name, "fel_") {
		pass.Reportf(pos, "metric name %q must start with fel_ (schema: fel_<layer>_<name>)", name)
		return
	}
	for _, r := range name {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' {
			pass.Reportf(pos, "metric name %q contains %q; only [a-z0-9_] is allowed", name, string(r))
			return
		}
	}
	if strings.HasSuffix(name, "_") {
		pass.Reportf(pos, "metric name %q must not end with '_'", name)
		return
	}
	rest := strings.TrimPrefix(name, "fel_")
	layer, _, ok := strings.Cut(rest, "_")
	if !ok || !metricLayers[layer] {
		layers := make([]string, 0, len(metricLayers))
		for l := range metricLayers {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		pass.Reportf(pos, "metric name %q has unknown layer %q; known layers: %s (schema: fel_<layer>_<name>)", name, layer, strings.Join(layers, ", "))
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter metric %q must end in _total", name)
		}
	case "span":
		if !strings.HasSuffix(name, "_seconds") {
			pass.Reportf(pos, "span metric %q must end in _seconds (Start measures durations)", name)
		}
	case "gauge", "histogram":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "%s metric %q must not end in _total (reserved for counters)", kind, name)
		}
	}
}
