package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// Snapshot renders every instrument in the Prometheus text exposition
// format with fully deterministic ordering: families sorted by name,
// series sorted by canonical label key. Histograms emit cumulative le
// buckets plus _sum and _count. Under a fixed seed, everything except the
// timing-valued histogram lines is a pure function of the run; see
// MaskTimings. A nil registry snapshots to "".
func (r *Registry) Snapshot() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range sortedKeys(r.families) {
		f := r.families[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.kind)
		switch f.kind {
		case kindCounter:
			for _, key := range sortedKeys(f.counters) {
				fmt.Fprintf(&b, "%s%s %d\n", name, key, f.counters[key].Value())
			}
		case kindGauge:
			for _, key := range sortedKeys(f.gauges) {
				fmt.Fprintf(&b, "%s%s %s\n", name, key, formatFloat(f.gauges[key].Value()))
			}
		default:
			for _, key := range sortedKeys(f.hists) {
				writeHistogram(&b, name, key, f.hists[key])
			}
		}
	}
	return b.String()
}

// MaskTimings removes the timing-dependent lines of a snapshot — the
// _seconds histograms' bucket and sum series — while keeping their _count
// series: how many spans ran is seed-deterministic, how long they took is
// not. Two runs with the same seed must produce byte-identical masked
// snapshots; internal/core and internal/fednode tests assert exactly that.
func MaskTimings(snapshot string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(snapshot, "\n") {
		if timingLine(line) {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// timingLine reports whether a snapshot line carries a wall-clock-valued
// sample of a _seconds histogram.
func timingLine(line string) bool {
	name := line
	if i := strings.IndexAny(name, "{ "); i >= 0 {
		name = name[:i]
	}
	return strings.HasSuffix(name, "_seconds_bucket") || strings.HasSuffix(name, "_seconds_sum")
}

// histogramJSON is the JSON shape of one histogram series; Buckets maps
// each non-empty le bound to its cumulative count.
type histogramJSON struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// JSON renders the registry as an indented JSON document with three
// top-level sections (counters, gauges, histograms) keyed by the same
// name{labels} series identifiers as Snapshot. encoding/json sorts map
// keys, so the document is deterministic given deterministic values. JSON
// has no number for a gauge that is not finite (fel_core_gamma_p reads +Inf
// when a p_g underflows to 0), so such a gauge is written as its exposition-format string: "+Inf",
// "-Inf" or "NaN". cmd/felbench writes this next to each experiment's CSV
// artifact.
func (r *Registry) JSON() ([]byte, error) {
	if r == nil {
		return []byte("{}"), nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := map[string]int64{}
	gauges := map[string]any{}
	hists := map[string]histogramJSON{}
	for name, f := range r.families {
		switch f.kind {
		case kindCounter:
			for key, c := range f.counters {
				counters[name+key] = c.Value()
			}
		case kindGauge:
			for key, g := range f.gauges {
				if v := g.Value(); math.IsInf(v, 0) || math.IsNaN(v) {
					gauges[name+key] = formatFloat(v)
				} else {
					gauges[name+key] = v
				}
			}
		default:
			for key, h := range f.hists {
				counts, sum, n := h.read()
				buckets := map[string]int64{}
				cum := int64(0)
				for i, bound := range h.bounds {
					cum += counts[i]
					if counts[i] != 0 {
						buckets[formatFloat(bound)] = cum
					}
				}
				if counts[len(counts)-1] != 0 {
					buckets["+Inf"] = n
				}
				hists[name+key] = histogramJSON{Count: n, Sum: sum, Buckets: buckets}
			}
		}
	}
	return json.MarshalIndent(map[string]any{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}, "", "  ")
}

// Table renders the scalar view of the registry as a trace.Table: one row
// per counter and gauge series, histograms reduced to their _count and
// _sum. Rows follow snapshot order, so the table is deterministic too.
func (r *Registry) Table(id, title string) *trace.Table {
	t := &trace.Table{ID: id, Title: title, Header: []string{"metric", "value"}}
	if r == nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedKeys(r.families) {
		f := r.families[name]
		switch f.kind {
		case kindCounter:
			for _, key := range sortedKeys(f.counters) {
				t.AddRow(name+key, strconv.FormatInt(f.counters[key].Value(), 10))
			}
		case kindGauge:
			for _, key := range sortedKeys(f.gauges) {
				t.AddRow(name+key, formatFloat(f.gauges[key].Value()))
			}
		default:
			for _, key := range sortedKeys(f.hists) {
				_, sum, n := f.hists[key].read()
				t.AddRow(name+"_count"+key, strconv.FormatInt(n, 10))
				t.AddRow(name+"_sum"+key, formatFloat(sum))
			}
		}
	}
	return t
}

// writeHistogram emits one histogram series in exposition format.
func writeHistogram(b *strings.Builder, name, key string, h *Histogram) {
	counts, sum, n := h.read()
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(key, formatFloat(bound)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(key, "+Inf"), n)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, key, formatFloat(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, n)
}

// withLE appends the le label to a rendered label key.
func withLE(key, le string) string {
	if key == "" {
		return `{le="` + le + `"}`
	}
	return key[:len(key)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
