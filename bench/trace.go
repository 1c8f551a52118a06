package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// span is one timed call into a layer, recorded by the harness around the
// call site (the program itself carries no spans yet). Parent is the id of
// the span that caused it, -1 at the root; all spans of one run share the
// workload id.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so the workloads call it
// unconditionally and the untraced path pays one nil check per call.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span under parent and returns its id (-1 when untraced).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: now, EndNs: -1})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// total returns the summed duration in seconds of every closed span named
// name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := int64(0)
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= 0 {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans}
	blob, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), blob, 0o644)
}

// registry returns a fresh metrics registry for a traced run and nil for an
// untraced one, which is how "registries attached only when tracing" is
// spelled at every call site.
func (t *tracer) registry() *metrics.Registry {
	if t == nil {
		return nil
	}
	return metrics.New()
}

// histogram is one series of a registry's JSON dump: count, exact sum, and
// cumulative counts keyed by the le bound of every non-empty bucket.
type histogram struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"`
}

// regDump is the decoded Registry.JSON document — the only way to read
// histograms from outside internal/metrics.
type regDump struct {
	Counters   map[string]int64     `json:"counters"`
	Histograms map[string]histogram `json:"histograms"`
}

func dumpRegistry(reg *metrics.Registry) (regDump, error) {
	var d regDump
	blob, err := reg.JSON()
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(blob, &d); err != nil {
		return d, fmt.Errorf("bench: registry dump: %w", err)
	}
	return d, nil
}

// seriesOf reports whether key is the family name bare or with labels.
func seriesOf(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

// histSum adds the sums and counts of every series of the histogram family.
func (d regDump) histSum(name string) (sum float64, n int64) {
	keys := make([]string, 0, len(d.Histograms))
	for key := range d.Histograms {
		if seriesOf(key, name) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		sum += d.Histograms[key].Sum
		n += d.Histograms[key].Count
	}
	return sum, n
}

// histQuantile estimates the q-quantile of one histogram series from its
// log-spaced buckets, interpolating geometrically inside the bucket the
// rank falls into. Bounds are 1-2.5-5 per decade, so the estimate is good to
// a few tens of percent — enough to see a tail move, not to gate on.
func (d regDump) histQuantile(series string, q float64) float64 {
	h, ok := d.Histograms[series]
	if !ok || h.Count == 0 {
		return 0
	}
	type bucket struct {
		le  float64
		cum int64
	}
	var bs []bucket
	for le, cum := range h.Buckets {
		if bound, err := strconv.ParseFloat(le, 64); err == nil { // "+Inf" parses too
			bs = append(bs, bucket{bound, cum})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * float64(h.Count)
	prev := int64(0)
	for _, b := range bs {
		if float64(b.cum) >= rank && !math.IsInf(b.le, 1) {
			// The bucket below le starts at the previous bound of the
			// ladder: le/2.5 for 2.5·10^e, le/2 for 10^e and 5·10^e.
			lo := b.le / 2
			if m := b.le / math.Pow(10, math.Floor(math.Log10(b.le))); m > 2.4 && m < 2.6 {
				lo = b.le / 2.5
			}
			frac := (rank - float64(prev)) / float64(b.cum-prev)
			return lo * math.Pow(b.le/lo, frac)
		}
		prev = b.cum
	}
	return bs[len(bs)-1].le
}
