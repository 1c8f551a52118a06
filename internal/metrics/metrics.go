package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Label is one key=value dimension attached to a metric. Label sets are
// canonicalized (sorted by key), so two call sites naming the same labels
// in different orders share one series.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates the three instrument families of a registry.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// Registry is a race-safe collection of named instruments. Use New; the
// zero value is not usable. A nil *Registry is a valid no-op sink: every
// lookup returns a shared discard instrument, so instrumented code never
// branches on whether metrics are enabled.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	now      func() time.Time
}

// family holds every series of one metric name; exactly one of the three
// maps is populated, matching kind.
type family struct {
	kind     kind
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry whose spans read wall-clock time.
func New() *Registry { return NewWithClock(clock.Real.Now) }

// NewWithClock returns a registry whose spans read time from now — tests
// inject a fake clock to make span histograms deterministic.
func NewWithClock(now func() time.Time) *Registry {
	if now == nil {
		panic("metrics: nil clock")
	}
	return &Registry{families: make(map[string]*family), now: now}
}

// Discard instruments back every nil-registry lookup: writes land in
// shared sinks nobody reads, so instrumentation sites stay branch-free.
var (
	discardCounter Counter
	discardGauge   Gauge
	discardHist    = newHistogram()
)

// Counter returns (registering on first use) the counter name{labels}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return &discardCounter
	}
	checkName(name)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, kindCounter)
	c := f.counters[key]
	if c == nil {
		c = &Counter{}
		f.counters[key] = c
	}
	return c
}

// Gauge returns (registering on first use) the gauge name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return &discardGauge
	}
	checkName(name)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, kindGauge)
	g := f.gauges[key]
	if g == nil {
		g = &Gauge{}
		f.gauges[key] = g
	}
	return g
}

// Histogram returns (registering on first use) the histogram name{labels}.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return discardHist
	}
	checkName(name)
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, kindHistogram)
	h := f.hists[key]
	if h == nil {
		h = newHistogram()
		if strings.HasSuffix(name, "_seconds") {
			h.now = r.now
		}
		f.hists[key] = h
	}
	return h
}

// Start opens a timed phase span on the histogram name{labels}: a lookup,
// then Histogram.Start. name must end in "_seconds" so MaskTimings can
// identify timing-valued series. A span opened every round looks its
// histogram up once and opens on that handle instead:
//
//	roundHist := reg.Histogram("fel_fednode_round_seconds", metrics.L("role", "cloud"))
//	span := roundHist.Start()
//	... the phase ...
//	span.End()
func (r *Registry) Start(name string, labels ...Label) Span {
	if r == nil {
		return Span{}
	}
	if !strings.HasSuffix(name, "_seconds") {
		panic("metrics: span name " + strconv.Quote(name) + " must end in _seconds")
	}
	return r.Histogram(name, labels...).Start()
}

// CounterValue reads a counter without registering it; absent series read
// as 0. Intended for tests and report plumbing.
func (r *Registry) CounterValue(name string, labels ...Label) int64 {
	if r == nil {
		return 0
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || f.kind != kindCounter || f.counters[key] == nil {
		return 0
	}
	return f.counters[key].Value()
}

// GaugeValue reads a gauge without registering it; absent series read as 0.
func (r *Registry) GaugeValue(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil || f.kind != kindGauge || f.gauges[key] == nil {
		return 0
	}
	return f.gauges[key].Value()
}

// family finds or creates the family for name, enforcing kind stability.
// Callers hold r.mu.
func (r *Registry) family(name string, k kind) *family {
	f := r.families[name]
	if f == nil {
		f = &family{kind: k}
		switch k {
		case kindCounter:
			f.counters = make(map[string]*Counter)
		case kindGauge:
			f.gauges = make(map[string]*Gauge)
		default:
			f.hists = make(map[string]*Histogram)
		}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic("metrics: " + name + " already registered as a " + f.kind.String() + ", requested as a " + k.String())
	}
	return f
}

// Counter is a monotonically non-decreasing integer; increments are
// lock-free and safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: counter decremented by " + strconv.FormatInt(delta, 10))
	}
	c.v.Add(delta)
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value; Set is last-writer-wins.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop, safe under contention).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// bucketBounds returns the fixed log-spaced bucket upper bounds shared by
// every histogram: {1, 2.5, 5}×10^e for e in [−7, 2] — observing seconds,
// that spans 100ns to 500s. Bounds are never derived from data, so
// snapshot *shape* is identical across runs and machines; only the
// per-bucket counts depend on what was observed.
func bucketBounds() []float64 {
	bounds := make([]float64, 0, 30)
	for e := -7; e <= 2; e++ {
		p := math.Pow(10, float64(e))
		bounds = append(bounds, p, 2.5*p, 5*p)
	}
	return bounds
}

var defaultBounds = bucketBounds()

// Histogram accumulates observations into the fixed log-spaced buckets,
// tracking the exact sum and count alongside.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; the final bucket is +Inf
	sum    float64
	n      int64
	// now is the registry's clock on a _seconds histogram, which spans may
	// open on; nil on every other histogram.
	now func() time.Time
}

func newHistogram() *Histogram {
	return &Histogram{bounds: defaultBounds, counts: make([]int64, len(defaultBounds)+1)}
}

// Observe records one value into the bucket whose upper bound is the
// smallest bound >= v (Prometheus le semantics).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// read returns a consistent copy of the histogram state.
func (h *Histogram) read() (counts []int64, sum float64, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...), h.sum, h.n
}

// Start opens a timed phase span on h, a _seconds histogram, reading the
// registry's clock: no name check, no label rendering, no lookup. On the
// nil registry's discard histogram it returns the zero Span and reads no
// clock.
func (h *Histogram) Start() Span {
	if h == discardHist {
		return Span{}
	}
	if h.now == nil {
		panic("metrics: span on a histogram whose name does not end in _seconds")
	}
	return Span{h: h, start: h.now()}
}

// Span is one timed phase opened by Histogram.Start or Registry.Start; End
// records the elapsed seconds. The zero Span (from a nil registry) is a
// no-op.
type Span struct {
	h     *Histogram
	start time.Time
}

// End closes the span, observing its duration in seconds.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(s.h.now().Sub(s.start).Seconds())
}

// checkName enforces the repo-wide schema fel_<layer>_<name>: a "fel_"
// prefix and [a-z0-9_] throughout, so snapshots sort and diff cleanly
// under one namespace.
func checkName(name string) {
	if !validName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name) + " (want fel_<layer>_<name>, chars [a-z0-9_])")
	}
}

func validName(name string) bool {
	if !strings.HasPrefix(name, "fel_") || strings.HasSuffix(name, "_") {
		return false
	}
	for _, c := range name {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

func checkLabelKey(key string) {
	if key == "" {
		panic("metrics: empty label key")
	}
	for _, c := range key {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			panic("metrics: invalid label key " + strconv.Quote(key) + " (chars [a-z0-9_])")
		}
	}
}

// labelKey renders labels as the canonical `{k="v",...}` series suffix:
// keys sorted, values escaped, the empty set rendered as "".
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Key != ls[j].Key {
			return ls[i].Key < ls[j].Key
		}
		return ls[i].Value < ls[j].Value
	})
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		checkLabelKey(l.Key)
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}
