// Package telemetry is the dependency-free metrics substrate of the
// serving stack: a Registry of named counters, gauges and histograms
// that the gateway exposes in Prometheus text format at /metrics and as
// JSON at /debug/stats.
//
// Design constraints, in order:
//
//   - No dependencies beyond the standard library: the repository bakes
//     in no metrics client, and the measurement pipeline must stay
//     importable from every layer (device, profiler, trim, serve) without
//     a dependency cycle, so this package imports nothing from netcut.
//   - Hot-path writes are lock-free: Counter.Inc, Gauge.Set and
//     Histogram.Observe are single atomic operations, cheap enough to
//     sit on the planner's request path without showing up in profiles.
//   - Reads are consistent enough for operations, not transactions: a
//     scrape observes each series atomically but the set of series
//     mid-scrape, like every Prometheus exporter.
//   - Output order is deterministic (sorted by name), so scrapes diff
//     cleanly and the gateway's golden assertions can pin format.
//
// Sampled series: CounterFunc and GaugeFunc register callbacks read at
// scrape time, which is how the LRU cache layers surface their existing
// Stats counters without double-counting writes.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets, plus a running
// count and sum. Bounds are upper-inclusive bucket edges in ascending
// order; observations above the last bound land in the implicit +Inf
// bucket. All writes are atomic per field: a concurrent scrape may see a
// count that is ahead of the buckets by in-flight observations, which is
// the standard Prometheus histogram relaxation.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	// maxBits is the float64 bits of the largest observation that
	// landed in the +Inf bucket (0 until one does). Quantile reads it
	// so overflow mass reports a conservative finite value instead of
	// clamping to the last bound and underestimating.
	maxBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	if i == len(h.bounds) {
		// Overflow: track the max so quantiles landing here stay
		// honest. Latencies are non-negative, so the bit patterns
		// order like the floats and a CAS max loop suffices.
		for {
			old := h.maxBits.Load()
			if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
				break
			}
		}
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation inside the bucket containing it, the same estimate
// Prometheus's histogram_quantile computes. It returns 0 before any
// observation. The estimate is always finite: when the quantile lands
// in the +Inf bucket it reports the largest overflowed observation —
// conservative (an upper bound on the true quantile), so admission
// control that sheds against a latency quantile fails safe instead of
// underestimating a distribution that drifted past the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			hi := h.upper(i)
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if math.IsInf(hi, 1) {
				return h.overflowMax()
			}
			return lo + (hi-lo)*((rank-seen)/n)
		}
		seen += n
	}
	return h.bounds[len(h.bounds)-1]
}

// overflowMax is the largest observation that landed in the +Inf
// bucket, falling back to the last finite bound if a concurrent scrape
// races the max update (the count can momentarily lead the max).
func (h *Histogram) overflowMax() float64 {
	if m := math.Float64frombits(h.maxBits.Load()); m > h.bounds[len(h.bounds)-1] {
		return m
	}
	return h.bounds[len(h.bounds)-1]
}

// OverflowCount returns how many observations exceeded the last finite
// bound — the +Inf bucket's population, surfaced so operators can tell
// when a histogram's bucket layout no longer covers its distribution.
func (h *Histogram) OverflowCount() uint64 {
	return h.counts[len(h.bounds)].Load()
}

func (h *Histogram) upper(i int) float64 {
	if i < len(h.bounds) {
		return h.bounds[i]
	}
	return math.Inf(1)
}

// LatencyBuckets is the default bucket layout for latency-in-
// milliseconds histograms: 24 exponential edges from 10 µs to ~84 s.
func LatencyBuckets() []float64 {
	b := make([]float64, 24)
	v := 0.01
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// kind discriminates registered series for rendering.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

type series struct {
	kind        kind
	base        string // metric name without labels
	labels      string // rendered label pairs, without braces ("" = unlabeled)
	help        string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// A Label is one Prometheus label pair attached to a series. The
// multi-device planner pool registers one instance of each planner and
// cache series per target, distinguished by a device label.
type Label struct{ Key, Value string }

// renderLabels renders label pairs in the given order (no sorting: the
// caller picks a stable order, and series identity is the rendered
// string). Values are escaped per the Prometheus text format; ranging
// over the runes rewrites invalid UTF-8 to U+FFFD, so the exposition
// stays valid UTF-8 whatever a label value holds. The builder is sized
// once for the unescaped rendering, so a plain value never regrows it.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	n := 0
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + len(`,=""`)
	}
	var b strings.Builder
	b.Grow(n)
	for i, l := range labels {
		validName(l.Key)
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		for _, r := range l.Value {
			switch r {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteRune(r)
			}
		}
		b.WriteByte('"')
	}
	return b.String()
}

// Registry holds named metric series. The zero value is not usable; use
// NewRegistry. Registration is idempotent per (name, labels, kind):
// registering an existing series returns it, so independent layers can
// share one series without coordination. Registering a name that exists
// with a different kind panics — it is a wiring bug, not input.
type Registry struct {
	mu       sync.Mutex
	series   map[string]*series
	baseKind map[string]string // base name -> Prometheus exposition type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series), baseKind: make(map[string]string)}
}

func validName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for _, r := range name {
		if !(r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			panic(fmt.Sprintf("telemetry: metric name %q is not Prometheus-safe", name))
		}
	}
}

// promType maps a series kind to its Prometheus exposition type; a
// base name must keep one exposition type across all of its label sets.
func (k kind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// get returns the series under (name, labels), creating it if absent;
// init runs under the registry lock on both paths, so lazy instrument
// creation and callback replacement are atomic with respect to
// concurrent registration and scrapes.
func (r *Registry) get(name string, labels []Label, help string, k kind, init func(s *series)) *series {
	validName(name)
	ls := renderLabels(labels)
	key := name
	if ls != "" {
		key = name + "{" + ls + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if bk, ok := r.baseKind[name]; ok && bk != k.promType() {
		panic(fmt.Sprintf("telemetry: metric %q registered with exposition types %s and %s", name, bk, k.promType()))
	}
	r.baseKind[name] = k.promType()
	s, ok := r.series[key]
	if ok {
		if s.kind != k {
			panic(fmt.Sprintf("telemetry: metric %q registered twice with different kinds", key))
		}
	} else {
		s = &series{kind: k, base: name, labels: ls, help: help}
		r.series[key] = s
	}
	init(s)
	return s
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith is Counter with a label set attached to the series.
func (r *Registry) CounterWith(name, help string, labels []Label) *Counter {
	return r.get(name, labels, help, kindCounter, func(s *series) {
		if s.counter == nil {
			s.counter = &Counter{}
		}
	}).counter
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith is Gauge with a label set attached to the series.
func (r *Registry) GaugeWith(name, help string, labels []Label) *Gauge {
	return r.get(name, labels, help, kindGauge, func(s *series) {
		if s.gauge == nil {
			s.gauge = &Gauge{}
		}
	}).gauge
}

// Histogram registers (or returns the existing) histogram under name.
// bounds must be ascending; nil uses LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramWith(name, help, bounds, nil)
}

// HistogramWith is Histogram with a label set attached to the series.
func (r *Registry) HistogramWith(name, help string, bounds []float64, labels []Label) *Histogram {
	return r.get(name, labels, help, kindHistogram, func(s *series) {
		if s.hist != nil {
			return
		}
		if bounds == nil {
			bounds = LatencyBuckets()
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
			}
		}
		s.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}).hist
}

// CounterFunc registers a sampled monotonic counter: fn is called at
// scrape time. Registering an existing name replaces its callback (the
// newest owner wins; used when a layer is re-instrumented).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.CounterFuncWith(name, help, nil, fn)
}

// CounterFuncWith is CounterFunc with a label set attached.
func (r *Registry) CounterFuncWith(name, help string, labels []Label, fn func() uint64) {
	r.get(name, labels, help, kindCounterFunc, func(s *series) { s.counterFunc = fn })
}

// GaugeFunc registers a sampled gauge: fn is called at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeFuncWith(name, help, nil, fn)
}

// GaugeFuncWith is GaugeFunc with a label set attached.
func (r *Registry) GaugeFuncWith(name, help string, labels []Label, fn func() float64) {
	r.get(name, labels, help, kindGaugeFunc, func(s *series) { s.gaugeFunc = fn })
}

// sorted returns a (base, labels)-ordered snapshot of the series,
// copied by value under the lock so scrapes never observe a
// half-replaced callback. Ordering by base first keeps every label set
// of one metric adjacent, so the exposition writes one HELP/TYPE per
// metric family.
func (r *Registry) sorted() []struct {
	name string
	s    series
} {
	r.mu.Lock()
	out := make([]struct {
		name string
		s    series
	}, 0, len(r.series))
	for name, s := range r.series {
		out = append(out, struct {
			name string
			s    series
		}{name, *s})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].s.base != out[j].s.base {
			return out[i].s.base < out[j].s.base
		}
		return out[i].s.labels < out[j].s.labels
	})
	return out
}

// sample renders "name" or "name{labels}" for one series, with extra
// appended to the label set (the histogram bucket's le).
func (s *series) sample(suffix, extra string) string {
	ls := s.labels
	if extra != "" {
		if ls != "" {
			ls += ","
		}
		ls += extra
	}
	if ls == "" {
		return s.base + suffix
	}
	return s.base + suffix + "{" + ls + "}"
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every series in Prometheus text exposition
// format, ordered by (name, labels) with one HELP/TYPE line per metric
// family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	prevBase := ""
	for _, e := range r.sorted() {
		s := e.s
		if s.base != prevBase {
			prevBase = s.base
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.base, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.base, s.kind.promType())
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", s.sample("", ""), s.counter.Value())
		case kindCounterFunc:
			fmt.Fprintf(&b, "%s %d\n", s.sample("", ""), s.counterFunc())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", s.sample("", ""), fmtFloat(s.gauge.Value()))
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", s.sample("", ""), fmtFloat(s.gaugeFunc()))
		case kindHistogram:
			h := s.hist
			var cum uint64
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := "+Inf"
				if i < len(h.bounds) {
					le = fmtFloat(h.bounds[i])
				}
				fmt.Fprintf(&b, "%s %d\n", s.sample("_bucket", `le="`+le+`"`), cum)
			}
			fmt.Fprintf(&b, "%s %s\n", s.sample("_sum", ""), fmtFloat(h.Sum()))
			fmt.Fprintf(&b, "%s %d\n", s.sample("_count", ""), h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns every series as a JSON-marshalable map: counters and
// gauges map to numbers, histograms to {count, sum, p50, p90, p99}.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, e := range r.sorted() {
		name, s := e.name, e.s
		switch s.kind {
		case kindCounter:
			out[name] = s.counter.Value()
		case kindCounterFunc:
			out[name] = s.counterFunc()
		case kindGauge:
			out[name] = s.gauge.Value()
		case kindGaugeFunc:
			out[name] = s.gaugeFunc()
		case kindHistogram:
			h := s.hist
			out[name] = map[string]any{
				"count": h.Count(),
				"sum":   h.Sum(),
				"p50":   h.Quantile(0.50),
				"p90":   h.Quantile(0.90),
				"p99":   h.Quantile(0.99),
			}
		}
	}
	return out
}
