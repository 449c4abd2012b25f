// Package telemetry is a zero-dependency metrics and tracing substrate for
// the PRIMACY runtime: atomic counters and gauges, bounded histograms, and
// lightweight span hooks, collected in a Registry that can be snapshotted,
// dumped human-readably, or exposed in Prometheus text format.
//
// The package is built around a nil-safe no-op default so instrumentation
// costs nothing when disabled: a nil *Registry hands out nil metric handles,
// and every method on a nil handle returns immediately. Hot paths therefore
// pay one pointer nil check per event and never allocate — see the
// BenchmarkDisabled* guards. Handles are registered once (at enable time,
// not per event), so recording is a single atomic operation.
//
// Concurrency: all metric operations are safe for concurrent use. Snapshot
// and the writers read each atomic independently, so a snapshot taken while
// writers are running is per-metric consistent but not a global atomic cut —
// the usual contract for scrape-style telemetry.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. A nil *Counter no-ops.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge no-ops.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (use negative deltas to decrease). Deltas
// aggregate correctly when several subsystems share one gauge.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reports the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at registration,
// and tracks their sum and count. Memory is bounded by the bucket slice; no
// per-observation allocation ever happens. A nil *Histogram no-ops.
type Histogram struct {
	// bounds are ascending inclusive upper bounds; observations above the
	// last bound land in the implicit +Inf bucket.
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
	// max is the largest observation (float64 bits, CAS-updated, seeded
	// with -Inf). It bounds quantile estimates for the +Inf bucket, where
	// the bucket layout alone carries no upper-bound information.
	max atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.count.Add(1)
}

// Start opens a span whose End records the elapsed seconds into the
// histogram. On a nil histogram the span is inert and Start never reads the
// clock, so a disabled span costs one nil check.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// Span is a lightweight in-flight timing measurement (a value, never
// allocated). The zero Span is inert.
type Span struct {
	h     *Histogram
	start time.Time
}

// End records the span's elapsed wall time. Safe to call on the zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.start).Seconds())
}

// DefTimeBuckets is the default bucket layout for wall-time histograms:
// exponential from 10 µs to 10 s, matching the spread between a per-chunk
// preconditioner stage and an admission wait under load.
var DefTimeBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeVec
	kindHistogramVec
)

// metric is one registered entry.
type metric struct {
	name, help string
	kind       metricKind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	cvec       *CounterVec
	gvec       *GaugeVec
	hvec       *HistogramVec
}

// Registry holds named metrics. The zero value is ready to use; a nil
// *Registry is the disabled sink: it hands out nil handles from every
// registration method, and Snapshot returns an empty snapshot.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry { return &Registry{} }

// lookup returns the existing entry for name, or registers a new one built
// by mk. Registration is idempotent: re-registering a name returns the same
// handle, so enabling telemetry twice on one registry is harmless.
// Registering one name as two different kinds panics — a programming error
// surfaced at enable time, never on a hot path.
func (r *Registry) lookup(name, help string, kind metricKind, mk func(*metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]*metric)
	}
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic("telemetry: metric " + name + " re-registered with a different kind")
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	mk(m)
	r.byName[name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or finds) a counter. A nil registry returns nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge registers (or finds) a gauge. A nil registry returns nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// Histogram registers (or finds) a histogram with the given ascending bucket
// bounds (nil selects DefTimeBuckets). A nil registry returns nil.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefTimeBuckets
	}
	return r.lookup(name, help, kindHistogram, func(m *metric) {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		h.max.Store(math.Float64bits(math.Inf(-1)))
		m.hist = h
	}).hist
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name, Help string
	Value      int64
}

// GaugeValue is one gauge in a Snapshot.
type GaugeValue struct {
	Name, Help string
	Value      int64
}

// HistogramValue is one histogram in a Snapshot. Counts are per-bucket (not
// cumulative); Counts[len(Bounds)] is the +Inf bucket.
type HistogramValue struct {
	Name, Help string
	Count      int64
	Sum        float64
	// Max is the largest observation (0 for an empty histogram). It is the
	// only upper-bound information available for the +Inf bucket.
	Max    float64
	Bounds []float64
	Counts []int64
}

// Mean reports Sum/Count, or 0 for an empty histogram.
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// within the owning bucket. Quantiles that land in the +Inf overflow bucket
// report the observed maximum (clamped below by the last finite bound)
// rather than extrapolating from the last finite bound — on overflow-heavy
// data the bucket layout carries no upper-bound information, and reporting
// the last finite bound would understate p99 arbitrarily. Estimates from
// finite buckets are clamped above by the observed maximum, so a
// single-observation histogram never reports a p99 past the value it
// actually saw. Returns 0 for an empty histogram.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	lower := 0.0
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if i >= len(h.Bounds) {
				return h.overflowQuantile()
			}
			frac := (rank - cum) / float64(c)
			return h.clampToMax(lower + frac*(h.Bounds[i]-lower))
		}
		cum = next
		if i < len(h.Bounds) {
			lower = h.Bounds[i]
		}
	}
	// Rounding pushed rank past the cumulative total; report the histogram's
	// upper edge.
	if h.Counts[len(h.Counts)-1] > 0 {
		return h.overflowQuantile()
	}
	return h.clampToMax(h.Bounds[len(h.Bounds)-1])
}

// clampToMax bounds a within-bucket interpolation by the observed maximum:
// the bucket's upper edge can exceed every observation (a single value of 5
// in a (1,10] bucket must not yield p100 = 10). Max is unset (0) only for
// empty histograms or snapshots of pre-Max data; those pass through.
func (h HistogramValue) clampToMax(v float64) float64 {
	if h.Max > 0 && v > h.Max {
		return h.Max
	}
	return v
}

// overflowQuantile is the value reported for quantiles owned by the +Inf
// bucket: the observed maximum, never below the last finite bound.
func (h HistogramValue) overflowQuantile() float64 {
	last := h.Bounds[len(h.Bounds)-1]
	if h.Max > last {
		return h.Max
	}
	return last
}

// Snapshot is a point-in-time copy of every registered metric, each group
// sorted by name (labeled groups by name then label values).
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue

	LabeledCounters   []LabeledCounterValue
	LabeledGauges     []LabeledGaugeValue
	LabeledHistograms []LabeledHistogramValue
}

// Counter finds a counter value by name (0, false when absent).
func (s Snapshot) Counter(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge finds a gauge value by name (0, false when absent).
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram finds a histogram value by name.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Snapshot copies out every metric. Safe to call concurrently with writers;
// see the package comment for the consistency contract. A nil registry
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	for _, m := range metrics {
		switch m.kind {
		case kindCounter:
			snap.Counters = append(snap.Counters, CounterValue{m.name, m.help, m.counter.Value()})
		case kindGauge:
			snap.Gauges = append(snap.Gauges, GaugeValue{m.name, m.help, m.gauge.Value()})
		case kindHistogram:
			snap.Histograms = append(snap.Histograms, histValue(m.name, m.help, m.hist))
		case kindCounterVec:
			v := m.cvec.v
			for _, c := range v.snapshotChildren() {
				snap.LabeledCounters = append(snap.LabeledCounters, LabeledCounterValue{
					Name: m.name, Help: m.help, Labels: v.labelPairs(c), Value: c.counter.Value(),
				})
			}
		case kindGaugeVec:
			v := m.gvec.v
			for _, c := range v.snapshotChildren() {
				snap.LabeledGauges = append(snap.LabeledGauges, LabeledGaugeValue{
					Name: m.name, Help: m.help, Labels: v.labelPairs(c), Value: c.gauge.Value(),
				})
			}
		case kindHistogramVec:
			v := m.hvec.v
			for _, c := range v.snapshotChildren() {
				snap.LabeledHistograms = append(snap.LabeledHistograms, LabeledHistogramValue{
					Labels:         v.labelPairs(c),
					HistogramValue: histValue(m.name, m.help, c.hist),
				})
			}
		}
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	sortLabeledCounters(snap.LabeledCounters)
	sortLabeledGauges(snap.LabeledGauges)
	sortLabeledHistograms(snap.LabeledHistograms)
	return snap
}

// histValue copies one histogram's live state into a snapshot value.
func histValue(name, help string, h *Histogram) HistogramValue {
	hv := HistogramValue{
		Name:   name,
		Help:   help,
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	if max := math.Float64frombits(h.max.Load()); hv.Count > 0 && !math.IsInf(max, -1) {
		hv.Max = max
	}
	for i := range h.counts {
		hv.Counts[i] = h.counts[i].Load()
	}
	return hv
}
