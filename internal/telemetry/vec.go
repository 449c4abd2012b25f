package telemetry

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled metric vectors: families of Counter/Gauge/Histogram children keyed
// by a tuple of label values, in the style of Prometheus client vectors but
// with two hard bounds a multi-tenant server needs:
//
//   - per-label value interning is capped (DefMaxLabelValues distinct values
//     per label name); further values collapse into the reserved OverflowLabel
//     ("other") so an attacker spraying tenant names cannot grow the registry
//     without bound;
//   - the total child count is capped (DefMaxChildren); past it, new label
//     tuples all land in the single all-"other" child.
//
// Like the unlabeled types, vectors are nil-safe: a nil registry hands out
// nil vectors, and With on a nil vector returns a nil child handle, so the
// disabled instrumentation path costs one nil check and zero allocations.
// With on an enabled vector takes a mutex and may allocate (key building) —
// vectors are for request-scoped series, not per-chunk hot loops, which keep
// using the unlabeled handles.

// OverflowLabel is the reserved label value absorbing children past the
// cardinality bounds. A caller-supplied value equal to it shares the bucket.
const OverflowLabel = "other"

// Cardinality bounds of every vector. DefMaxLabelValues bounds distinct
// values per label name; DefMaxChildren bounds total children per vector.
const (
	DefMaxLabelValues = 64
	DefMaxChildren    = 1024
)

// vec is the label-routing core shared by the three vector kinds. mk builds
// one child's metric when a new label tuple is admitted.
type vec struct {
	labels []string

	mu       sync.Mutex
	seen     []map[string]struct{} // per-label interned values
	children map[string]*vecChild  // by canonical key
	ordered  []*vecChild           // creation order, for snapshots
}

type vecChild struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

func newVec(labels []string) *vec {
	v := &vec{
		labels:   append([]string(nil), labels...),
		seen:     make([]map[string]struct{}, len(labels)),
		children: make(map[string]*vecChild),
	}
	for i := range v.seen {
		v.seen[i] = make(map[string]struct{})
	}
	return v
}

// canon interns one label value (lock held): known values pass through, new
// values are admitted until the per-label cap, then collapse to "other".
func (v *vec) canon(i int, val string) string {
	if _, ok := v.seen[i][val]; ok {
		return val
	}
	if len(v.seen[i]) >= DefMaxLabelValues {
		return OverflowLabel
	}
	v.seen[i][val] = struct{}{}
	return val
}

// childFor resolves the child for a label tuple, creating it if the bounds
// admit one more. mk populates the new child's metric handle.
func (v *vec) childFor(values []string, mk func(*vecChild)) *vecChild {
	if len(values) != len(v.labels) {
		panic("telemetry: label value count does not match vector labels")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	canon := make([]string, len(values))
	for i, val := range values {
		canon[i] = v.canon(i, val)
	}
	key := joinKey(canon)
	if c, ok := v.children[key]; ok {
		return c
	}
	if len(v.children) >= DefMaxChildren {
		// Route to the all-"other" child instead of growing further.
		for i := range canon {
			canon[i] = OverflowLabel
		}
		key = joinKey(canon)
		if c, ok := v.children[key]; ok {
			return c
		}
	}
	c := &vecChild{values: canon}
	mk(c)
	v.children[key] = c
	v.ordered = append(v.ordered, c)
	return c
}

// joinKey builds a collision-free map key from label values (length-prefixed
// so values containing separators cannot alias).
func joinKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// snapshotChildren copies the children in creation order (lock held briefly).
func (v *vec) snapshotChildren() []*vecChild {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*vecChild, len(v.ordered))
	copy(out, v.ordered)
	return out
}

// CounterVec is a family of counters keyed by label values. A nil
// *CounterVec hands out nil children.
type CounterVec struct {
	v *vec
}

// With returns the counter for the given label values (one per label, in
// registration order), creating it within the cardinality bounds. A nil
// vector returns a nil (no-op) counter.
func (c *CounterVec) With(values ...string) *Counter {
	if c == nil {
		return nil
	}
	return c.v.childFor(values, func(ch *vecChild) { ch.counter = &Counter{} }).counter
}

// GaugeVec is a family of gauges keyed by label values. A nil *GaugeVec
// hands out nil children.
type GaugeVec struct {
	v *vec
}

// With returns the gauge for the given label values. A nil vector returns a
// nil (no-op) gauge.
func (g *GaugeVec) With(values ...string) *Gauge {
	if g == nil {
		return nil
	}
	return g.v.childFor(values, func(ch *vecChild) { ch.gauge = &Gauge{} }).gauge
}

// HistogramVec is a family of histograms keyed by label values, sharing one
// bucket layout. A nil *HistogramVec hands out nil children.
type HistogramVec struct {
	v      *vec
	bounds []float64
}

// With returns the histogram for the given label values. A nil vector
// returns a nil (no-op) histogram.
func (h *HistogramVec) With(values ...string) *Histogram {
	if h == nil {
		return nil
	}
	return h.v.childFor(values, func(ch *vecChild) {
		hist := &Histogram{bounds: h.bounds, counts: make([]atomic.Int64, len(h.bounds)+1)}
		hist.max.Store(math.Float64bits(math.Inf(-1)))
		ch.hist = hist
	}).hist
}

// CounterVec registers (or finds) a labeled counter family. A nil registry
// returns nil.
func (r *Registry) CounterVec(name, help string, labels []string) *CounterVec {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounterVec, func(m *metric) {
		m.cvec = &CounterVec{v: newVec(labels)}
	}).cvec
}

// GaugeVec registers (or finds) a labeled gauge family. A nil registry
// returns nil.
func (r *Registry) GaugeVec(name, help string, labels []string) *GaugeVec {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGaugeVec, func(m *metric) {
		m.gvec = &GaugeVec{v: newVec(labels)}
	}).gvec
}

// HistogramVec registers (or finds) a labeled histogram family (nil bucket
// bounds select DefTimeBuckets). A nil registry returns nil.
func (r *Registry) HistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefTimeBuckets
	}
	bb := make([]float64, len(bounds))
	copy(bb, bounds)
	return r.lookup(name, help, kindHistogramVec, func(m *metric) {
		m.hvec = &HistogramVec{v: newVec(labels), bounds: bb}
	}).hvec
}

// LabelPair is one name=value label on a vector child.
type LabelPair struct {
	Name, Value string
}

// LabeledCounterValue is one counter-vector child in a Snapshot.
type LabeledCounterValue struct {
	Name, Help string
	Labels     []LabelPair
	Value      int64
}

// LabeledGaugeValue is one gauge-vector child in a Snapshot.
type LabeledGaugeValue struct {
	Name, Help string
	Labels     []LabelPair
	Value      int64
}

// LabeledHistogramValue is one histogram-vector child in a Snapshot.
type LabeledHistogramValue struct {
	Labels []LabelPair
	HistogramValue
}

// labelPairs builds the snapshot label set for a child.
func (v *vec) labelPairs(c *vecChild) []LabelPair {
	out := make([]LabelPair, len(v.labels))
	for i, n := range v.labels {
		out[i] = LabelPair{Name: n, Value: c.values[i]}
	}
	return out
}

// LabeledCounterSum sums every child of a labeled counter family whose
// labels match all of the given pairs (an empty filter sums the family).
func (s Snapshot) LabeledCounterSum(name string, match ...LabelPair) int64 {
	var sum int64
	for _, c := range s.LabeledCounters {
		if c.Name != name || !labelsMatch(c.Labels, match) {
			continue
		}
		sum += c.Value
	}
	return sum
}

func labelsMatch(have []LabelPair, want []LabelPair) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h.Name == w.Name && h.Value == w.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sortLabeled orders labeled snapshot entries by name then label values so
// snapshots and exposition are deterministic.
func labelKey(labels []LabelPair) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

func sortLabeledCounters(vs []LabeledCounterValue) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Name != vs[j].Name {
			return vs[i].Name < vs[j].Name
		}
		return labelKey(vs[i].Labels) < labelKey(vs[j].Labels)
	})
}

func sortLabeledGauges(vs []LabeledGaugeValue) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Name != vs[j].Name {
			return vs[i].Name < vs[j].Name
		}
		return labelKey(vs[i].Labels) < labelKey(vs[j].Labels)
	})
}

func sortLabeledHistograms(vs []LabeledHistogramValue) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].Name != vs[j].Name {
			return vs[i].Name < vs[j].Name
		}
		return labelKey(vs[i].Labels) < labelKey(vs[j].Labels)
	})
}
