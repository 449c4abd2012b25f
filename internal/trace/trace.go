// Package trace is a zero-dependency structured tracing layer for the
// PRIMACY runtime: spans with IDs, parent/child nesting, typed events, and
// monotonic timestamps, collected by two sinks — a bounded in-memory flight
// recorder (the last N spans plus every anomaly-tagged span) and an optional
// streaming JSONL event log.
//
// Like internal/telemetry, the package is built around a nil-safe no-op
// default so instrumentation costs nothing when disabled: a nil *Tracer
// hands out inert zero Spans, and every method on an inert Span returns
// immediately without reading the clock or allocating — see the
// TestDisabledPathAllocs / BenchmarkDisabledTrace guards. Hot paths
// therefore pay one pointer nil check per operation.
//
// Concurrency: a Tracer is safe for concurrent use. A Span's Child method is
// safe to call from any goroutine (pipeline workers nest under the caller's
// span), but a single Span's Attr/Event/End methods must be driven by one
// goroutine at a time, which matches how spans wrap one unit of work.
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ctxKey carries a Span through a context so spans nest across package
// boundaries (pipeline shard → core compress) without widening every
// signature.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying s. Attaching an inert span returns
// ctx unchanged, so disabled tracing never grows the context chain.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if s.d == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or an inert span. Callers
// use it once per operation (not per chunk), so the context lookup stays off
// hot paths.
func SpanFromContext(ctx context.Context) Span {
	s, _ := ctx.Value(ctxKey{}).(Span)
	return s
}

// Kind types an event within a span. Anomalous kinds tag the owning span for
// flight-recorder retention: a degraded chunk, salvage fault, retry
// exhaustion, or abandoned admission wait is kept even after the ring evicts
// its neighbours, so a bad run can be explained after the fact.
type Kind uint8

const (
	// KindInfo is an untyped informational event.
	KindInfo Kind = iota
	// KindDegradedChunk marks a chunk stored raw after a solver fault.
	KindDegradedChunk
	// KindSalvageFault marks damage recorded while salvaging a container.
	KindSalvageFault
	// KindResync marks a salvage reader scanning for the next frame.
	KindResync
	// KindRetry marks one re-attempt after a transient failure.
	KindRetry
	// KindRetryExhausted marks an operation abandoned after the attempt
	// budget ran out.
	KindRetryExhausted
	// KindGovernorWait marks an admission that had to queue. Its name and
	// its "governor_wait" JSONL string are kept so existing dumps and
	// -anomalies filters keep matching.
	KindGovernorWait
	// KindGovernorCancelled marks a queued admission abandoned via context
	// or shed under overload.
	KindGovernorCancelled
	// KindError marks a span that finished with an error.
	KindError
)

var kindNames = [...]string{
	KindInfo:              "info",
	KindDegradedChunk:     "degraded_chunk",
	KindSalvageFault:      "salvage_fault",
	KindResync:            "resync",
	KindRetry:             "retry",
	KindRetryExhausted:    "retry_exhausted",
	KindGovernorWait:      "governor_wait",
	KindGovernorCancelled: "governor_cancelled",
	KindError:             "error",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, keeping the JSONL log readable
// without a decoder table.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Anomalous reports whether events of this kind tag the owning span for
// unconditional flight-recorder retention.
func (k Kind) Anomalous() bool {
	switch k {
	case KindDegradedChunk, KindSalvageFault, KindRetryExhausted,
		KindGovernorCancelled, KindError:
		return true
	}
	return false
}

// Attr is one typed span attribute: Str is the payload when non-empty,
// Value otherwise.
type Attr struct {
	Key   string `json:"key"`
	Value int64  `json:"value,omitempty"`
	Str   string `json:"str,omitempty"`
}

// Event is one typed, timestamped occurrence within a span. At is
// microseconds since the tracer's epoch (monotonic).
type Event struct {
	At     int64  `json:"t_us"`
	Kind   Kind   `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// SpanRecord is a completed span as retained by the flight recorder and
// emitted to the JSONL log. StartUS and DurUS are microseconds, measured on
// the monotonic clock relative to the tracer's epoch.
type SpanRecord struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS int64   `json:"start_us"`
	DurUS   int64   `json:"dur_us"`
	Attrs   []Attr  `json:"attrs,omitempty"`
	Events  []Event `json:"events,omitempty"`
	Anomaly bool    `json:"anomaly,omitempty"`
}

// Config parameterizes a Tracer.
type Config struct {
	// Capacity bounds the flight-recorder ring (last-N retention);
	// DefCapacity when zero or negative.
	Capacity int
	// AnomalyCapacity bounds the anomaly retention list; DefAnomalyCapacity
	// when zero or negative. Anomalies past the cap are counted in
	// DroppedAnomalies instead of retained.
	AnomalyCapacity int
	// Out, when non-nil, receives every completed span as one JSON line.
	// Writes happen inline at span End under the tracer lock; wrap slow
	// sinks in a bufio.Writer. The first write error disables the sink and
	// is reported by Err.
	Out io.Writer
}

// Default flight-recorder bounds. The ring is sized for "explain the last
// few seconds"; the anomaly list is sized so every anomaly of a realistic
// run survives (anomalies are exceptional by construction).
const (
	DefCapacity        = 512
	DefAnomalyCapacity = 16384
)

// Tracer collects spans. A nil *Tracer is the disabled sink: Start returns
// an inert Span and every accessor returns zeros.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu        sync.Mutex
	ring      []SpanRecord // fixed capacity, chronological modulo head
	head      int          // next write position
	count     int          // live entries (≤ cap)
	anomalies []SpanRecord
	anomCap   int
	dropped   int64
	totals    map[string]time.Duration // cumulative wall time by span name
	spans     int64                    // completed spans, evicted or not
	out       io.Writer
	outErr    error
}

// New returns an enabled Tracer with its epoch at the call time.
func New(cfg Config) *Tracer {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefCapacity
	}
	anomCap := cfg.AnomalyCapacity
	if anomCap <= 0 {
		anomCap = DefAnomalyCapacity
	}
	return &Tracer{
		epoch:   time.Now(),
		ring:    make([]SpanRecord, capacity),
		anomCap: anomCap,
		totals:  map[string]time.Duration{},
		out:     cfg.Out,
	}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// spanData is the mutable in-flight state behind an active Span.
type spanData struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
	events []Event
	anom   bool
}

// Span is a handle on one in-flight unit of work. The zero Span is inert:
// every method returns immediately at the cost of one nil check. Spans are
// values; copy them freely.
type Span struct{ d *spanData }

// Start opens a root span. On a nil Tracer the span is inert and the clock
// is never read.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{&spanData{
		t:     t,
		id:    t.nextID.Add(1),
		name:  name,
		start: time.Now(),
	}}
}

// global is the process-wide tracer every instrumented package starts its
// root spans on: loaded once per operation, nil when tracing is off.
var global atomic.Pointer[Tracer]

// Enable routes every package's spans to t; a nil t disables tracing.
func Enable(t *Tracer) { global.Store(t) }

// Start opens a span nested under parent when parent is active, a root span
// on the process-wide tracer otherwise, and an inert span when tracing is
// off.
func Start(parent Span, name string) Span {
	if parent.Active() {
		return parent.Child(name)
	}
	return global.Load().Start(name)
}

// Anomaly files a standalone anomaly span on the process-wide tracer, for
// paths with no surrounding span (salvage fault recording).
func Anomaly(name string, k Kind, detail string) {
	s := global.Load().Start(name)
	s.Anomaly(k, detail)
	s.End(nil)
}

// Active reports whether the span records anything.
func (s Span) Active() bool { return s.d != nil }

// ID returns the span's ID (0 for an inert span).
func (s Span) ID() uint64 {
	if s.d == nil {
		return 0
	}
	return s.d.id
}

// Child opens a span nested under s. Safe to call from any goroutine, so
// worker pools nest their per-shard spans under the caller's span. A child
// of an inert span is inert.
func (s Span) Child(name string) Span {
	if s.d == nil {
		return Span{}
	}
	t := s.d.t
	return Span{&spanData{
		t:      t,
		id:     t.nextID.Add(1),
		parent: s.d.id,
		name:   name,
		start:  time.Now(),
	}}
}

// Attr attaches an integer attribute and returns the span for chaining.
func (s Span) Attr(key string, v int64) Span {
	if s.d == nil {
		return s
	}
	s.d.attrs = append(s.d.attrs, Attr{Key: key, Value: v})
	return s
}

// AttrStr attaches a string attribute and returns the span for chaining.
func (s Span) AttrStr(key, v string) Span {
	if s.d == nil {
		return s
	}
	s.d.attrs = append(s.d.attrs, Attr{Key: key, Str: v})
	return s
}

// Event records a typed event at the current time. An anomalous kind tags
// the span for unconditional flight-recorder retention.
func (s Span) Event(k Kind, detail string) {
	if s.d == nil {
		return
	}
	s.d.events = append(s.d.events, Event{
		At:     time.Since(s.d.t.epoch).Microseconds(),
		Kind:   k,
		Detail: detail,
	})
	if k.Anomalous() {
		s.d.anom = true
	}
}

// Anomaly records an anomalous event and tags the span regardless of the
// kind's default classification.
func (s Span) Anomaly(k Kind, detail string) {
	if s.d == nil {
		return
	}
	s.Event(k, detail)
	s.d.anom = true
}

// End completes the span and hands it to the tracer's sinks. err, when
// non-nil, is recorded as a KindError anomaly first. Safe on an inert span;
// a second End on the same span is ignored.
func (s Span) End(err error) {
	if s.d == nil {
		return
	}
	d := s.d
	s.d = nil
	if d.t == nil {
		return
	}
	if err != nil {
		d.events = append(d.events, Event{
			At:     time.Since(d.t.epoch).Microseconds(),
			Kind:   KindError,
			Detail: err.Error(),
		})
		d.anom = true
	}
	end := time.Now()
	rec := SpanRecord{
		ID:      d.id,
		Parent:  d.parent,
		Name:    d.name,
		StartUS: d.start.Sub(d.t.epoch).Microseconds(),
		DurUS:   end.Sub(d.start).Microseconds(),
		Attrs:   d.attrs,
		Events:  d.events,
		Anomaly: d.anom,
	}
	d.t.record(rec, end.Sub(d.start))
	d.t = nil
}

// record files one completed span with both sinks and the stage totals.
func (t *Tracer) record(rec SpanRecord, dur time.Duration) {
	t.mu.Lock()
	t.spans++
	t.totals[rec.Name] += dur
	t.ring[t.head] = rec
	t.head = (t.head + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	if rec.Anomaly {
		if len(t.anomalies) < t.anomCap {
			t.anomalies = append(t.anomalies, rec)
		} else {
			t.dropped++
		}
	}
	out, outErr := t.out, t.outErr
	if out == nil || outErr != nil {
		t.mu.Unlock()
		return
	}
	line, err := json.Marshal(rec)
	if err == nil {
		line = append(line, '\n')
		_, err = out.Write(line)
	}
	if err != nil {
		t.outErr = err
	}
	t.mu.Unlock()
}

// Spans returns the flight-recorder ring in completion order (oldest
// first). Nil tracers return nil.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.count)
	start := t.head - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Anomalies returns every retained anomaly-tagged span in completion order.
func (t *Tracer) Anomalies() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.anomalies))
	copy(out, t.anomalies)
	return out
}

// DroppedAnomalies reports anomaly spans lost to the anomaly capacity.
func (t *Tracer) DroppedAnomalies() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanCount reports every span ever completed, including those the ring has
// evicted.
func (t *Tracer) SpanCount() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// StageTotals returns cumulative wall time by span name, accumulated at End
// for every completed span regardless of ring eviction — the trace-side
// stage timings the Section-III model estimator consumes.
func (t *Tracer) StageTotals() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration, len(t.totals))
	for k, v := range t.totals {
		out[k] = v
	}
	return out
}

// Err reports the first JSONL sink write failure, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outErr
}

// DumpOptions filters a WriteText dump.
type DumpOptions struct {
	// NameFilter keeps only spans whose name contains the substring.
	NameFilter string
	// AnomaliesOnly dumps the anomaly retention list instead of the ring.
	AnomaliesOnly bool
}

// WriteText renders the flight recorder human-readably, one span per line,
// oldest first: offset, duration, name, IDs, attributes, and events, with
// anomalous spans marked "!". This is what `primacy trace` prints.
func (t *Tracer) WriteText(w io.Writer, opts DumpOptions) error {
	if t == nil {
		return nil
	}
	recs := t.Spans()
	if opts.AnomaliesOnly {
		recs = t.Anomalies()
	}
	for _, rec := range recs {
		if opts.NameFilter != "" && !strings.Contains(rec.Name, opts.NameFilter) {
			continue
		}
		if err := writeRecord(w, rec); err != nil {
			return err
		}
	}
	if opts.AnomaliesOnly {
		if d := t.DroppedAnomalies(); d > 0 {
			if _, err := fmt.Fprintf(w, "(+%d anomaly span(s) dropped past capacity)\n", d); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeRecord(w io.Writer, rec SpanRecord) error {
	mark := " "
	if rec.Anomaly {
		mark = "!"
	}
	if _, err := fmt.Fprintf(w, "%s %10dus %+9dus %-24s id=%d", mark, rec.StartUS, rec.DurUS, rec.Name, rec.ID); err != nil {
		return err
	}
	if rec.Parent != 0 {
		if _, err := fmt.Fprintf(w, " parent=%d", rec.Parent); err != nil {
			return err
		}
	}
	for _, a := range rec.Attrs {
		var err error
		if a.Str != "" {
			_, err = fmt.Fprintf(w, " %s=%q", a.Key, a.Str)
		} else {
			_, err = fmt.Fprintf(w, " %s=%d", a.Key, a.Value)
		}
		if err != nil {
			return err
		}
	}
	for _, e := range rec.Events {
		if _, err := fmt.Fprintf(w, " [%s@%dus %s]", e.Kind, e.At, e.Detail); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// SumDurations aggregates span records by name into seconds of wall time —
// a convenience over dumped records mirroring StageTotals.
func SumDurations(recs []SpanRecord) map[string]float64 {
	out := map[string]float64{}
	for _, r := range recs {
		out[r.Name] += float64(r.DurUS) / 1e6
	}
	return out
}

// Names returns the distinct span names in recs, sorted (dump tooling).
func Names(recs []SpanRecord) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		if !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
	}
	sort.Strings(out)
	return out
}
