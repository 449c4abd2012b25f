package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestSpanNestingAndRecords(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("root").Attr("bytes", 4096).AttrStr("solver", "zlib")
	child := root.Child("stage.solver").Attr("chunk", 0)
	child.Event(KindInfo, "compressed")
	child.End(nil)
	root.End(nil)

	recs := tr.Spans()
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	// Completion order: child ends first.
	c, r := recs[0], recs[1]
	if c.Name != "stage.solver" || r.Name != "root" {
		t.Fatalf("names = %q, %q", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent = %d, want root id %d", c.Parent, r.ID)
	}
	if r.Parent != 0 {
		t.Fatalf("root parent = %d, want 0", r.Parent)
	}
	if len(r.Attrs) != 2 || r.Attrs[0].Key != "bytes" || r.Attrs[0].Value != 4096 || r.Attrs[1].Str != "zlib" {
		t.Fatalf("root attrs = %+v", r.Attrs)
	}
	if len(c.Events) != 1 || c.Events[0].Kind != KindInfo {
		t.Fatalf("child events = %+v", c.Events)
	}
	if c.Anomaly || r.Anomaly {
		t.Fatal("info-only spans must not be anomaly-tagged")
	}
	if tr.SpanCount() != 2 {
		t.Fatalf("SpanCount = %d", tr.SpanCount())
	}
}

// The process-wide switch: Start roots a span on the enabled tracer, nests it
// under an active parent, and Anomaly files a tagged standalone span.
func TestProcessWideTracer(t *testing.T) {
	tr := New(Config{})
	Enable(tr)
	defer Enable(nil)
	root := Start(Span{}, "pipeline.compress")
	Start(root, "pipeline.shard").End(nil)
	root.End(nil)
	Anomaly("stream.salvage", KindSalvageFault, "segment 3")
	recs := tr.Spans()
	if len(recs) != 3 || recs[0].Parent != recs[1].ID || recs[1].Parent != 0 {
		t.Fatalf("spans = %+v, want a shard nested under a root", recs)
	}
	if a := tr.Anomalies(); len(a) != 1 || a[0].Name != "stream.salvage" {
		t.Fatalf("anomalies = %+v", a)
	}
	Enable(nil)
	if Start(Span{}, "x").Active() {
		t.Fatal("Start with tracing off returned an active span")
	}
}

// Child is safe across goroutine boundaries: workers nest under the
// caller's span, and IDs stay unique under concurrency. Run with -race.
func TestChildSpansAcrossGoroutines(t *testing.T) {
	tr := New(Config{Capacity: 1024})
	root := tr.Start("pipeline.compress")
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				s := root.Child("pipeline.shard").Attr("worker", int64(i))
				s.End(nil)
			}
		}(i)
	}
	wg.Wait()
	root.End(nil)

	recs := tr.Spans()
	if len(recs) != workers*16+1 {
		t.Fatalf("got %d spans, want %d", len(recs), workers*16+1)
	}
	seen := map[uint64]bool{}
	rootID := recs[len(recs)-1].ID
	for _, r := range recs[:len(recs)-1] {
		if r.Parent != rootID {
			t.Fatalf("shard span parent = %d, want %d", r.Parent, rootID)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	tr := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.Start("s").Attr("i", int64(i)).End(nil)
	}
	recs := tr.Spans()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	for k, r := range recs {
		if want := int64(6 + k); r.Attrs[0].Value != want {
			t.Fatalf("ring[%d] i=%d, want %d (last-N retention)", k, r.Attrs[0].Value, want)
		}
	}
	if tr.SpanCount() != 10 {
		t.Fatalf("SpanCount = %d, want 10", tr.SpanCount())
	}
}

// Anomaly-tagged spans survive ring eviction in the anomaly list, and the
// list itself is bounded with a dropped counter.
func TestAnomalyRetention(t *testing.T) {
	tr := New(Config{Capacity: 2, AnomalyCapacity: 3})
	tr.Start("bad").Anomaly(KindDegradedChunk, "solver panic")
	s := tr.Start("bad")
	s.Anomaly(KindDegradedChunk, "solver panic")
	s.End(nil)
	// Flush the first unended anomaly via an error End.
	tr.Start("worse").End(errors.New("boom"))
	for i := 0; i < 8; i++ {
		tr.Start("fine").End(nil)
	}
	anoms := tr.Anomalies()
	if len(anoms) != 2 {
		t.Fatalf("got %d anomalies, want 2 (one span never ended)", len(anoms))
	}
	for _, a := range anoms {
		if !a.Anomaly {
			t.Fatalf("anomaly list span not tagged: %+v", a)
		}
	}
	if got := tr.Spans(); len(got) != 2 || got[0].Name != "fine" {
		t.Fatalf("ring should hold only the last 2 fine spans, got %+v", got)
	}

	// Overflow the anomaly cap.
	for i := 0; i < 5; i++ {
		tr.Start("bad").End(errors.New("x"))
	}
	if got := len(tr.Anomalies()); got != 3 {
		t.Fatalf("anomaly list = %d, want capped at 3", got)
	}
	if d := tr.DroppedAnomalies(); d != 4 {
		t.Fatalf("dropped = %d, want 4", d)
	}
}

func TestErrorEndTagsAnomaly(t *testing.T) {
	tr := New(Config{})
	tr.Start("op").End(errors.New("kaput"))
	recs := tr.Spans()
	if len(recs) != 1 || !recs[0].Anomaly {
		t.Fatalf("error End not anomaly-tagged: %+v", recs)
	}
	ev := recs[0].Events
	if len(ev) != 1 || ev[0].Kind != KindError || ev[0].Detail != "kaput" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Out: &buf})
	root := tr.Start("a").Attr("n", 1)
	root.Child("b").End(nil)
	root.End(nil)
	if err := tr.Err(); err != nil {
		t.Fatalf("sink err: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec SpanRecord
	for _, ln := range lines {
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
	}
	if rec.Name != "a" || len(rec.Attrs) != 1 {
		t.Fatalf("last record = %+v", rec)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("sink full")
	}
	f.n--
	return len(p), nil
}

func TestJSONLSinkErrorSticksAndDisables(t *testing.T) {
	fw := &failWriter{n: 1}
	tr := New(Config{Out: fw})
	tr.Start("one").End(nil)
	tr.Start("two").End(nil)
	tr.Start("three").End(nil)
	if tr.Err() == nil {
		t.Fatal("sink error not surfaced")
	}
	// Recorder keeps working after sink failure.
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("ring = %d spans, want 3", got)
	}
}

func TestWriteTextDumpAndFilters(t *testing.T) {
	tr := New(Config{})
	tr.Start("core.chunk").Attr("chunk", 7).End(nil)
	s := tr.Start("core.chunk")
	s.Anomaly(KindDegradedChunk, "panic: boom")
	s.End(nil)
	tr.Start("stream.segment").End(nil)

	var buf bytes.Buffer
	if err := tr.WriteText(&buf, DumpOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "core.chunk") || !strings.Contains(out, "stream.segment") {
		t.Fatalf("dump missing spans:\n%s", out)
	}
	if !strings.Contains(out, "chunk=7") || !strings.Contains(out, "degraded_chunk") {
		t.Fatalf("dump missing attrs/events:\n%s", out)
	}

	buf.Reset()
	if err := tr.WriteText(&buf, DumpOptions{NameFilter: "stream"}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "core.chunk") {
		t.Fatalf("name filter leaked core spans:\n%s", buf.String())
	}

	buf.Reset()
	if err := tr.WriteText(&buf, DumpOptions{AnomaliesOnly: true}); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "core.chunk"); n != 1 {
		t.Fatalf("anomalies-only dump has %d core.chunk lines, want 1:\n%s", n, buf.String())
	}
}

// The disabled path — nil Tracer, inert Span — must not allocate. This is
// the "one nil check" guarantee the hot paths rely on.
func TestDisabledPathAllocs(t *testing.T) {
	var tr *Tracer
	Enable(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		Start(Span{}, "stream.segment").Attr("segment", 1).End(nil)
		Anomaly("stream.salvage", KindSalvageFault, "z")
		s := tr.Start("core.chunk").Attr("bytes", 4096).AttrStr("solver", "zlib")
		c := s.Child("stage.solver").Attr("i", 1)
		c.Event(KindInfo, "x")
		c.Anomaly(KindDegradedChunk, "y")
		c.End(nil)
		s.End(nil)
		_ = tr.Spans()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v allocs/op, want 0", allocs)
	}
}

func TestNilTracerAccessors(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Spans() != nil || tr.Anomalies() != nil {
		t.Fatal("nil tracer accessors must return nil")
	}
	if tr.SpanCount() != 0 || tr.DroppedAnomalies() != 0 || tr.Err() != nil {
		t.Fatal("nil tracer counters must be zero")
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf, DumpOptions{}); err != nil || buf.Len() != 0 {
		t.Fatal("nil tracer WriteText must be a silent no-op")
	}
}

func TestDoubleEndIgnored(t *testing.T) {
	tr := New(Config{})
	s := tr.Start("op")
	s.End(nil)
	s.End(nil)
	if got := tr.SpanCount(); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
}

func BenchmarkDisabledTrace(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("core.chunk").Attr("bytes", 4096)
		c := s.Child("stage.solver")
		c.End(nil)
		s.End(nil)
	}
}

func BenchmarkEnabledTrace(b *testing.B) {
	tr := New(Config{Capacity: 256})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("core.chunk").Attr("bytes", 4096)
		c := s.Child("stage.solver")
		c.End(nil)
		s.End(nil)
	}
}
