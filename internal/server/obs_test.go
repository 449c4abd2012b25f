package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"primacy/internal/pipeline"
	"primacy/internal/telemetry"
	"primacy/internal/trace"
)

// syncBuffer is a concurrency-safe log sink for slog handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// lines parses every complete JSON log line written so far.
func (b *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	raw := b.String()
	var out []map[string]any
	for _, ln := range bytes.Split([]byte(raw), []byte("\n")) {
		if len(bytes.TrimSpace(ln)) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(ln, &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// findLine returns the first log line with the given msg and request_id
// ("" matches any request_id).
func findLine(lines []map[string]any, msg, requestID string) map[string]any {
	for _, m := range lines {
		if m["msg"] != msg {
			continue
		}
		if requestID != "" && m["request_id"] != requestID {
			continue
		}
		return m
	}
	return nil
}

// histogramCount sums the observation counts of one labeled histogram
// family over every label set.
func histogramCount(snap telemetry.Snapshot, family string) int64 {
	var n int64
	for _, h := range snap.LabeledHistograms {
		if h.Name == family {
			n += h.Count
		}
	}
	return n
}

// waitObserved returns once every request the server has accepted has been
// observed: its access-log line, metrics and span are written. A sized
// response can reach the client before that happens.
func waitObserved(s *Server) { s.inflight.Wait() }

func obsTestServer(t *testing.T, cfg Config) (*Server, string, *telemetry.Registry, *trace.Tracer, *syncBuffer) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := trace.New(trace.Config{})
	buf := &syncBuffer{}
	cfg.Metrics = reg
	cfg.Tracer = tr
	cfg.Logger = slog.New(slog.NewJSONHandler(buf, nil))
	s, ts := newTestServer(t, cfg)
	return s, ts.URL, reg, tr, buf
}

// The acceptance path, end to end: one request carrying a tenant, a request
// ID, and W3C trace context must surface (a) a JSON access-log line with the
// ID, tenant, route, status, and the queue-wait/work split, (b) labeled
// route+tenant metric samples, one per request in each family, and (c) a
// flight-recorder span carrying the same request ID — all joined by that one
// ID.
func TestRequestObservabilityEndToEnd(t *testing.T) {
	s, url, reg, tr, buf := obsTestServer(t, Config{})
	const (
		reqID   = "e2e-req-001"
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		parent  = "00f067aa0ba902b7"
	)
	raw := testData(4_000, 42)
	resp, body := post(t, url+"/v1/compress", raw, map[string]string{
		HeaderTenant:      "acme",
		HeaderRequestID:   reqID,
		HeaderTraceparent: "00-" + traceID + "-" + parent + "-01",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderRequestID); got != reqID {
		t.Fatalf("response request ID = %q, want the honored %q", got, reqID)
	}
	// A client-side 4xx must be observed through the same funnel.
	resp, _ = post(t, url+"/v1/compress", []byte{1, 2, 3}, nil)
	if resp.StatusCode/100 != 4 {
		t.Fatalf("odd-length compress: %d, want 4xx", resp.StatusCode)
	}
	if resp.Header.Get(HeaderRequestID) == "" {
		t.Error("4xx response missing a generated request ID")
	}
	waitObserved(s)

	// (a) The access-log line.
	line := findLine(buf.lines(t), "request", reqID)
	if line == nil {
		t.Fatalf("no access-log line for %s in:\n%s", reqID, buf)
	}
	if line["tenant"] != "acme" || line["route"] != "compress" {
		t.Errorf("access log tenant/route = %v/%v, want acme/compress", line["tenant"], line["route"])
	}
	if st, ok := line["status"].(float64); !ok || int(st) != http.StatusOK {
		t.Errorf("access log status = %v, want 200", line["status"])
	}
	if line["trace_id"] != traceID {
		t.Errorf("access log trace_id = %v, want %s", line["trace_id"], traceID)
	}
	for _, key := range []string{"queue_wait_ms", "work_ms", "total_ms", "bytes_in", "bytes_out"} {
		if _, ok := line[key].(float64); !ok {
			t.Errorf("access log missing %s: %v", key, line)
		}
	}
	if bi, _ := line["bytes_in"].(float64); int(bi) != len(raw) {
		t.Errorf("access log bytes_in = %v, want %d", line["bytes_in"], len(raw))
	}

	// (b) Labeled metrics: each request is one sample in every family.
	snap := reg.Snapshot()
	if n := snap.LabeledCounterSum("primacyd_requests_total",
		telemetry.LabelPair{Name: "route", Value: "compress"},
		telemetry.LabelPair{Name: "tenant", Value: "acme"},
	); n != 1 {
		t.Errorf("labeled requests for compress/acme = %d, want 1", n)
	}
	if n := snap.LabeledCounterSum("primacyd_requests_total"); n != 2 {
		t.Errorf("labeled request family sum = %d, want 2", n)
	}
	for _, family := range []string{"primacyd_route_request_seconds", "primacyd_queue_wait_seconds", "primacyd_work_seconds"} {
		if n := histogramCount(snap, family); n != 2 {
			t.Errorf("%s observations = %d, want 2", family, n)
		}
	}

	// (c) The flight-recorder span, joined by request ID.
	var span *trace.SpanRecord
	for _, rec := range tr.Spans() {
		if id, ok := rec.StrAttr("request_id"); ok && id == reqID {
			span = &rec
			break
		}
	}
	if span == nil {
		t.Fatalf("no span carries request_id=%s", reqID)
	}
	if span.Name != "server.compress" {
		t.Errorf("span name = %q, want server.compress", span.Name)
	}
	if tid, _ := span.StrAttr("trace_id"); tid != traceID {
		t.Errorf("span trace_id = %q, want %q", tid, traceID)
	}
	if ten, _ := span.StrAttr("tenant"); ten != "acme" {
		t.Errorf("span tenant = %q, want acme", ten)
	}
	if st, ok := span.IntAttr("status"); !ok || st != http.StatusOK {
		t.Errorf("span status attr = %d ok=%v, want 200", st, ok)
	}
}

// A malformed or oversized inbound request ID must be replaced, never echoed.
func TestInvalidRequestIDReplaced(t *testing.T) {
	s, url, _, _, buf := obsTestServer(t, Config{})
	raw := testData(64, 3)
	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("a", 200)} {
		resp, _ := post(t, url+"/v1/compress", raw, map[string]string{HeaderRequestID: bad})
		got := resp.Header.Get(HeaderRequestID)
		if got == bad || !validRequestID(got) {
			t.Errorf("inbound ID %q: response carries %q, want a generated valid ID", bad, got)
		}
	}
	waitObserved(s)
	if findLine(buf.lines(t), "request", "") == nil {
		t.Error("no access-log lines emitted")
	}
}

// A 1000-distinct-tenant storm must not blow up label cardinality: the
// tenant label interns at most DefMaxLabelValues values plus "other", while
// the family total still counts every request.
func TestTenantStormKeepsCardinalityBounded(t *testing.T) {
	s, url, reg, _, _ := obsTestServer(t, Config{})
	raw := testData(8, 13)
	const tenants = 1000
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			req, err := http.NewRequest(http.MethodPost, url+"/v1/compress", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(HeaderTenant, fmt.Sprintf("storm-tenant-%04d", i))
			resp, err := client.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	waitObserved(s)

	snap := reg.Snapshot()
	seen := map[string]bool{}
	var total int64
	for _, c := range snap.LabeledCounters {
		if c.Name != "primacyd_requests_total" {
			continue
		}
		total += c.Value
		for _, l := range c.Labels {
			if l.Name == "tenant" {
				seen[l.Value] = true
			}
		}
	}
	if total != tenants {
		t.Errorf("labeled family total = %d, want %d (every request counted)", total, tenants)
	}
	if len(seen) > telemetry.DefMaxLabelValues+1 {
		t.Errorf("tenant label cardinality %d exceeds cap %d+other", len(seen), telemetry.DefMaxLabelValues)
	}
	if !seen[telemetry.OverflowLabel] {
		t.Errorf("storm never spilled into the %q bucket", telemetry.OverflowLabel)
	}
}

// Breaching -slow-request-ms must emit the span-tree dump joined to the
// access-log line by request ID.
func TestSlowRequestDumpsSpanTree(t *testing.T) {
	s, url, _, _, buf := obsTestServer(t, Config{SlowRequest: time.Nanosecond})
	resp, body := post(t, url+"/v1/compress", testData(2_000, 21), map[string]string{
		HeaderRequestID: "slow-req-1",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	waitObserved(s)
	lines := buf.lines(t)
	if line := findLine(lines, "request", "slow-req-1"); line == nil {
		t.Fatal("no access-log line for the slow request")
	} else if line["level"] != "WARN" {
		t.Errorf("slow request logged at %v, want WARN", line["level"])
	}
	dump := findLine(lines, "slow request trace", "slow-req-1")
	if dump == nil {
		t.Fatalf("no span-tree dump for the slow request in:\n%s", buf)
	}
	tree, _ := dump["tree"].(string)
	if !bytes.Contains([]byte(tree), []byte("server.compress")) {
		t.Errorf("span tree %q does not include the request span", tree)
	}
	if n, _ := dump["spans"].(float64); n < 1 {
		t.Errorf("span-tree dump reports %v spans, want >= 1", dump["spans"])
	}
}

// Drain must not return before in-flight requests have flushed their
// observability: the access-log line and the labeled counters of a request
// that was in flight when the drain started must be visible the moment
// Drain returns.
func TestDrainFlushesObservabilityFirst(t *testing.T) {
	before := runtime.NumGoroutine()
	s, url, reg, _, buf := obsTestServer(t, Config{Solver: "bzlib", CacheBytes: -1})
	raw := testData(64_000, 31)
	resultCh := make(chan int, 1)
	go func() {
		resp, _ := post(t, url+"/v1/compress", raw, map[string]string{
			HeaderRequestID: "drain-req-1",
			HeaderTenant:    "acme",
		})
		resultCh <- resp.StatusCode
	}()
	waitInflight(t, s)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The checks below run before the client goroutine is even joined: the
	// drain itself must have waited for the flush.
	line := findLine(buf.lines(t), "request", "drain-req-1")
	if line == nil {
		t.Fatalf("Drain returned before the in-flight request's access log was flushed:\n%s", buf)
	}
	if n := reg.Snapshot().LabeledCounterSum("primacyd_requests_total",
		telemetry.LabelPair{Name: "tenant", Value: "acme"},
	); n != 1 {
		t.Errorf("Drain returned before the in-flight request was counted: got %d", n)
	}
	if findLine(buf.lines(t), "drain complete", "") == nil {
		t.Error("no 'drain complete' lifecycle line")
	}
	if code := <-resultCh; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: %d, want 200", code)
	}
	s.Close() // stops the runtime sampler
	checkGoroutinesSettled(t, before)
}

// /statusz renders build, config, tenant, and anomaly sections in both
// plain-text and HTML forms.
func TestStatuszConsole(t *testing.T) {
	s, url, _, _, _ := obsTestServer(t, Config{})
	if resp, _ := post(t, url+"/v1/compress", testData(1_000, 51), map[string]string{
		HeaderTenant: "acme",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d", resp.StatusCode)
	}
	waitObserved(s)
	resp, body := get(t, url+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz: %d", resp.StatusCode)
	}
	for _, want := range []string{"primacyd status", "uptime:", "config:", "tenants:", "acme", "build:"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("statusz missing %q:\n%s", want, body)
		}
	}
	req, err := http.NewRequest(http.MethodGet, url+"/statusz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/html")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if ct := r2.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("HTML statusz content type = %q", ct)
	}
	if !bytes.Contains(html, []byte("<pre>")) {
		t.Error("HTML statusz has no <pre> section")
	}
}

// /statusz and the build-info gauge name the same build.
func TestStatuszMatchesBuildInfoGauge(t *testing.T) {
	_, url, reg, _, _ := obsTestServer(t, Config{})
	_, body := get(t, url+"/statusz")
	field := func(name string) string {
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(line), name+":"); ok {
				return strings.TrimSpace(v)
			}
		}
		t.Fatalf("statusz has no %s line:\n%s", name, body)
		return ""
	}
	var labels map[string]string
	for _, g := range reg.Snapshot().LabeledGauges {
		if g.Name == "primacyd_build_info" {
			labels = map[string]string{}
			for _, l := range g.Labels {
				labels[l.Name] = l.Value
			}
		}
	}
	if labels == nil {
		t.Fatal("no primacyd_build_info gauge")
	}
	for _, k := range []string{"version", "revision"} {
		if got, want := field(k), labels[k]; got != want || got == "" {
			t.Errorf("statusz %s %q, build-info gauge %q", k, got, want)
		}
	}
}

// requestCounts is what a work request adds to the server's series and log.
type requestCounts struct {
	requests, seconds int64            // requests_total and route_request_seconds, whole family
	byClass           int64            // requests_total for the case's route, tenant and status class
	own               map[string]int64 // the unlabeled drain/deadline/panic counters
	lines             []map[string]any // access-log lines
}

func countRequests(t *testing.T, reg *telemetry.Registry, buf *syncBuffer, route, class string) requestCounts {
	t.Helper()
	snap := reg.Snapshot()
	c := requestCounts{
		requests: snap.LabeledCounterSum("primacyd_requests_total"),
		seconds:  histogramCount(snap, "primacyd_route_request_seconds"),
		byClass: snap.LabeledCounterSum("primacyd_requests_total",
			telemetry.LabelPair{Name: "route", Value: route},
			telemetry.LabelPair{Name: "tenant", Value: "acme"},
			telemetry.LabelPair{Name: "status", Value: class}),
		own: map[string]int64{},
	}
	for _, name := range []string{"primacyd_drain_refused_total", "primacyd_deadline_total", "primacyd_panics_total"} {
		c.own[name], _ = snap.Counter(name)
	}
	for _, m := range buf.lines(t) {
		if m["msg"] == "request" {
			c.lines = append(c.lines, m)
		}
	}
	return c
}

// TestEveryRequestCountedOnce: whatever its outcome, one work request is
// one sample of primacyd_requests_total{route,tenant,status}, one
// observation of primacyd_route_request_seconds and one access-log line,
// and the drain, deadline and panic counters move only for their own
// outcome.
func TestEveryRequestCountedOnce(t *testing.T) {
	acme := map[string]string{HeaderTenant: "acme"}
	// holdAdmission takes every admission slot until the test ends.
	holdAdmission := func(t *testing.T, s *Server) {
		if err := s.adm.Acquire(context.Background(), "holder", 1); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.adm.Release(1) })
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		route   string
		status  int
		counter string // the unlabeled counter the outcome moves, if any
		disk    bool   // serve archives from a durable store in a temp dir
		setup   func(t *testing.T, s *Server, url string)
		request func(t *testing.T, s *Server, url string) int
	}{
		{name: "200", route: "compress", status: http.StatusOK,
			request: func(t *testing.T, _ *Server, url string) int {
				resp, _ := post(t, url+"/v1/compress", testData(1_000, 1), acme)
				return resp.StatusCode
			}},
		{name: "400 bad deadline header", route: "compress", status: http.StatusBadRequest,
			request: func(t *testing.T, _ *Server, url string) int {
				resp, _ := post(t, url+"/v1/compress", testData(1_000, 1),
					map[string]string{HeaderTenant: "acme", HeaderDeadlineMs: "never"})
				return resp.StatusCode
			}},
		{name: "413", cfg: Config{MaxBodyBytes: 1 << 10}, route: "compress", status: http.StatusRequestEntityTooLarge,
			request: func(t *testing.T, _ *Server, url string) int {
				resp, _ := post(t, url+"/v1/compress", make([]byte, 2<<10), acme)
				return resp.StatusCode
			}},
		{name: "422 corrupt payload", route: "decompress", status: http.StatusUnprocessableEntity,
			request: func(t *testing.T, _ *Server, url string) int {
				enc, err := pipeline.CompressCtx(context.Background(), testData(10_000, 3), pipeline.Options{})
				if err != nil {
					t.Fatal(err)
				}
				enc[len(enc)/2] ^= 0xFF
				resp, _ := post(t, url+"/v1/decompress", enc, acme)
				return resp.StatusCode
			}},
		{name: "429 shed", cfg: Config{MaxConcurrent: 1, MaxQueuedPerTenant: 1}, route: "compress", status: http.StatusTooManyRequests,
			setup: func(t *testing.T, s *Server, _ string) {
				holdAdmission(t, s)
				// One queued acquire fills acme's queue, so acme's request
				// is refused at once.
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() {
					defer close(done)
					if s.adm.Acquire(ctx, "acme", 1) == nil {
						s.adm.Release(1)
					}
				}()
				t.Cleanup(func() { cancel(); <-done })
				for {
					if _, n := s.adm.Queued("acme"); n == 1 {
						return
					}
					time.Sleep(time.Millisecond)
				}
			},
			request: func(t *testing.T, _ *Server, url string) int {
				resp, _ := post(t, url+"/v1/compress", testData(1_000, 1), acme)
				return resp.StatusCode
			}},
		{name: "503 drain", route: "compress", status: http.StatusServiceUnavailable, counter: "primacyd_drain_refused_total",
			setup: func(t *testing.T, s *Server, _ string) {
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
			request: func(t *testing.T, _ *Server, url string) int {
				resp, _ := post(t, url+"/v1/compress", testData(1_000, 1), acme)
				return resp.StatusCode
			}},
		{name: "504 deadline", cfg: Config{MaxConcurrent: 1}, route: "compress", status: http.StatusGatewayTimeout, counter: "primacyd_deadline_total",
			setup: func(t *testing.T, s *Server, _ string) { holdAdmission(t, s) },
			request: func(t *testing.T, _ *Server, url string) int {
				resp, _ := post(t, url+"/v1/compress", testData(1_000, 1),
					map[string]string{HeaderTenant: "acme", HeaderDeadlineMs: "1"})
				return resp.StatusCode
			}},
		{name: "500 panic", route: "explode", status: http.StatusInternalServerError, counter: "primacyd_panics_total",
			request: func(t *testing.T, s *Server, _ string) int {
				h := s.work("explode", func(*request) (*response, error) { panic("request-scoped explosion") })
				req := httptest.NewRequest(http.MethodPost, "/explode", strings.NewReader("x"))
				req.Header.Set(HeaderTenant, "acme")
				rec := httptest.NewRecorder()
				h(rec, req)
				return rec.Code
			}},
		{name: "500 store fault", cfg: Config{CompactEvery: -1}, disk: true, route: "archive_get", status: http.StatusInternalServerError,
			setup: func(t *testing.T, s *Server, url string) {
				resp, body := post(t, url+"/v1/archive/put?name=temp&step=0", testData(1_000, 1), acme)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("put: %d %s", resp.StatusCode, body)
				}
				path := filepath.Join(s.cfg.DataDir, "t_acme", "journal.wal")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x10
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			request: func(t *testing.T, _ *Server, url string) int {
				resp, _ := getAs(t, url+"/v1/archive/get?name=temp&step=0", "acme")
				return resp.StatusCode
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.disk {
				tc.cfg.DataDir = t.TempDir()
			}
			s, url, reg, _, buf := obsTestServer(t, tc.cfg)
			if tc.setup != nil {
				tc.setup(t, s, url)
			}
			waitObserved(s)
			class := statusClass(tc.status)
			before := countRequests(t, reg, buf, tc.route, class)
			if got := tc.request(t, s, url); got != tc.status {
				t.Fatalf("status %d, want %d", got, tc.status)
			}
			waitObserved(s)
			after := countRequests(t, reg, buf, tc.route, class)

			if d := after.requests - before.requests; d != 1 {
				t.Errorf("primacyd_requests_total rose by %d, want 1", d)
			}
			if d := after.byClass - before.byClass; d != 1 {
				t.Errorf("primacyd_requests_total{route=%q,tenant=\"acme\",status=%q} rose by %d, want 1", tc.route, class, d)
			}
			if d := after.seconds - before.seconds; d != 1 {
				t.Errorf("primacyd_route_request_seconds count rose by %d, want 1", d)
			}
			for name, v := range after.own {
				want := int64(0)
				if name == tc.counter {
					want = 1
				}
				if d := v - before.own[name]; d != want {
					t.Errorf("%s rose by %d, want %d", name, d, want)
				}
			}
			lines := after.lines[len(before.lines):]
			if len(lines) != 1 {
				t.Fatalf("%d access-log lines for one request, want 1: %v", len(lines), lines)
			}
			if st, _ := lines[0]["status"].(float64); int(st) != tc.status || lines[0]["route"] != tc.route {
				t.Errorf("access-log line route %v status %v, want %s %d", lines[0]["route"], lines[0]["status"], tc.route, tc.status)
			}
		})
	}
}
