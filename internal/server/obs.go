package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"primacy/internal/trace"
)

// Request-scoped observability: every work request gets a request ID
// (honored from the client or generated), a flight-recorder span joined to
// any inbound W3C trace context, labeled metric vectors, and one structured
// access-log line — all correlated by the same request ID, so one slow or
// failed request can be walked from log line to metrics to span tree.

// HeaderRequestID carries the request ID. An inbound value (letters, digits,
// ".", "_", "-"; at most 128 bytes) is honored so retries of one logical
// request share an ID; anything else is replaced by a generated ID. The
// response always carries the ID actually used.
const HeaderRequestID = "X-Primacy-Request-Id"

// HeaderTraceparent is the inbound W3C trace-context header (Go canonicalizes
// the lowercase wire form).
const HeaderTraceparent = "Traceparent"

// maxRequestIDLen bounds an honored inbound request ID.
const maxRequestIDLen = 128

// validRequestID accepts IDs safe to echo into headers, logs, and label-free
// span attributes.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// newRequestID returns a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// recognizable constant rather than panicking a request.
		return "rng-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter observes the status code and body bytes a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Status reports the final status (200 when the handler wrote nothing
// explicit).
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// statusClass buckets a status code for the status-class metric label.
func statusClass(status int) string {
	switch {
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// beginRequest opens the per-request observability scope: resolves the
// request ID, opens the span (joined to inbound trace context), and stamps
// the response header.
func (s *Server) beginRequest(w http.ResponseWriter, r *http.Request, route string) (*request, trace.Span) {
	tenant := r.Header.Get(HeaderTenant)
	if tenant == "" {
		tenant = "anonymous"
	}
	id := r.Header.Get(HeaderRequestID)
	if !validRequestID(id) {
		id = newRequestID()
	}
	w.Header().Set(HeaderRequestID, id)

	span := s.cfg.Tracer.Start("server."+route).
		AttrStr("request_id", id).AttrStr("tenant", tenant)
	req := &request{tenant: tenant, id: id, route: route, r: r}
	if tp, ok := trace.ParseTraceparent(r.Header.Get(HeaderTraceparent)); ok {
		req.traceID = tp.TraceID
		span.AttrStr("trace_id", tp.TraceID).AttrStr("parent_span_id", tp.ParentID)
	}
	return req, span
}

// observe closes out one request: finalizes the span, records the labeled
// vectors, and emits the access-log line (dumping the span tree on a
// slow-request breach). It runs via defer before the request leaves the
// in-flight group, so a drain cannot return before every completed request
// is fully logged and counted.
func (s *Server) observe(sw *statusWriter, req *request, span trace.Span, started time.Time) {
	total := time.Since(started)
	status := sw.Status()
	class := statusClass(status)
	work := total - req.wait
	if work < 0 {
		work = 0
	}
	slow := s.cfg.SlowRequest > 0 && total >= s.cfg.SlowRequest

	span.Attr("status", int64(status)).
		Attr("bytes_in", req.bytesIn).
		Attr("bytes_out", sw.bytes).
		Attr("queue_wait_us", req.wait.Microseconds())
	if slow {
		span.Anomaly(trace.KindInfo, fmt.Sprintf("slow request: %v >= %v", total, s.cfg.SlowRequest))
	}
	spanID := span.ID()
	// Only server-side failures mark the span itself failed; 4xx spans stay
	// clean so anomaly retention tracks service health, not client behavior.
	var spanErr error
	if status >= 500 && req.err != nil {
		spanErr = req.err
	}
	span.End(spanErr)

	m := &s.met
	m.requestsVec.With(req.route, req.tenant, class).Inc()
	m.latencyVec.With(req.route, req.tenant).Observe(total.Seconds())
	m.queueWaitVec.With(req.route, req.tenant).Observe(req.wait.Seconds())
	m.workVec.With(req.route, req.tenant).Observe(work.Seconds())
	m.bytesInVec.With(req.route, req.tenant).Add(req.bytesIn)
	m.bytesOutVec.With(req.route, req.tenant).Add(sw.bytes)
	if status == http.StatusTooManyRequests {
		m.shedVec.With(req.route, req.tenant).Inc()
	}
	if req.resp != nil && req.resp.cached {
		m.cacheVec.With(req.route, req.tenant, cacheHeader(req.resp.cache)).Inc()
	}

	if s.log == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("request_id", req.id),
		slog.String("route", req.route),
		slog.String("tenant", req.tenant),
		slog.Int("status", status),
		slog.Int64("bytes_in", req.bytesIn),
		slog.Int64("bytes_out", sw.bytes),
		slog.Float64("queue_wait_ms", float64(req.wait.Microseconds())/1e3),
		slog.Float64("work_ms", float64(work.Microseconds())/1e3),
		slog.Float64("total_ms", float64(total.Microseconds())/1e3),
	)
	if req.traceID != "" {
		attrs = append(attrs, slog.String("trace_id", req.traceID))
	}
	if req.resp != nil && req.resp.cached {
		attrs = append(attrs, slog.String("cache", cacheHeader(req.resp.cache)))
	}
	if req.err != nil {
		attrs = append(attrs, slog.String("error", req.err.Error()))
	}
	level := slog.LevelInfo
	if status >= 500 {
		level = slog.LevelError
	} else if slow || status >= 400 {
		level = slog.LevelWarn
	}
	s.log.LogAttrs(context.Background(), level, "request", attrs...)
	if slow {
		s.dumpSlowTrace(req, spanID)
	}
}

// dumpSlowTrace logs the slow request's span tree from the flight recorder —
// the "why was it slow" breakdown (admission wait vs. codec stages) joined
// to the access-log line by request ID.
func (s *Server) dumpSlowTrace(req *request, spanID uint64) {
	if s.cfg.Tracer == nil || spanID == 0 {
		return
	}
	sub := trace.Subtree(s.cfg.Tracer.Spans(), spanID)
	if len(sub) == 0 {
		return
	}
	var b strings.Builder
	for i, rec := range sub {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s id=%d", rec.Name, rec.ID)
		if rec.Parent != 0 {
			fmt.Fprintf(&b, " parent=%d", rec.Parent)
		}
		fmt.Fprintf(&b, " dur=%dus", rec.DurUS)
		for _, e := range rec.Events {
			fmt.Fprintf(&b, " [%s %s]", e.Kind, e.Detail)
		}
	}
	s.log.LogAttrs(context.Background(), slog.LevelWarn, "slow request trace",
		slog.String("request_id", req.id),
		slog.Int("spans", len(sub)),
		slog.String("tree", b.String()))
}

// lifecycle logs one structured lifecycle event (startup, recovery, drain)
// when logging is enabled.
func (s *Server) lifecycle(msg string, attrs ...slog.Attr) {
	if s.log == nil {
		return
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
}
