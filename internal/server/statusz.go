package server

import (
	"fmt"
	"html"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"primacy/internal/telemetry"
)

// statuszAnomalyTail bounds how many recent anomaly spans /statusz renders.
const statuszAnomalyTail = 20

// handleStatusz serves the human-facing ops console: build info, uptime,
// effective config, per-tenant live load, and the most recent anomaly
// spans. It renders a minimal HTML page of <pre> sections — readable in a
// browser and still grep-able via curl.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	now := time.Now()

	fmt.Fprintf(&b, "primacyd status\n===============\n\n")
	version, revision := telemetry.BuildIdentity()
	fmt.Fprintf(&b, "build:\n  version:    %s\n  revision:   %s\n  go:         %s\n  gomaxprocs: %d\n\n",
		version, revision, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "uptime: %s (started %s)\n", now.Sub(s.started).Round(time.Second), s.started.Format(time.RFC3339))
	fmt.Fprintf(&b, "draining: %v\n\n", s.draining.Load())

	fmt.Fprintf(&b, "config:\n")
	fmt.Fprintf(&b, "  solver=%s chunk_bytes=%d workers=%d\n", s.cfg.Solver, s.cfg.ChunkBytes, s.cfg.Workers)
	fmt.Fprintf(&b, "  mem_budget=%d max_concurrent=%d max_queued=%d max_queued_per_tenant=%d\n",
		s.cfg.MemBudget, s.cfg.MaxConcurrent, s.cfg.MaxQueued, s.cfg.MaxQueuedPerTenant)
	fmt.Fprintf(&b, "  max_body_bytes=%d cache_bytes=%d data_dir=%q fsync=%v\n",
		s.cfg.MaxBodyBytes, s.cfg.CacheBytes, s.cfg.DataDir, s.cfg.DataDir != "" && !s.cfg.NoFsync)
	fmt.Fprintf(&b, "  default_deadline=%s max_deadline=%s slow_request=%s\n",
		s.cfg.DefaultDeadline, s.cfg.MaxDeadline, s.cfg.SlowRequest)
	b.WriteString("\n")

	s.writeTenantTable(&b)
	s.writeAnomalyTail(&b)

	if strings.Contains(r.Header.Get("Accept"), "text/html") {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>primacyd statusz</title></head><body><pre>%s</pre></body></html>\n",
			html.EscapeString(b.String()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// writeTenantTable renders per-tenant cumulative requests (from the labeled
// request vector) merged with live queue state from the admitter.
func (s *Server) writeTenantTable(b *strings.Builder) {
	inflight, inflightBytes := s.adm.InFlight()
	fmt.Fprintf(b, "load: in_flight=%d in_flight_bytes=%d cache_entries=%d cache_bytes=%d\n\n",
		inflight, inflightBytes, s.cache.Len(), s.cache.Bytes())

	type row struct {
		requests    int64
		queued      int
		queuedBytes int64
		weight      int
	}
	rows := map[string]*row{}
	if s.cfg.Metrics != nil {
		for _, c := range s.cfg.Metrics.Snapshot().LabeledCounters {
			if c.Name != "primacyd_requests_total" {
				continue
			}
			for _, l := range c.Labels {
				if l.Name == "tenant" {
					r := rows[l.Value]
					if r == nil {
						r = &row{}
						rows[l.Value] = r
					}
					r.requests += c.Value
				}
			}
		}
	}
	for _, tl := range s.adm.Tenants() {
		r := rows[tl.Name]
		if r == nil {
			r = &row{}
			rows[tl.Name] = r
		}
		r.queued, r.queuedBytes, r.weight = tl.Queued, tl.QueuedBytes, tl.Weight
	}
	if len(rows) == 0 {
		fmt.Fprintf(b, "tenants: none yet\n\n")
		return
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(b, "tenants:\n  %-24s %12s %8s %14s %7s\n", "tenant", "requests", "queued", "queued_bytes", "weight")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(b, "  %-24s %12d %8d %14d %7d\n", n, r.requests, r.queued, r.queuedBytes, r.weight)
	}
	b.WriteString("\n")
}

// writeAnomalyTail renders the last few anomaly-tagged spans from the flight
// recorder — shed admissions, degraded chunks, 5xx requests, slow requests.
func (s *Server) writeAnomalyTail(b *strings.Builder) {
	anoms := s.cfg.Tracer.Anomalies()
	if len(anoms) == 0 {
		fmt.Fprintf(b, "anomalies: none recorded\n")
		return
	}
	tail := anoms
	if len(tail) > statuszAnomalyTail {
		tail = tail[len(tail)-statuszAnomalyTail:]
	}
	fmt.Fprintf(b, "anomalies (last %d of %d):\n", len(tail), len(anoms))
	for _, rec := range tail {
		fmt.Fprintf(b, "  %10dus %+9dus %-24s id=%d", rec.StartUS, rec.DurUS, rec.Name, rec.ID)
		if id, ok := rec.StrAttr("request_id"); ok {
			fmt.Fprintf(b, " request_id=%s", id)
		}
		if tn, ok := rec.StrAttr("tenant"); ok {
			fmt.Fprintf(b, " tenant=%s", tn)
		}
		for _, e := range rec.Events {
			fmt.Fprintf(b, " [%s %s]", e.Kind, e.Detail)
		}
		b.WriteString("\n")
	}
}
