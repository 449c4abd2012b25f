package durable

import (
	"sync/atomic"

	"primacy/internal/telemetry"
)

// durMetrics bundles the durable store's telemetry handles. The bundle
// pointer is loaded once per operation, so the disabled path costs one
// atomic load + nil check (the same pattern as the other subsystems).
type durMetrics struct {
	journalRepairs *telemetry.Counter
	compactSeconds *telemetry.Histogram
	recoveredEnt   *telemetry.Counter
	replayDups     *telemetry.Counter
	tornTails      *telemetry.Counter
	tornTailBytes  *telemetry.Counter
	salvagedSeals  *telemetry.Counter

	// Per-tenant vectors (bounded cardinality; hot tenants past the cap
	// collapse into the "other" bucket). Totals are sums over them.
	appendsByTenant *telemetry.CounterVec
	bytesByTenant   *telemetry.CounterVec
	fsyncByTenant   *telemetry.HistogramVec
	compactByTenant *telemetry.CounterVec
}

var tmet atomic.Pointer[durMetrics]

// EnableTelemetry registers the durable store's metrics on r and starts
// recording; a nil r disables recording.
func EnableTelemetry(r *telemetry.Registry) {
	if r == nil {
		tmet.Store(nil)
		return
	}
	tmet.Store(&durMetrics{
		journalRepairs: r.Counter("primacy_durable_journal_repairs_total", "Journals truncated back to the last durable record after a failed append."),
		compactSeconds: r.Histogram("primacy_durable_compact_seconds", "Wall time of journal compactions.", nil),
		recoveredEnt:   r.Counter("primacy_durable_recovered_entries_total", "Entries loaded at startup recovery (sealed + journal)."),
		replayDups:     r.Counter("primacy_durable_replay_duplicates_total", "Journal records skipped at recovery because the sealed segment already held them."),
		tornTails:      r.Counter("primacy_durable_torn_tails_total", "Journals whose unverifiable tail was truncated at recovery."),
		tornTailBytes:  r.Counter("primacy_durable_torn_tail_bytes_total", "Journal tail bytes truncated at recovery."),
		salvagedSeals:  r.Counter("primacy_durable_salvaged_segments_total", "Sealed segments whose open at recovery found faults."),

		appendsByTenant: r.CounterVec("primacy_durable_tenant_journal_appends_total",
			"Journal appends attributed to a tenant.", []string{"tenant"}),
		bytesByTenant: r.CounterVec("primacy_durable_tenant_journal_bytes_total",
			"Framed journal bytes attributed to a tenant.", []string{"tenant"}),
		fsyncByTenant: r.HistogramVec("primacy_durable_tenant_fsync_seconds",
			"Journal fsync wall time on a tenant's put path.", []string{"tenant"}, nil),
		compactByTenant: r.CounterVec("primacy_durable_tenant_compactions_total",
			"Compactions attributed to a tenant, by outcome.", []string{"tenant", "outcome"}),
	})
}
