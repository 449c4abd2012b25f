package durable

import (
	"context"
	"testing"

	"primacy/internal/telemetry"
)

// Per-tenant journal/fsync/compaction vectors count each put and each
// compaction once: compaction's own fsyncs are not put-path fsyncs.
func TestPerTenantVectors(t *testing.T) {
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)

	dir := t.TempDir()
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := s.Put(ctx, "acme", "series", i, []float64{1, 2}, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact("acme"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "beta", "series", 0, []float64{3}, 1<<20); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.LabeledCounterSum("primacy_durable_tenant_journal_appends_total",
		telemetry.LabelPair{Name: "tenant", Value: "acme"}); got != 3 {
		t.Fatalf("acme appends = %d, want 3", got)
	}
	if got := snap.LabeledCounterSum("primacy_durable_tenant_journal_appends_total"); got != 4 {
		t.Fatalf("total labeled appends = %d, want 4", got)
	}
	if got := snap.LabeledCounterSum("primacy_durable_tenant_journal_bytes_total"); got == 0 {
		t.Fatalf("labeled journal bytes not recorded")
	}
	// One fsync sample per put (fsync is on by default on disk).
	var fsyncs int64
	for _, h := range snap.LabeledHistograms {
		if h.Name == "primacy_durable_tenant_fsync_seconds" {
			fsyncs += h.Count
		}
	}
	if fsyncs != 4 {
		t.Fatalf("per-tenant fsync samples = %d, want 4", fsyncs)
	}
	if got := snap.LabeledCounterSum("primacy_durable_tenant_compactions_total",
		telemetry.LabelPair{Name: "tenant", Value: "acme"},
		telemetry.LabelPair{Name: "outcome", Value: "ok"}); got != 1 {
		t.Fatalf("acme compactions ok = %d, want 1", got)
	}
	if got := snap.LabeledCounterSum("primacy_durable_tenant_compactions_total"); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
}
