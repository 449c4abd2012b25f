package pipeline

import (
	"context"
	"testing"
	"time"

	"primacy/internal/core"
	"primacy/internal/fairshare"
	"primacy/internal/faultinject"
	"primacy/internal/telemetry"
)

// enableAll routes the packages under test to one registry and restores the
// disabled state afterward, so telemetry never leaks into other tests.
func enableAll(t *testing.T) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	core.EnableTelemetry(reg)
	fairshare.EnableTelemetry(reg)
	EnableTelemetry(reg)
	t.Cleanup(func() {
		core.EnableTelemetry(nil)
		fairshare.EnableTelemetry(nil)
		EnableTelemetry(nil)
	})
	return reg
}

// An admitted pipeline run must surface admission waits, shard counts, core
// chunk/byte accounting, and stage timings on the registry.
func TestPipelineTelemetryEndToEnd(t *testing.T) {
	reg := enableAll(t)

	const chunk = 8 << 10
	raw := testData(6 * chunk / 8) // 6 chunks
	a := fairshare.New(fairshare.Config{MaxConcurrent: 1})
	opts := Options{
		Workers:    2,
		ShardBytes: 2 * chunk, // 3 shards
		Core:       core.Options{ChunkBytes: chunk},
		Admitter:   a,
	}
	queued := func() int { n, _ := a.Queued(""); return n }

	// Hold the admitter's only slot so the first shard must queue: the wait
	// metrics are then guaranteed nonzero, not racing the workers.
	if err := a.Acquire(context.Background(), "", 1); err != nil {
		t.Fatalf("pre-acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := CompressCtx(context.Background(), raw, opts)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for queued() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if queued() == 0 {
		t.Fatal("no shard ever queued at the admitter")
	}
	a.Release(1)
	if err := <-done; err != nil {
		t.Fatalf("Compress: %v", err)
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacy_pipeline_shards_total"); v != 3 {
		t.Errorf("shards_total = %d, want 3", v)
	}
	if v, _ := snap.Counter("primacy_fairshare_blocked_total"); v < 1 {
		t.Errorf("fairshare blocked_total = %d, want >= 1", v)
	}
	if h, ok := snap.Histogram("primacy_fairshare_wait_seconds"); !ok || h.Count < 1 {
		t.Errorf("fairshare wait histogram count = %d, want >= 1", h.Count)
	}
	if v, _ := snap.Gauge("primacy_fairshare_queue_depth"); v != 0 {
		t.Errorf("queue depth after completion = %d, want 0", v)
	}
	if v, _ := snap.Gauge("primacy_fairshare_inflight"); v != 0 {
		t.Errorf("inflight after completion = %d, want 0", v)
	}
	if v, _ := snap.Counter("primacy_core_chunks_total"); v != 6 {
		t.Errorf("chunks_total = %d, want 6", v)
	}
	if v, _ := snap.Counter("primacy_core_raw_bytes_total"); v != int64(len(raw)) {
		t.Errorf("raw_bytes_total = %d, want %d", v, len(raw))
	}
	if v, _ := snap.Counter("primacy_core_compressed_bytes_total"); v <= 0 {
		t.Errorf("compressed_bytes_total = %d, want > 0", v)
	}
	for _, name := range []string{
		"primacy_core_bytesplit_seconds",
		"primacy_core_freqmap_seconds",
		"primacy_core_solver_seconds",
		"primacy_pipeline_shard_seconds",
	} {
		if h, ok := snap.Histogram(name); !ok || h.Count < 1 {
			t.Errorf("%s count = %d, want >= 1", name, h.Count)
		}
	}
}

// Solver faults degrade chunks to raw passthrough; the degraded-chunk
// counter must record every one.
func TestDegradedChunkMetric(t *testing.T) {
	reg := enableAll(t)

	fi, err := faultinject.New("tlm-degrade", "zlib")
	if err != nil {
		t.Fatalf("faultinject.New: %v", err)
	}
	fi.FailCompress = true
	defer func() { fi.FailCompress = false }()

	const chunk = 8 << 10
	raw := testData(4 * chunk / 8)
	_, err = CompressCtx(context.Background(), raw, Options{
		Workers: 2,
		Core:    core.Options{ChunkBytes: chunk, Solver: "tlm-degrade"},
	})
	if err != nil {
		t.Fatalf("Compress with faulting solver: %v", err)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Counter("primacy_core_degraded_chunks_total"); v != 4 {
		t.Errorf("degraded_chunks_total = %d, want 4", v)
	}
}
