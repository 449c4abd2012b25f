package pipeline

import (
	"bytes"
	"context"
	"testing"

	"primacy/internal/core"
	"primacy/internal/trace"
)

// Spans nest correctly across goroutine boundaries: worker goroutines open
// pipeline.shard children under the call's root span, and the core codec's
// compress spans nest under the shard that ran them via the shard context.
// Run under -race in CI.
func TestShardSpansNestAcrossWorkers(t *testing.T) {
	tr := trace.New(trace.Config{Capacity: 8192})
	trace.Enable(tr)
	defer trace.Enable(nil)

	// 4096 elements = 32 KiB of input at 16 KiB shards = 2 shards/direction.
	data := shardTestData(4096, 42)
	opts := Options{Workers: 4, ShardBytes: 16 << 10, Core: core.Options{ChunkBytes: 4 << 10}}
	enc, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(enc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("round trip mismatch")
	}

	recs := tr.Spans()
	byID := map[uint64]trace.SpanRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	count := map[string]int{}
	for _, r := range recs {
		count[r.Name]++
		switch r.Name {
		case "pipeline.compress", "pipeline.decompress":
			if r.Parent != 0 {
				t.Fatalf("root span %s has parent %d", r.Name, r.Parent)
			}
		case "pipeline.shard":
			p, ok := byID[r.Parent]
			if !ok || (p.Name != "pipeline.compress" && p.Name != "pipeline.decompress") {
				t.Fatalf("shard span parent = %+v", p)
			}
		case "core.compress", "core.decompress", "pipeline.place":
			p, ok := byID[r.Parent]
			if !ok || p.Name != "pipeline.shard" {
				t.Fatalf("%s parent = %+v, want a pipeline.shard span", r.Name, p)
			}
		}
	}
	if count["pipeline.compress"] != 1 || count["pipeline.decompress"] != 1 {
		t.Fatalf("root span counts = %v", count)
	}
	if count["pipeline.shard"] != 4 {
		t.Fatalf("shard spans = %d, want 4 (%v)", count["pipeline.shard"], count)
	}
	if count["core.compress"] != 2 || count["core.decompress"] != 2 || count["pipeline.place"] != 2 {
		t.Fatalf("core span counts = %v", count)
	}
	if count["core.chunk"] == 0 || count["core.stage.solver"] == 0 {
		t.Fatalf("missing chunk/stage spans: %v", count)
	}
}

// Tracing off: the whole layer must vanish behind nil checks — no spans, no
// recorder state, identical output.
func TestTracingDisabledIsInvisible(t *testing.T) {
	data := shardTestData(1024, 7)
	opts := Options{Workers: 2, Core: core.Options{ChunkBytes: 4 << 10}}
	encOff, err := Compress(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{})
	trace.Enable(tr)
	encOn, err := Compress(data, opts)
	trace.Enable(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encOff, encOn) {
		t.Fatal("tracing changed the container bytes")
	}
	if tr.SpanCount() == 0 {
		t.Fatal("enabled tracer saw no spans")
	}
	encOff2, err := CompressCtx(context.Background(), data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encOff, encOff2) {
		t.Fatal("post-disable output differs")
	}
}
