package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"primacy/internal/bytesplit"
	"primacy/internal/chunker"
	"primacy/internal/core"
	"primacy/internal/datagen"
)

func testData(n int) []byte {
	s, _ := datagen.ByName("flash_velx")
	return s.GenerateBytes(n)
}

func roundTrip(t *testing.T, raw []byte, opts Options) []byte {
	t.Helper()
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := Decompress(enc, opts)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatalf("round trip mismatch: %d raw, %d decoded", len(raw), len(dec))
	}
	return enc
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil, Options{})
}

func TestSmallSingleShard(t *testing.T) {
	roundTrip(t, testData(1000), Options{})
}

func TestManyShards(t *testing.T) {
	raw := testData(50_000)
	enc := roundTrip(t, raw, Options{
		ShardBytes: 32 << 10,
		Core:       core.Options{ChunkBytes: 8 << 10},
	})
	if len(enc) >= len(raw) {
		t.Fatalf("compressible data expanded: %d -> %d", len(raw), len(enc))
	}
}

func TestWorkerCounts(t *testing.T) {
	raw := testData(30_000)
	opts1 := Options{Workers: 1, ShardBytes: 16 << 10, Core: core.Options{ChunkBytes: 8 << 10}}
	optsN := Options{Workers: 8, ShardBytes: 16 << 10, Core: core.Options{ChunkBytes: 8 << 10}}
	enc1 := roundTrip(t, raw, opts1)
	encN := roundTrip(t, raw, optsN)
	if !bytes.Equal(enc1, encN) {
		t.Fatal("worker count changed the output bytes (must be deterministic)")
	}
}

func TestShardingMatchesSequentialCore(t *testing.T) {
	// Each shard payload must equal core.Compress of that shard.
	raw := testData(20_000)
	opts := Options{ShardBytes: 64 << 10, Core: core.Options{ChunkBytes: 16 << 10}}
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	shardSize := opts.shardBytes(len(raw), 8)
	want, err := core.Compress(raw[:shardSize], opts.Core)
	if err != nil {
		t.Fatal(err)
	}
	// First shard lives at offset 8 (magic+count) + 8 (len+crc).
	got := enc[16 : 16+len(want)]
	if !bytes.Equal(got, want) {
		t.Fatal("first shard differs from sequential core output")
	}
}

func TestRaggedInputRejected(t *testing.T) {
	if _, err := CompressCtx(context.Background(), make([]byte, 13), Options{}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	enc := roundTrip(t, testData(5_000), Options{})
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("XXXX"), enc[4:]...),
		"truncated": enc[:len(enc)-3],
		"trailing":  append(append([]byte{}, enc...), 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := Decompress(data, Options{}); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestShardBytesRounding(t *testing.T) {
	o := Options{ShardBytes: 13}
	if got := o.shardBytes(1000, 8); got != 8 {
		t.Fatalf("shard rounding: %d", got)
	}
	o = Options{ShardBytes: 0, Workers: 4}
	sb := o.shardBytes(100*8, 8)
	if sb%8 != 0 || sb <= 0 {
		t.Fatalf("default shard size %d not element aligned", sb)
	}
}

// TestChunkBelowOneElement: a chunk smaller than one element is chunker's
// ErrBadChunkSize, with the default shard size and with an explicit one.
func TestChunkBelowOneElement(t *testing.T) {
	raw := make([]byte, 800)
	for _, o := range []Options{
		{Core: core.Options{ChunkBytes: 4}},
		{Core: core.Options{ChunkBytes: 4}, ShardBytes: 400},
		{Core: core.Options{ChunkBytes: 2, Precision: core.Float32}},
	} {
		if _, err := CompressCtx(context.Background(), raw, o); !errors.Is(err, chunker.ErrBadChunkSize) {
			t.Errorf("%+v: %v; want chunker.ErrBadChunkSize", o, err)
		}
	}
}

// Property: round trip holds for arbitrary float64 data and shard sizes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(nElems uint16, shardK uint8) bool {
		s, _ := datagen.ByName("msg_lu")
		raw := s.GenerateBytes(int(nElems)%4096 + 1)
		opts := Options{
			ShardBytes: (int(shardK)%8 + 1) * 1024,
			Core:       core.Options{ChunkBytes: 1024},
		}
		enc, err := CompressCtx(context.Background(), raw, opts)
		if err != nil {
			return false
		}
		dec, err := Decompress(enc, opts)
		return err == nil && bytes.Equal(dec, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParallelCompress(b *testing.B) {
	raw := testData(1 << 18)
	opts := Options{Core: core.Options{ChunkBytes: 256 << 10}}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressCtx(context.Background(), raw, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialCompress(b *testing.B) {
	raw := testData(1 << 18)
	opts := Options{Workers: 1, Core: core.Options{ChunkBytes: 256 << 10}}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressCtx(context.Background(), raw, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Regression test for the headline bug: the sharder hardcoded the float64
// element size, so valid Float32 inputs whose length was 4 mod 8 were
// rejected and shard boundaries could split a float32 in half. Shard sizing
// must follow opts.Core.Precision.
func TestFloat32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := make([]float32, 10_001) // 40_004 bytes: 4 mod 8, multi-shard
	for i := range values {
		values[i] = float32((1 + rng.Float64()) * 100)
	}
	raw := bytesplit.Float32sToBytes(values)
	opts := Options{
		ShardBytes: 8 << 10,
		Core:       core.Options{Precision: core.Float32, ChunkBytes: 4 << 10},
	}
	enc, err := CompressCtx(context.Background(), raw, opts)
	if err != nil {
		t.Fatalf("Compress rejected valid float32 input: %v", err)
	}
	dec, err := Decompress(enc, opts)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("float32 round trip mismatch")
	}
}

// A 4-byte-element input that is not float64-aligned must still shard on
// 4-byte boundaries, and a half-element remains invalid.
func TestFloat32Ragged(t *testing.T) {
	opts := Options{Core: core.Options{Precision: core.Float32}}
	if _, err := CompressCtx(context.Background(), make([]byte, 6), opts); err == nil {
		t.Fatal("6 bytes accepted for 4-byte elements")
	}
	if _, err := CompressCtx(context.Background(), make([]byte, 4), opts); err != nil {
		t.Fatalf("single float32 rejected: %v", err)
	}
}
