package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"primacy/internal/bytesplit"
	"primacy/internal/faultinject"
	"primacy/internal/solver"
)

// cancellingSolver cancels a context from inside its Nth CompressTo call, so
// tests can arrange "ctx becomes done mid-call" without timing races.
type cancellingSolver struct {
	name   string
	inner  solver.Compressor
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (s *cancellingSolver) Name() string { return s.name }

func (s *cancellingSolver) CompressTo(dst, src []byte) ([]byte, error) {
	if s.calls.Add(1) == s.after {
		s.cancel()
	}
	return s.inner.CompressTo(dst, src)
}

func (s *cancellingSolver) DecompressTo(dst, src []byte) ([]byte, error) {
	return s.inner.DecompressTo(dst, src)
}

func TestCompressCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw := bytesplit.Float64sToBytes(syntheticDoubles(1_000, 60))
	if _, _, err := new(Codec).AppendCompressCtx(ctx, nil, raw, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestCompressCtxCancelsBetweenChunks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner, err := solver.Get("zlib")
	if err != nil {
		t.Fatal(err)
	}
	// Cancel from inside the first chunk's compression; the codec must notice
	// at the next chunk boundary and unwind without producing a container.
	solver.Register(&cancellingSolver{name: "cancelling", inner: inner, cancel: cancel, after: 1})
	raw := bytesplit.Float64sToBytes(syntheticDoubles(50_000, 61))
	_, _, err = new(Codec).AppendCompressCtx(ctx, nil, raw, Options{Solver: "cancelling", ChunkBytes: 64 * 1024})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestDecompressCtxPreCancelled(t *testing.T) {
	raw := bytesplit.Float64sToBytes(syntheticDoubles(1_000, 62))
	enc, err := Compress(raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := new(Codec).AppendDecompressCtx(ctx, nil, enc); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// degradedContainer builds a container in which every chunk was stored raw
// because the solver failed on the compress side.
func degradedContainer(t *testing.T, values []float64, chunkBytes int) []byte {
	t.Helper()
	f, err := faultinject.New(t.Name()+"-degraded", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	f.FailCompress = true
	enc, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, bytesplit.Float64sToBytes(values),
		Options{Solver: t.Name() + "-degraded", ChunkBytes: chunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DegradedChunks != stats.Chunks || stats.Chunks == 0 {
		t.Fatalf("want all %d chunks degraded, got %d", stats.Chunks, stats.DegradedChunks)
	}
	return enc
}

func TestPanicDuringCompressDegradesToRaw(t *testing.T) {
	// A solver panic — not just an error — must be contained per chunk and
	// degrade that chunk to raw passthrough instead of crashing the caller.
	p, err := faultinject.NewPanicky("panicky-core", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	p.PanicEvery = 1
	raw := syntheticDoubles(2_000, 63)
	enc, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, bytesplit.Float64sToBytes(raw),
		Options{Solver: "panicky-core"})
	if err != nil {
		t.Fatalf("solver panic must degrade, not fail: %v", err)
	}
	if stats.DegradedChunks != stats.Chunks {
		t.Fatalf("want every chunk degraded, got %d of %d", stats.DegradedChunks, stats.Chunks)
	}
	dec, err := decompressFloat64s(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		if dec[i] != raw[i] {
			t.Fatalf("value %d mismatch after panic-degraded round trip", i)
		}
	}
}

func TestRawChunkRandomAccess(t *testing.T) {
	// Degraded (raw-passthrough) chunks must stay randomly accessible: the
	// chunk reader walks flag-2 records and decodes them without a solver.
	values := syntheticDoubles(60_000, 64)
	enc := degradedContainer(t, values, 64*1024)
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumChunks() < 2 {
		t.Fatalf("fixture too small: %d chunks", r.NumChunks())
	}
	if r.RawBytes() != len(values)*8 {
		t.Fatalf("RawBytes = %d, want %d", r.RawBytes(), len(values)*8)
	}
	// Decode a middle chunk in isolation and check it against the source.
	start, _, err := r.ChunkRange(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := r.DecodeChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	want := bytesplit.Float64sToBytes(values)[start : start+len(dec)]
	if !bytes.Equal(dec, want) {
		t.Fatal("raw chunk decoded to wrong bytes")
	}
	got, err := r.DecodeFloat64Range(10_000, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != values[10_000+i] {
			t.Fatalf("range value %d mismatch", i)
		}
	}
}

func TestDegradedContainerVerifiesClean(t *testing.T) {
	enc := degradedContainer(t, syntheticDoubles(20_000, 65), 64*1024)
	_, rep, err := DecompressSalvage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("degraded container reported corrupt: %s", rep)
	}
}

func TestDegradedContainerSalvages(t *testing.T) {
	// Raw chunks must survive the salvage path too — a degraded container
	// that later takes damage loses only the damaged chunks.
	values := syntheticDoubles(60_000, 66)
	enc := degradedContainer(t, values, 64*1024)
	dec, rep, err := DecompressSalvage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean degraded container salvaged with faults: %s", rep)
	}
	if !bytes.Equal(dec, bytesplit.Float64sToBytes(values)) {
		t.Fatal("salvage of degraded container mismatched source")
	}
}

func TestInvalidMappingRejected(t *testing.T) {
	raw := bytesplit.Float64sToBytes(syntheticDoubles(100, 67))
	if _, err := Compress(raw, Options{Mapping: IDMapping(99)}); err == nil {
		t.Fatal("invalid mapping accepted")
	}
}
