package primacy

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"

	"primacy/internal/archive"
	"primacy/internal/core"
	"primacy/internal/pipeline"
	"primacy/internal/stream"
)

func TestFacadeRoundTrip(t *testing.T) {
	spec, ok := DatasetByName("flash_velx")
	if !ok {
		t.Fatal("dataset missing")
	}
	values := spec.Generate(20_000)
	enc, err := CompressFloat64s(values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat64s(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(values) {
		t.Fatalf("count %d != %d", len(dec), len(values))
	}
	for i := range values {
		if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestFacadeStats(t *testing.T) {
	spec, _ := DatasetByName("obs_temp")
	raw := spec.GenerateBytes(20_000)
	var c Codec
	enc, stats, err := c.AppendCompressCtx(context.Background(), nil, raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratio() <= 1 {
		t.Fatalf("ratio %v", stats.Ratio())
	}
	dec, dstats, err := c.AppendDecompressCtx(context.Background(), nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("round trip mismatch")
	}
	if dstats.RawBytes != len(raw) {
		t.Fatalf("dstats raw bytes %d", dstats.RawBytes)
	}
}

func TestFacadeParallel(t *testing.T) {
	spec, _ := DatasetByName("msg_lu")
	raw := spec.GenerateBytes(60_000)
	opts := ParallelOptions{Workers: 4, ShardBytes: 64 << 10,
		Core: Options{ChunkBytes: 32 << 10}}
	enc, err := ParallelCompress(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ParallelDecompress(context.Background(), enc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("parallel round trip mismatch")
	}
	// One admitter gates both in-situ paths; it changes no output byte and
	// holds nothing once they finish.
	adm := NewAdmitter(AdmitterConfig{MemBudget: 64 << 10, MaxConcurrent: 1})
	opts.Admitter = adm
	if got, err := ParallelCompress(context.Background(), raw, opts); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("admitted parallel compress: %v", err)
	}
	var sink bytes.Buffer
	w, err := NewStreamWriter(context.Background(), &sink, StreamWriterOptions{Core: opts.Core, Admitter: adm})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n, b := adm.InFlight(); n != 0 || b != 0 {
		t.Fatalf("admitter capacity leaked: %d admissions, %d bytes", n, b)
	}
}

func TestFacadeModelAndSim(t *testing.T) {
	p := ModelParams{
		ChunkBytes: 3 << 20, Alpha1: 0.25, Alpha2: 0.1,
		SigmaHo: 0.2, SigmaLo: 0.6, Rho: 8,
		Theta: 600e6, MuWrite: 12e6, MuRead: 200e6,
		TPrec: 800e6, TComp: 60e6, TDecomp: 200e6,
	}
	null, err := p.WriteNoCompression()
	if err != nil {
		t.Fatal(err)
	}
	prim, err := p.WritePRIMACY()
	if err != nil {
		t.Fatal(err)
	}
	if prim.Throughput <= null.Throughput {
		t.Fatal("model: PRIMACY should win on slow disk")
	}
	sim, err := SimulateWrite(SimConfig{
		Rho: 8, Timesteps: 2, ChunkBytes: 3 << 20,
		CompressedFraction: 0.8, CodecBps: 60e6, PrecBps: 800e6,
		NetworkBps: 600e6, DiskBps: 12e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Throughput <= 0 {
		t.Fatal("sim produced no throughput")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(Datasets()) != 20 {
		t.Fatalf("expected 20 datasets")
	}
	values := []float64{1, 2, 3, 4}
	perm := PermuteValues(values, 1)
	if len(perm) != 4 {
		t.Fatal("permute length")
	}
}

// Property: the public API round-trips arbitrary data.
func TestQuickFacade(t *testing.T) {
	f := func(values []float64) bool {
		enc, err := CompressFloat64s(values, Options{})
		if err != nil {
			return false
		}
		dec, err := DecompressFloat64s(enc)
		if err != nil || len(dec) != len(values) {
			return false
		}
		for i := range values {
			if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStreaming(t *testing.T) {
	spec, _ := DatasetByName("num_brain")
	raw := spec.GenerateBytes(30_000)
	var sink bytes.Buffer
	w, err := NewStreamWriter(context.Background(), &sink, StreamWriterOptions{Core: Options{ChunkBytes: 32 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(raw); pos += 10_000 {
		end := pos + 10_000
		if end > len(raw) {
			end = len(raw)
		}
		if _, err := w.Write(raw[pos:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := io.ReadAll(NewStreamReader(context.Background(), bytes.NewReader(sink.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("stream round trip mismatch")
	}
}

func TestFacadeFloat32(t *testing.T) {
	values := []float32{1.5, -2.25, 3e10, 0}
	for i := 0; i < 500; i++ {
		values = append(values, float32(i)*1.25)
	}
	enc, err := CompressFloat32s(values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecompressFloat32s(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float32bits(dec[i]) != math.Float32bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestFacadeChunkReader(t *testing.T) {
	spec, _ := DatasetByName("msg_sp")
	raw := spec.GenerateBytes(20_000)
	enc, err := Compress(context.Background(), raw, Options{ChunkBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.RawBytes() != len(raw) || r.NumChunks() < 2 {
		t.Fatalf("framing: %d bytes, %d chunks", r.RawBytes(), r.NumChunks())
	}
	chunk, err := r.DecodeChunk(1)
	if err != nil {
		t.Fatal(err)
	}
	s, e, err := r.ChunkRange(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chunk, raw[s:e]) {
		t.Fatal("random access mismatch")
	}
}

func TestFacadeArchive(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewArchiveWriter(context.Background(), &buf, Options{ChunkBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1, 2, 3, math.Pi}
	for i := 0; i < 500; i++ {
		values = append(values, float64(i)*0.25)
	}
	if err := w.PutFloat64s("density", 0, values); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewArchiveReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.GetFloat64s("density", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float64bits(got[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

// TestFacadeContextEntryPoints runs every ctx-first facade entry point twice:
// under a cancelled context it must fail with context.Canceled, and under
// context.Background() it must produce exactly the bytes of the internal
// call it wraps.
func TestFacadeContextEntryPoints(t *testing.T) {
	spec, _ := DatasetByName("obs_temp")
	values := spec.Generate(12_000)
	raw := spec.GenerateBytes(12_000)
	opts := Options{ChunkBytes: 32 << 10}
	popts := ParallelOptions{Workers: 2, ShardBytes: 32 << 10, Core: opts}
	enc, err := core.Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	penc, err := pipeline.Compress(raw, popts)
	if err != nil {
		t.Fatal(err)
	}
	var senc bytes.Buffer
	sw, err := stream.NewWriter(&senc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	// writeStream and writeArchive drive a writer to completion and return
	// what it wrote, or its first error.
	writeStream := func(w *StreamWriter, err error, sink *bytes.Buffer) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(raw); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return sink.Bytes(), nil
	}
	writeArchive := func(w *ArchiveWriter, err error, sink *bytes.Buffer) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		if err := w.PutFloat64s("v", 0, values); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return sink.Bytes(), nil
	}

	for _, tc := range []struct {
		name     string
		facade   func(ctx context.Context) ([]byte, error)
		internal func() ([]byte, error)
	}{
		{"Compress",
			func(ctx context.Context) ([]byte, error) { return Compress(ctx, raw, opts) },
			func() ([]byte, error) { return core.Compress(raw, opts) }},
		{"Decompress",
			func(ctx context.Context) ([]byte, error) { return Decompress(ctx, enc) },
			func() ([]byte, error) { return core.Decompress(enc) }},
		{"ParallelCompress",
			func(ctx context.Context) ([]byte, error) { return ParallelCompress(ctx, raw, popts) },
			func() ([]byte, error) { return pipeline.Compress(raw, popts) }},
		{"ParallelDecompress",
			func(ctx context.Context) ([]byte, error) { return ParallelDecompress(ctx, penc, popts) },
			func() ([]byte, error) { return pipeline.Decompress(penc, popts) }},
		{"NewStreamWriter",
			func(ctx context.Context) ([]byte, error) {
				var sink bytes.Buffer
				w, err := NewStreamWriter(ctx, &sink, StreamWriterOptions{Core: opts})
				return writeStream(w, err, &sink)
			},
			func() ([]byte, error) {
				var sink bytes.Buffer
				w, err := stream.NewWriter(&sink, opts)
				return writeStream(w, err, &sink)
			}},
		{"NewStreamReader",
			func(ctx context.Context) ([]byte, error) {
				return io.ReadAll(NewStreamReader(ctx, bytes.NewReader(senc.Bytes())))
			},
			func() ([]byte, error) { return io.ReadAll(stream.NewReader(bytes.NewReader(senc.Bytes()))) }},
		{"NewArchiveWriter",
			func(ctx context.Context) ([]byte, error) {
				var sink bytes.Buffer
				w, err := NewArchiveWriter(ctx, &sink, opts)
				return writeArchive(w, err, &sink)
			},
			func() ([]byte, error) {
				var sink bytes.Buffer
				w, err := archive.NewWriter(&sink, opts)
				return writeArchive(w, err, &sink)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := tc.facade(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context: got %v, want context.Canceled", err)
			}
			got, err := tc.facade(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.internal()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("facade wrote %d bytes that differ from the internal call's %d", len(got), len(want))
			}
		})
	}
}
