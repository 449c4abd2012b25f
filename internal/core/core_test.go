package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"primacy/internal/bytesplit"
	"primacy/internal/solver"
)

// syntheticDoubles builds hard-to-compress scientific-style data: values in
// a narrow exponent band with fully random mantissas.
// compressFloat64s and decompressFloat64s run values through Compress and
// Decompress in their big-endian serialisation.
func compressFloat64s(values []float64, opts Options) ([]byte, error) {
	return Compress(bytesplit.Float64sToBytes(values), opts)
}

func decompressFloat64s(enc []byte) ([]float64, error) {
	raw, err := Decompress(enc)
	if err != nil {
		return nil, err
	}
	return bytesplit.BytesToFloat64s(raw)
}

func syntheticDoubles(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = (1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(4)))
	}
	return out
}

func roundTrip(t *testing.T, values []float64, opts Options) ([]byte, Stats) {
	t.Helper()
	raw := bytesplit.Float64sToBytes(values)
	enc, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, raw, opts)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := Decompress(enc)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(dec, raw) {
		t.Fatalf("round trip mismatch: %d raw, %d decoded", len(raw), len(dec))
	}
	return enc, stats
}

func TestEmptyInput(t *testing.T) {
	roundTrip(t, nil, Options{})
}

func TestSingleValue(t *testing.T) {
	roundTrip(t, []float64{math.Pi}, Options{})
}

func TestBasicRoundTrip(t *testing.T) {
	roundTrip(t, syntheticDoubles(10_000, 1), Options{})
}

func TestMultiChunk(t *testing.T) {
	values := syntheticDoubles(5_000, 2)
	_, stats := roundTrip(t, values, Options{ChunkBytes: 4096})
	if stats.Chunks != (5_000*8+4095)/4096+0 {
		// 40000 bytes / 4096-per-chunk (rounded to 4096, element-aligned)
		// = 10 chunks (40960 > 40000 -> ceil = 10).
		if stats.Chunks < 9 || stats.Chunks > 11 {
			t.Fatalf("unexpected chunk count %d", stats.Chunks)
		}
	}
}

func TestAllSolvers(t *testing.T) {
	values := syntheticDoubles(3_000, 3)
	for _, sv := range []string{"zlib", "lzo", "bzlib", "none"} {
		t.Run(sv, func(t *testing.T) {
			roundTrip(t, values, Options{Solver: sv})
		})
	}
}

func TestRowLinearization(t *testing.T) {
	values := syntheticDoubles(5_000, 4)
	roundTrip(t, values, Options{Linearization: LinearizeRows})
}

func TestIdentityMapping(t *testing.T) {
	values := syntheticDoubles(5_000, 5)
	_, stats := roundTrip(t, values, Options{Mapping: MapIdentity})
	if stats.IndexBytes != 0 {
		t.Fatalf("identity mapping should emit no index, got %d bytes", stats.IndexBytes)
	}
}

func TestDisableISOBAR(t *testing.T) {
	values := syntheticDoubles(5_000, 6)
	_, stats := roundTrip(t, values, Options{DisableISOBAR: true})
	// With ISOBAR disabled all mantissa bytes flow through the solver...
	// unless the expansion guard fires on pure noise; alpha2 is then 0.
	if stats.Alpha2 != 1 && stats.Alpha2 != 0 {
		t.Fatalf("alpha2 = %v, want 0 or 1", stats.Alpha2)
	}
}

func TestIndexReuseEmitsFewerIndexes(t *testing.T) {
	// Stationary distribution: every chunk has the same exponent set, so
	// reuse mode should emit exactly one index.
	values := syntheticDoubles(40_000, 7)
	_, perChunk := roundTrip(t, values, Options{ChunkBytes: 32 << 10})
	_, reuse := roundTrip(t, values, Options{ChunkBytes: 32 << 10, IndexMode: IndexReuse})
	if perChunk.IndexesEmitted != perChunk.Chunks {
		t.Fatalf("per-chunk mode emitted %d indexes for %d chunks",
			perChunk.IndexesEmitted, perChunk.Chunks)
	}
	if reuse.IndexesEmitted >= perChunk.IndexesEmitted {
		t.Fatalf("reuse mode did not reduce indexes: %d vs %d",
			reuse.IndexesEmitted, perChunk.IndexesEmitted)
	}
}

func TestIndexReuseHandlesDistributionShift(t *testing.T) {
	// First half in one exponent band, second half in another: reuse mode
	// must emit a second index and still round-trip.
	rng := rand.New(rand.NewSource(8))
	var values []float64
	for i := 0; i < 10_000; i++ {
		values = append(values, 1+rng.Float64())
	}
	for i := 0; i < 10_000; i++ {
		values = append(values, 1e100*(1+rng.Float64()))
	}
	_, stats := roundTrip(t, values, Options{ChunkBytes: 16 << 10, IndexMode: IndexReuse})
	if stats.IndexesEmitted < 2 {
		t.Fatalf("distribution shift should force a new index, emitted %d", stats.IndexesEmitted)
	}
}

func TestStatsSanity(t *testing.T) {
	values := syntheticDoubles(20_000, 9)
	_, stats := roundTrip(t, values, Options{})
	if stats.Alpha1 != 0.25 {
		t.Fatalf("alpha1 = %v", stats.Alpha1)
	}
	if stats.Alpha2 < 0 || stats.Alpha2 > 1 {
		t.Fatalf("alpha2 = %v", stats.Alpha2)
	}
	if stats.RawBytes != 20_000*8 {
		t.Fatalf("raw bytes = %d", stats.RawBytes)
	}
	if stats.Ratio() <= 1 {
		t.Fatalf("narrow-exponent data should compress: ratio %v", stats.Ratio())
	}
	if stats.SigmaHo <= 0 || stats.SigmaHo >= 1 {
		t.Fatalf("sigmaHo = %v, want in (0,1) for skewed exponents", stats.SigmaHo)
	}
}

func TestCompressNonElementInput(t *testing.T) {
	if _, err := Compress(make([]byte, 13), Options{}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestUnknownSolver(t *testing.T) {
	if _, err := Compress(make([]byte, 16), Options{Solver: "nope"}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestFloat64Helpers(t *testing.T) {
	values := syntheticDoubles(1_000, 10)
	enc, err := compressFloat64s(values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompressFloat64s(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestSpecialValues(t *testing.T) {
	values := []float64{0, -0.0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	// Pad so ISOBAR has enough data.
	for i := 0; i < 1000; i++ {
		values = append(values, float64(i))
	}
	roundTrip(t, values, Options{})
}

func TestDecompressCorrupt(t *testing.T) {
	enc, _ := roundTrip(t, syntheticDoubles(2_000, 11), Options{})
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("XXXX"), enc[4:]...),
		"truncated": enc[:len(enc)/2],
		"short":     enc[:6],
	}
	for name, data := range cases {
		if _, err := Decompress(data); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestDecompressBitFlipsNeverSilent(t *testing.T) {
	values := syntheticDoubles(2_000, 12)
	raw := bytesplit.Float64sToBytes(values)
	enc, err := Compress(raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		mut := append([]byte(nil), enc...)
		i := rng.Intn(len(mut))
		mut[i] ^= 1 << uint(rng.Intn(8))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupt input (flip at %d): %v", i, r)
				}
			}()
			dec, err := Decompress(mut)
			if err == nil && !bytes.Equal(dec, raw) {
				// Flips inside the raw incompressible payload legitimately
				// change data undetectably (no checksum in the paper's
				// format); everything else must error.
				// We only require: no panic and correct length.
				if len(dec) != len(raw) {
					t.Fatalf("silent corruption changed length: flip at %d", i)
				}
			}
		}()
	}
}

func TestPrimacyBeatsVanillaZlibOnHardData(t *testing.T) {
	// The paper's Table III claim: PRIMACY+zlib > vanilla zlib on
	// hard-to-compress data (narrow exponents, noisy mantissas).
	values := syntheticDoubles(100_000, 14)
	raw := bytesplit.Float64sToBytes(values)
	_, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, raw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	z, err := vanillaZlibSize(raw)
	if err != nil {
		t.Fatal(err)
	}
	vanillaRatio := float64(len(raw)) / float64(z)
	if stats.Ratio() <= vanillaRatio {
		t.Fatalf("PRIMACY ratio %.4f <= vanilla zlib %.4f", stats.Ratio(), vanillaRatio)
	}
}

func vanillaZlibSize(raw []byte) (int, error) {
	sv, err := solver.Get("zlib")
	if err != nil {
		return 0, err
	}
	enc, err := sv.CompressTo(nil, raw)
	if err != nil {
		return 0, err
	}
	return len(enc), nil
}

// Property: arbitrary float64 slices round-trip bit-exactly under every
// option combination.
func TestQuickRoundTripOptionMatrix(t *testing.T) {
	optsList := []Options{
		{},
		{Linearization: LinearizeRows},
		{Mapping: MapIdentity},
		{DisableISOBAR: true},
		{IndexMode: IndexReuse, ChunkBytes: 4096},
		{Solver: "lzo"},
	}
	for i, opts := range optsList {
		opts := opts
		f := func(values []float64) bool {
			raw := bytesplit.Float64sToBytes(values)
			enc, err := Compress(raw, opts)
			if err != nil {
				return false
			}
			dec, err := Decompress(enc)
			return err == nil && bytes.Equal(dec, raw)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("options[%d]: %v", i, err)
		}
	}
}

func BenchmarkCompressHardData(b *testing.B) {
	raw := bytesplit.Float64sToBytes(syntheticDoubles(1<<17, 20))
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(raw, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressHardData(b *testing.B) {
	raw := bytesplit.Float64sToBytes(syntheticDoubles(1<<17, 20))
	enc, err := Compress(raw, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Stats invariants hold for arbitrary inputs — sizes account
// exactly, fractions stay in range, and chunk counts match the plan.
func TestQuickStatsInvariants(t *testing.T) {
	f := func(values []float64, chunkK uint8) bool {
		raw := bytesplit.Float64sToBytes(values)
		chunk := (int(chunkK)%64 + 1) * 256
		enc, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, raw, Options{ChunkBytes: chunk})
		if err != nil {
			return false
		}
		if stats.RawBytes != len(raw) || stats.CompressedBytes != len(enc) {
			return false
		}
		if stats.Alpha1 != 0.25 {
			return false
		}
		if stats.Alpha2 < 0 || stats.Alpha2 > 1 {
			return false
		}
		if stats.SigmaHo < 0 || stats.SigmaLo < 0 {
			return false
		}
		if len(values) > 0 {
			elemAligned := chunk - chunk%8
			if elemAligned < 8 {
				elemAligned = 8
			}
			wantChunks := (len(raw) + elemAligned - 1) / elemAligned
			if stats.Chunks != wantChunks {
				return false
			}
			if stats.IndexesEmitted != stats.Chunks {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: decompression stats account for the full output.
func TestQuickDecompStatsInvariants(t *testing.T) {
	f := func(values []float64) bool {
		raw := bytesplit.Float64sToBytes(values)
		enc, err := Compress(raw, Options{ChunkBytes: 2048})
		if err != nil {
			return false
		}
		dec, ds, err := new(Codec).AppendDecompressCtx(context.Background(), nil, enc)
		if err != nil {
			return false
		}
		return ds.RawBytes == len(dec) && ds.PrecSeconds >= 0 && ds.SolverSeconds >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
