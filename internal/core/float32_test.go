package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"primacy/internal/bytesplit"
)

// compressFloat32s and decompressFloat32s run single-precision values through
// Compress and Decompress under the Float32 layout.
func compressFloat32s(values []float32, opts Options) ([]byte, error) {
	opts.Precision = Float32
	return Compress(bytesplit.Float32sToBytes(values), opts)
}

func decompressFloat32s(enc []byte) ([]float32, error) {
	raw, err := Decompress(enc)
	if err != nil {
		return nil, err
	}
	return bytesplit.BytesToFloat32s(raw)
}

func syntheticFloat32s(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32((1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(3))))
	}
	return out
}

func TestFloat32RoundTrip(t *testing.T) {
	values := syntheticFloat32s(20_000, 1)
	enc, err := compressFloat32s(values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompressFloat32s(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(values) {
		t.Fatalf("count %d != %d", len(dec), len(values))
	}
	for i := range values {
		if math.Float32bits(dec[i]) != math.Float32bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestFloat32SpecialValues(t *testing.T) {
	values := []float32{0, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.MaxFloat32, math.SmallestNonzeroFloat32, -1}
	for i := 0; i < 1000; i++ {
		values = append(values, float32(i)*0.5)
	}
	enc, err := compressFloat32s(values, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompressFloat32s(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float32bits(dec[i]) != math.Float32bits(values[i]) {
			t.Fatalf("value %d: %x != %x", i, math.Float32bits(dec[i]), math.Float32bits(values[i]))
		}
	}
}

func TestFloat32AlphaOneIsHalf(t *testing.T) {
	raw := bytesplit.Float32sToBytes(syntheticFloat32s(10_000, 2))
	_, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, raw, Options{Precision: Float32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Alpha1 != 0.5 {
		t.Fatalf("float32 alpha1 = %v, want 0.5 (2 of 4 bytes)", stats.Alpha1)
	}
}

func TestFloat32StillCompressesNarrowExponents(t *testing.T) {
	raw := bytesplit.Float32sToBytes(syntheticFloat32s(50_000, 3))
	_, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, raw, Options{Precision: Float32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ratio() <= 1.02 {
		t.Fatalf("narrow-exponent float32 data should compress: %v", stats.Ratio())
	}
}

func TestFloat32RejectsRaggedInput(t *testing.T) {
	if _, err := Compress(make([]byte, 6), Options{Precision: Float32}); err == nil {
		t.Fatal("6 bytes accepted for 4-byte elements")
	}
	// 6 bytes is also invalid for Float64.
	if _, err := Compress(make([]byte, 4), Options{}); err == nil {
		t.Fatal("4 bytes accepted for 8-byte elements")
	}
}

func TestUnknownPrecisionRejected(t *testing.T) {
	if _, err := Compress(make([]byte, 8), Options{Precision: Precision(7)}); err == nil {
		t.Fatal("unknown precision accepted")
	}
}

func TestPrecisionTravelsInHeader(t *testing.T) {
	// A float32 stream decompresses without the caller restating precision.
	values := syntheticFloat32s(5_000, 4)
	enc, err := compressFloat32s(values, Options{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Decompress(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, bytesplit.Float32sToBytes(values)) {
		t.Fatal("header-driven decode mismatch")
	}
}

// Property: arbitrary float32 slices round-trip bit-exactly across all
// option combinations.
func TestQuickFloat32OptionMatrix(t *testing.T) {
	optsList := []Options{
		{},
		{Linearization: LinearizeRows},
		{Mapping: MapIdentity},
		{DisableISOBAR: true},
		{IndexMode: IndexReuse, ChunkBytes: 2048},
		{Solver: "lzo"},
	}
	for i, opts := range optsList {
		opts := opts
		f := func(values []float32) bool {
			enc, err := compressFloat32s(values, opts)
			if err != nil {
				return false
			}
			dec, err := decompressFloat32s(enc)
			if err != nil || len(dec) != len(values) {
				return false
			}
			for j := range values {
				if math.Float32bits(dec[j]) != math.Float32bits(values[j]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("options[%d]: %v", i, err)
		}
	}
}

func BenchmarkCompressFloat32(b *testing.B) {
	values := syntheticFloat32s(1<<17, 5)
	b.SetBytes(int64(len(values) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compressFloat32s(values, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
