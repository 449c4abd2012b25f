package core

import (
	"bytes"
	"math"
	"testing"

	"primacy/internal/bytesplit"
)

func raContainer(t *testing.T, values []float64, opts Options) ([]byte, []byte) {
	t.Helper()
	raw := bytesplit.Float64sToBytes(values)
	enc, err := Compress(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return enc, raw
}

func TestChunkReaderFraming(t *testing.T) {
	values := syntheticDoubles(20_000, 60)
	enc, raw := raContainer(t, values, Options{ChunkBytes: 16 << 10})
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if r.RawBytes() != len(raw) {
		t.Fatalf("raw bytes %d != %d", r.RawBytes(), len(raw))
	}
	want := (len(raw) + (16 << 10) - 1) / (16 << 10)
	if r.NumChunks() != want {
		t.Fatalf("chunks %d want %d", r.NumChunks(), want)
	}
	// Ranges tile the raw stream.
	prev := 0
	for i := 0; i < r.NumChunks(); i++ {
		s, e, err := r.ChunkRange(i)
		if err != nil {
			t.Fatal(err)
		}
		if s != prev || e <= s {
			t.Fatalf("chunk %d range [%d,%d) does not tile (prev end %d)", i, s, e, prev)
		}
		prev = e
	}
	if prev != len(raw) {
		t.Fatalf("ranges end at %d, want %d", prev, len(raw))
	}
}

func TestDecodeSingleChunksMatchFullDecode(t *testing.T) {
	values := syntheticDoubles(20_000, 61)
	enc, raw := raContainer(t, values, Options{ChunkBytes: 16 << 10})
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Decode chunks in reverse order (true random access).
	out := make([]byte, len(raw))
	for i := r.NumChunks() - 1; i >= 0; i-- {
		chunk, err := r.DecodeChunk(i)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		s, e, err := r.ChunkRange(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) != e-s {
			t.Fatalf("chunk %d: %d bytes, range says %d", i, len(chunk), e-s)
		}
		copy(out[s:e], chunk)
	}
	if !bytes.Equal(out, raw) {
		t.Fatal("random-access reassembly differs from original")
	}
}

func TestDecodeFloat64Range(t *testing.T) {
	values := syntheticDoubles(30_000, 62)
	enc, _ := raContainer(t, values, Options{ChunkBytes: 16 << 10})
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	// A range crossing two chunk boundaries.
	first, count := 1_900, 4_300
	got, err := r.DecodeFloat64Range(first, count)
	if err != nil {
		t.Fatal(err)
	}
	// The returned slice covers whole chunks overlapping the range; it must
	// contain the requested values at the right offset.
	cs, _, err := r.ChunkRange(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = cs
	// Locate the first requested element within got: ranges start at the
	// first overlapping chunk boundary.
	startChunkFirstElem := -1
	for i := 0; i < r.NumChunks(); i++ {
		s, e, _ := r.ChunkRange(i)
		if first*8 >= s && first*8 < e {
			startChunkFirstElem = max(first*8, s) / 8
			break
		}
	}
	if startChunkFirstElem < 0 {
		t.Fatal("requested range not found in any chunk")
	}
	for k := 0; k < count; k++ {
		want := values[first+k]
		gotV := got[first+k-startChunkFirstElem]
		if math.Float64bits(gotV) != math.Float64bits(want) {
			t.Fatalf("element %d mismatch", first+k)
		}
	}
	// Bounds validation.
	if _, err := r.DecodeFloat64Range(-1, 10); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := r.DecodeFloat64Range(0, 30_001); err == nil {
		t.Fatal("overlong range accepted")
	}
}

func TestChunkReaderRejectsReuseContainers(t *testing.T) {
	values := syntheticDoubles(20_000, 63)
	enc, _ := raContainer(t, values, Options{ChunkBytes: 16 << 10, IndexMode: IndexReuse})
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0 carries its index and decodes; a later chunk that reuses the
	// first index must refuse random access.
	if _, err := r.DecodeChunk(0); err != nil {
		t.Fatalf("chunk 0 should be self-contained: %v", err)
	}
	sawRefusal := false
	for i := 1; i < r.NumChunks(); i++ {
		if _, err := r.DecodeChunk(i); err != nil {
			sawRefusal = true
			break
		}
	}
	if !sawRefusal {
		t.Fatal("reuse container allowed full random access (stale index would decode wrong data)")
	}
}

func TestChunkReaderIdentityMapping(t *testing.T) {
	// Identity-mapped containers have no indexes at all and are always
	// randomly accessible.
	values := syntheticDoubles(20_000, 64)
	enc, raw := raContainer(t, values, Options{ChunkBytes: 16 << 10, Mapping: MapIdentity})
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := r.DecodeChunk(r.NumChunks() - 1)
	if err != nil {
		t.Fatal(err)
	}
	s, e, _ := r.ChunkRange(r.NumChunks() - 1)
	if !bytes.Equal(chunk, raw[s:e]) {
		t.Fatal("identity random access mismatch")
	}
}

func TestChunkReaderCorrupt(t *testing.T) {
	values := syntheticDoubles(5_000, 65)
	enc, _ := raContainer(t, values, Options{ChunkBytes: 16 << 10})
	cases := map[string][]byte{
		"empty":     {},
		"magic":     append([]byte("XXXX"), enc[4:]...),
		"truncated": enc[:len(enc)-10],
	}
	for name, data := range cases {
		if _, err := NewChunkReader(data); err == nil {
			t.Errorf("%s: corrupt container accepted", name)
		}
	}
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.DecodeChunk(-1); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if _, err := r.DecodeChunk(r.NumChunks()); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, _, err := r.ChunkRange(99); err == nil {
		t.Fatal("out-of-range range accepted")
	}
}

func TestChunkReaderFloat32Rejected(t *testing.T) {
	raw := make([]byte, 4*1000)
	enc, err := Compress(raw, Options{Precision: Float32, ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.DecodeFloat64Range(0, 10); err == nil {
		t.Fatal("float64 range over float32 container accepted")
	}
	// Plain chunk decode still works.
	if _, err := r.DecodeChunk(0); err != nil {
		t.Fatal(err)
	}
}
