package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"primacy/internal/faultinject"
)

// toV1 reframes a v2 container into the checksum-less v1 layout: same header
// fields without the trailing CRC, same chunk records framed by a bare u32
// length. Used to regression-test v1 salvage paths the writer can no longer
// produce.
func toV1(t *testing.T, enc []byte) []byte {
	t.Helper()
	h, err := parseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.version != 2 {
		t.Fatalf("toV1 wants a v2 container, got v%d", h.version)
	}
	out := []byte(magicV1)
	out = append(out, enc[4:h.end-4]...) // header fields minus the CRC
	pos := h.end
	for pos < len(enc) {
		rec, _, next, err := h.frame(enc, pos)
		if err != nil {
			t.Fatal(err)
		}
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(len(rec)))
		out = append(out, u32[:]...)
		out = append(out, rec...)
		pos = next
	}
	return out
}

// TestSalvageV1ResyncAcceptsRawChunks: resync used to reject any v1 record
// whose flag byte exceeded 1, which made a degraded (raw-passthrough,
// flag=2) chunk unreachable after a framing fault — salvage silently lost
// every chunk from the fault onward. The unified check accepts the same flag
// range as every other decode path.
func TestSalvageV1ResyncAcceptsRawChunks(t *testing.T) {
	values := syntheticDoubles(2048, 41)
	encV2 := degradedContainer(t, values, 4096)
	enc := toV1(t, encV2)
	if _, err := Decompress(enc); err != nil {
		t.Fatalf("reframed v1 container does not decode: %v", err)
	}
	cr, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if cr.NumChunks() < 3 {
		t.Fatalf("want ≥3 chunks, got %d", cr.NumChunks())
	}
	// Destroy the second chunk's frame length (v1 frame header is the 4
	// bytes before the record), losing the framing mid-container.
	hdrOff := cr.offsets[1][0] - 4
	mut := faultinject.ZeroRegion(enc, hdrOff, 4)
	dec, rep, err := DecompressSalvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("report clean despite destroyed frame header")
	}
	raw := float64Bytes(values)
	start, end, err := cr.ChunkRange(1)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), raw[:start]...), raw[end:]...)
	if !bytes.Equal(dec, want) {
		t.Fatalf("salvage recovered %d bytes, want %d: resync must accept the raw chunks after the fault",
			len(dec), len(want))
	}
}

// TestDecodeFloat64RangeAdversarialBounds: the bounds check used to compute
// (first+count)*8, which wraps for huge inputs and let out-of-range requests
// slip past validation. The check must reject them without overflowing.
func TestDecodeFloat64RangeAdversarialBounds(t *testing.T) {
	const n = 4096
	values := syntheticDoubles(n, 43)
	enc, err := Compress(float64Bytes(values), Options{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][2]int{
		{-1, 1},
		{0, -1},
		{math.MaxInt64 / 8, 16}, // (first+count)*8 wraps negative
		{1 << 61, 1 << 61},      // (first+count)*8 wraps to 0
		{math.MaxInt64, math.MaxInt64},
		{n, 1},
		{0, n + 1},
		{n - 10, 11},
	}
	for _, b := range bad {
		if _, err := r.DecodeFloat64Range(b[0], b[1]); err == nil {
			t.Errorf("range [%d, +%d) accepted", b[0], b[1])
		}
	}
	// Legitimate edges still work.
	got, err := r.DecodeFloat64Range(n-6, 6)
	if err != nil || len(got) != 6 {
		t.Fatalf("tail range: %d values, %v", len(got), err)
	}
	for i, v := range got {
		if v != values[n-6+i] {
			t.Fatalf("tail value %d mismatch", i)
		}
	}
	if got, err := r.DecodeFloat64Range(n, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty range at end: %d values, %v", len(got), err)
	}
}
