package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"primacy/internal/precond"
)

// FuzzDecompress drives the container decoder with adversarial inputs: it
// must never panic, and whenever it accepts an input the result must
// re-compress/decompress consistently. Run with `go test -fuzz=FuzzDecompress`
// for continuous fuzzing; under plain `go test` the seed corpus runs.
func FuzzDecompress(f *testing.F) {
	valid, err := compressFloat64s(syntheticDoubles(500, 99), Options{ChunkBytes: 1024})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PRM1"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0x10
	f.Add(mut)
	// v1 containers carry no chunk CRC, so an adversarial chunk record's
	// claimed raw length reaches the decoder unfiltered. These seeds pin the
	// bound checks that must run before any arithmetic on rawLen: an absurdly
	// large claim and a non-element-aligned one.
	f.Add(v1ChunkWithRawLen(0xFFFFFFFF))
	f.Add(v1ChunkWithRawLen(maxChunkRaw - 3))
	// v3 seeds: a valid preconditioned container (per-chunk transform IDs),
	// one with the tid byte mutated to an unregistered transform, and a
	// truncated record that ends right at the transform-ID byte.
	v3, err := compressFloat64s(syntheticDoubles(500, 98), Options{
		ChunkBytes: 1024,
		Precond:    PrecondOptions{Selection: precond.APriori},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	badTID := append([]byte(nil), v3...)
	if h, err := parseHeader(badTID); err == nil {
		badTID[h.end+8+4+1] = 0x7F
	}
	f.Add(badTID)
	f.Add(v3[:len(v3)/3])
	// Records that pass every checksum and lie to the chunk decoder about
	// one field each (see TestHostileRecordsRejected).
	for _, data := range hostileSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decompress(data)
		if err != nil {
			return
		}
		// Accepted input: decoded data must be whole elements and survive a
		// fresh round trip.
		if len(dec)%8 != 0 {
			t.Fatalf("accepted container yielded %d bytes (not whole elements)", len(dec))
		}
		re, err := Compress(dec, Options{ChunkBytes: 1024})
		if err != nil {
			t.Fatalf("recompress failed: %v", err)
		}
		back, err := Decompress(re)
		if err != nil || !bytes.Equal(back, dec) {
			t.Fatalf("re-round-trip failed: %v", err)
		}
	})
}

// v1ChunkWithRawLen hand-crafts a minimal v1 container whose single chunk
// record claims the given raw length.
func v1ChunkWithRawLen(rawLen uint32) []byte {
	out := []byte("PRM1")
	out = append(out, 0, 0, 0, 0) // lin, mapping, index mode, isobar flag
	out = append(out, 0)          // precision: Float64
	out = append(out, 4)          // solver name length
	out = append(out, "zlib"...)
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], 1<<20) // total raw bytes
	out = append(out, hdr[:]...)                  // total + chunkBytes
	rec := make([]byte, minChunkRecLen)
	binary.LittleEndian.PutUint32(rec, rawLen)
	var clen [4]byte
	binary.LittleEndian.PutUint32(clen[:], uint32(len(rec)))
	out = append(out, clen[:]...)
	return append(out, rec...)
}

// FuzzCompress feeds arbitrary element-aligned bytes through the full
// pipeline and demands a bit-exact round trip.
func FuzzCompress(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x3F, 0xF0, 0, 0, 0, 0, 0, 0}, 16))
	f.Add(bytes.Repeat([]byte{0xAB}, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data)/8*8]
		enc, err := Compress(data, Options{ChunkBytes: 512})
		if err != nil {
			t.Fatalf("compress rejected aligned input: %v", err)
		}
		dec, err := Decompress(enc)
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
