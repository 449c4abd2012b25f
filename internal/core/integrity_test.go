package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/faultinject"
)

// TestV1ContainersDecode proves the format-version bump kept backward
// compatibility: containers produced by the pre-checksum seed codec must
// decompress byte-identically.
func TestV1ContainersDecode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1", "raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"container_default.prm",
		"container_lzo_rows_identity.prm",
		"container_reuse_noisobar.prm",
	} {
		t.Run(name, func(t *testing.T) {
			enc, err := os.ReadFile(filepath.Join("testdata", "v1", name))
			if err != nil {
				t.Fatal(err)
			}
			if string(enc[:4]) != magicV1 {
				t.Fatalf("fixture magic %q, want v1", enc[:4])
			}
			dec, err := Decompress(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec, raw) {
				t.Fatal("v1 container did not decompress byte-identically")
			}
			// The random-access reader must also still handle v1 framing
			// (the IndexReuse fixture is excluded: its later chunks carry
			// no index by design).
			if name != "container_reuse_noisobar.prm" {
				cr, err := NewChunkReader(enc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cr.DecodeChunk(0)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, raw[:len(got)]) {
					t.Fatal("v1 chunk 0 mismatch via ChunkReader")
				}
			}
		})
	}
}

// TestEveryBitFlipDetected is the acceptance property for v2: any
// single-bit flip anywhere in an encoded container is detected — the decode
// errors rather than returning silently wrong bytes.
func TestEveryBitFlipDetected(t *testing.T) {
	raw := float64Bytes(syntheticDoubles(96, 7))
	enc, err := Compress(raw, Options{ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(enc)*8; bit++ {
		dec, err := Decompress(faultinject.FlipBit(enc, bit))
		if err == nil && !bytes.Equal(dec, raw) {
			t.Fatalf("bit flip %d (byte %d) decoded silently to wrong data", bit, bit/8)
		}
		if err == nil {
			t.Fatalf("bit flip %d (byte %d) went completely undetected", bit, bit/8)
		}
	}
}

// TestCorruptionBattery runs the shared mutator battery: the decoder must
// reject or decode-identically every mutation, and never panic.
func TestCorruptionBattery(t *testing.T) {
	raw := float64Bytes(syntheticDoubles(256, 11))
	enc, err := Compress(raw, Options{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range faultinject.Battery(enc, 13, 7) {
		dec, err := Decompress(m.Data)
		if err == nil && !bytes.Equal(dec, raw) {
			t.Fatalf("%s: decoded silently to wrong data", m.Name)
		}
	}
}

// TestSalvageSingleCorruptChunk is the acceptance property for salvage:
// with one chunk corrupted, every other chunk's data is recovered and the
// report names the corrupt one.
func TestSalvageSingleCorruptChunk(t *testing.T) {
	raw := float64Bytes(syntheticDoubles(512, 13))
	enc, err := Compress(raw, Options{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if cr.NumChunks() < 4 {
		t.Fatalf("want ≥4 chunks, got %d", cr.NumChunks())
	}
	for victim := 0; victim < cr.NumChunks(); victim++ {
		off := cr.offsets[victim]
		mut := faultinject.FlipBit(enc, (off[0]+(off[1]-off[0])/2)*8)
		if _, err := Decompress(mut); err == nil {
			t.Fatalf("chunk %d corruption not detected by strict decode", victim)
		}
		dec, rep, err := DecompressSalvage(mut)
		if err != nil {
			t.Fatalf("chunk %d: salvage failed entirely: %v", victim, err)
		}
		if rep.Clean() {
			t.Fatalf("chunk %d: salvage reported clean", victim)
		}
		found := false
		for _, c := range rep.Corruptions {
			if c.Chunk == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("chunk %d: report %v does not name the corrupt chunk", victim, rep)
		}
		// Everything outside the victim chunk's raw range must be present.
		start, end, err := cr.ChunkRange(victim)
		if err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), raw[:start]...), raw[end:]...)
		if !bytes.Equal(dec, want) {
			t.Fatalf("chunk %d: salvage recovered %d bytes, want %d (all other chunks)",
				victim, len(dec), len(want))
		}
	}
}

// TestSalvageCorruptLengthFieldResyncs destroys a chunk's length prefix —
// losing the framing, not just the payload — and expects resync to recover
// the following chunks.
func TestSalvageCorruptLengthFieldResyncs(t *testing.T) {
	raw := float64Bytes(syntheticDoubles(512, 17))
	enc, err := Compress(raw, Options{ChunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The frame header (length+crc) sits 8 bytes before the second chunk's
	// record.
	hdrOff := cr.offsets[1][0] - 8
	mut := faultinject.ZeroRegion(enc, hdrOff, 4)
	dec, rep, err := DecompressSalvage(mut)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("report is clean despite destroyed frame header")
	}
	start, end, err := cr.ChunkRange(1)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), raw[:start]...), raw[end:]...)
	if !bytes.Equal(dec, want) {
		t.Fatalf("resync recovered %d bytes, want %d", len(dec), len(want))
	}
}

// TestVerify reports clean containers as clean and corrupt ones with
// located faults.
func TestVerify(t *testing.T) {
	raw := float64Bytes(syntheticDoubles(256, 19))
	enc, err := Compress(raw, Options{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := DecompressSalvage(enc)
	if err != nil || !rep.Clean() {
		t.Fatalf("clean container flagged: %v / %v", err, rep)
	}
	_, rep, err = DecompressSalvage(faultinject.FlipBit(enc, len(enc)/2*8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupt container reported clean")
	}
	if _, _, err := DecompressSalvage([]byte("not a container")); err == nil {
		t.Fatal("garbage accepted by Verify")
	}
}

// TestHeaderChecksumDetectsFlagTampering flips a semantic header byte (the
// linearization flag) — silent under v1, caught by the v2 header CRC.
func TestHeaderChecksumDetectsFlagTampering(t *testing.T) {
	raw := float64Bytes(syntheticDoubles(128, 23))
	enc, err := Compress(raw, Options{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), enc...)
	mut[4] ^= 1 // LinearizeColumns -> LinearizeRows
	_, err = Decompress(mut)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum for tampered header flag, got %v", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checksum error must also wrap ErrCorrupt, got %v", err)
	}
}

// TestAdversarialSizeClaimFailsFast hand-crafts a tiny container whose
// header claims gigabytes: the decode must reject it quickly instead of
// allocating for the claim.
func TestAdversarialSizeClaimFailsFast(t *testing.T) {
	raw := float64Bytes(syntheticDoubles(16, 29))
	enc, err := Compress(raw, Options{ChunkBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Locate the total field: magic(4)+flags(4)+prec(1)+nameLen(1)+name.
	nameLen := int(enc[9])
	totalOff := 10 + nameLen
	mut := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(mut[totalOff:], 2<<30)
	// Recompute the header CRC so only the absurd claim is wrong.
	hdrEnd := totalOff + 8 + 4
	binary.LittleEndian.PutUint32(mut[hdrEnd:], checksum.Sum(mut[:hdrEnd]))
	if _, err := Decompress(mut); err == nil {
		t.Fatal("2 GB claim in a tiny container accepted")
	}
	// A per-chunk raw-length claim beyond maxChunkRaw must also fail.
	if _, err := Decompress(faultinject.Truncate(mut, 100)); err == nil {
		t.Fatal("truncated absurd container accepted")
	}
}
