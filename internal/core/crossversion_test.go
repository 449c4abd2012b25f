package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/precond"
)

// crossVersionRaw is the shared input behind the committed v2/v3 fixtures:
// a smooth half (where predictxor wins) followed by a noisy half (where the
// classic chain wins), so the auto-selecting fixtures exercise both
// transforms.
func crossVersionRaw() []byte {
	const n = 6144
	rng := rand.New(rand.NewSource(271828))
	out := make([]byte, 0, n*8)
	v := 512.0
	var u64 [8]byte
	for i := 0; i < n/2; i++ {
		v += math.Sin(float64(i)/25) + rng.NormFloat64()*1e-4
		binary.BigEndian.PutUint64(u64[:], math.Float64bits(v))
		out = append(out, u64[:]...)
	}
	noise := make([]byte, n/2*8)
	rng.Read(noise)
	return append(out, noise...)
}

// crossVersionFixtures names every committed fixture and the options that
// produced it. Degraded variants are derived by splicing (see
// spliceRawChunk), not listed here.
func crossVersionFixtures() map[string]Options {
	const chunk = 8192
	return map[string]Options{
		"v2/container_default.prm": {ChunkBytes: chunk},
		"v2/container_reuse.prm":   {ChunkBytes: chunk, IndexMode: IndexReuse},
		"v3/container_fixed_predictxor.prm": {ChunkBytes: chunk,
			Precond: PrecondOptions{Transform: precond.IDPredictXOR}},
		"v3/container_apriori.prm": {ChunkBytes: chunk,
			Precond: PrecondOptions{Selection: precond.APriori}},
		"v3/container_aposteriori.prm": {ChunkBytes: chunk,
			Precond: PrecondOptions{Selection: precond.APosteriori}},
		"v3/container_reuse.prm": {ChunkBytes: chunk, IndexMode: IndexReuse,
			Precond: PrecondOptions{Selection: precond.APriori}},
	}
}

// spliceRawChunk rebuilds a v2/v3 container with the victim chunk's record
// replaced by a degraded raw-passthrough record (flag 2, payload stored
// uncompressed), recomputing the frame CRC — the container a writer produces
// when the solver faults on that one chunk.
func spliceRawChunk(t *testing.T, enc, raw []byte, victim int) []byte {
	t.Helper()
	h, err := parseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := NewChunkReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	start, end, err := cr.ChunkRange(victim)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), enc[:h.end]...)
	pos := h.end
	for i := 0; i < cr.NumChunks(); i++ {
		rec, _, next, err := h.frame(enc, pos)
		if err != nil {
			t.Fatal(err)
		}
		if i == victim {
			rawRec := make([]byte, 0, rawChunkRecLen+end-start)
			var u32 [4]byte
			binary.LittleEndian.PutUint32(u32[:], uint32(end-start))
			rawRec = append(rawRec, u32[:]...)
			rawRec = append(rawRec, rawChunkFlag)
			rawRec = append(rawRec, raw[start:end]...)
			rec = rawRec
		}
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(len(rec)))
		out = append(out, u32[:]...)
		binary.LittleEndian.PutUint32(u32[:], checksum.Sum(rec))
		out = append(out, u32[:]...)
		out = append(out, rec...)
		pos = next
	}
	return out
}

// TestWriteCrossVersionFixtures regenerates the committed fixture set when
// PRIMACY_WRITE_FIXTURES=1. Fixtures are committed, not rebuilt in CI: the
// point is that future decoders handle today's bytes, so the bytes must not
// drift with the toolchain's flate output.
func TestWriteCrossVersionFixtures(t *testing.T) {
	if os.Getenv("PRIMACY_WRITE_FIXTURES") != "1" {
		t.Skip("set PRIMACY_WRITE_FIXTURES=1 to regenerate committed fixtures")
	}
	raw := crossVersionRaw()
	if err := os.WriteFile(filepath.Join("testdata", "cross_raw.bin"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, opts := range crossVersionFixtures() {
		enc, err := Compress(raw, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Degraded variants: the middle chunk of the default v2 and the apriori
	// v3 container stored raw, as if the solver had faulted on it.
	for src, dst := range map[string]string{
		"v2/container_default.prm": "v2/container_degraded.prm",
		"v3/container_apriori.prm": "v3/container_degraded.prm",
	} {
		enc, err := os.ReadFile(filepath.Join("testdata", filepath.FromSlash(src)))
		if err != nil {
			t.Fatal(err)
		}
		cr, err := NewChunkReader(enc)
		if err != nil {
			t.Fatal(err)
		}
		spliced := spliceRawChunk(t, enc, raw, cr.NumChunks()/2)
		if err := os.WriteFile(filepath.Join("testdata", filepath.FromSlash(dst)), spliced, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossVersionDecodeMatrix drives every committed v2/v3 fixture —
// including degraded and IndexReuse variants — through the three read paths
// (strict Decompress, random-access ChunkReader, salvage) and demands
// byte-identical output from each. This is the compatibility contract: new
// writers may emit new versions, but committed bytes decode forever.
func TestCrossVersionDecodeMatrix(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "cross_raw.bin"))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := []string{
		"v2/container_default.prm",
		"v2/container_reuse.prm",
		"v2/container_degraded.prm",
		"v3/container_fixed_predictxor.prm",
		"v3/container_apriori.prm",
		"v3/container_aposteriori.prm",
		"v3/container_reuse.prm",
		"v3/container_degraded.prm",
	}
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			enc, err := os.ReadFile(filepath.Join("testdata", filepath.FromSlash(name)))
			if err != nil {
				t.Fatal(err)
			}
			wantMagic := magicV2
			if filepath.Dir(filepath.FromSlash(name)) == "v3" {
				wantMagic = magicV3
			}
			if string(enc[:4]) != wantMagic {
				t.Fatalf("fixture magic %q, want %q", enc[:4], wantMagic)
			}
			dec, err := Decompress(enc)
			if err != nil {
				t.Fatalf("strict decode: %v", err)
			}
			if !bytes.Equal(dec, raw) {
				t.Fatal("strict decode is not byte-identical")
			}
			_, rep, err := DecompressSalvage(enc)
			if err != nil || !rep.Clean() {
				t.Fatalf("verify: err=%v report=%v", err, rep)
			}
			sal, rep, err := DecompressSalvage(enc)
			if err != nil || !rep.Clean() || !bytes.Equal(sal, raw) {
				t.Fatalf("salvage: err=%v clean=%v identical=%v", err, rep.Clean(), bytes.Equal(sal, raw))
			}
			cr, err := NewChunkReader(enc)
			if err != nil {
				t.Fatal(err)
			}
			reuse := filepath.Base(name) == "container_reuse.prm"
			var got []byte
			for i := 0; i < cr.NumChunks(); i++ {
				chunk, err := cr.DecodeChunk(i)
				if err != nil {
					if reuse && i > 0 {
						// IndexReuse chunks without their own index refuse
						// out-of-context decode by design.
						continue
					}
					t.Fatalf("chunk %d: %v", i, err)
				}
				start, end, err := cr.ChunkRange(i)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(chunk, raw[start:end]) {
					t.Fatalf("chunk %d mismatch via ChunkReader", i)
				}
				got = append(got, chunk...)
			}
			if !reuse && !bytes.Equal(got, raw) {
				t.Fatal("ChunkReader walk is not byte-identical")
			}
		})
	}
}
