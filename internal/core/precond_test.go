package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"primacy/internal/checksum"
	"primacy/internal/precond"
)

// smoothFloats yields well-predicted data (a slow trajectory with small
// noise) where the FCM/DFCM transform should shine.
func smoothFloats(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*8)
	v := 250.0
	for i := 0; i < n; i++ {
		v += math.Sin(float64(i)/30) + rng.NormFloat64()*1e-4
		binary.BigEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func TestPrecondDisabledStaysV2(t *testing.T) {
	data := smoothFloats(4096, 1)
	enc, err := Compress(data, Options{ChunkBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if string(enc[:4]) != magicV2 {
		t.Fatalf("default options wrote %q, want %q", enc[:4], magicV2)
	}
}

func TestPrecondRoundTripAllModes(t *testing.T) {
	inputs := map[string][]byte{
		"smooth": smoothFloats(8192, 2),
		"noise": func() []byte {
			b := make([]byte, 8192*8)
			rand.New(rand.NewSource(3)).Read(b)
			return b
		}(),
	}
	cfgs := map[string]PrecondOptions{
		"fixed-predictxor": {Transform: precond.IDPredictXOR},
		"apriori":          {Selection: precond.APriori},
		"aposteriori":      {Selection: precond.APosteriori},
	}
	for cfgName, pc := range cfgs {
		for dataName, data := range inputs {
			opts := Options{ChunkBytes: 16384, Precond: pc}
			var c Codec
			enc, stats, err := c.AppendCompressCtx(context.Background(), nil, data, opts)
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", cfgName, dataName, err)
			}
			if string(enc[:4]) != magicV3 {
				t.Fatalf("%s/%s: wrote %q, want %q", cfgName, dataName, enc[:4], magicV3)
			}
			total := 0
			for _, n := range stats.TransformChunks {
				total += n
			}
			if total != stats.Chunks {
				t.Fatalf("%s/%s: TransformChunks sums to %d, want %d chunks (%v)",
					cfgName, dataName, total, stats.Chunks, stats.TransformChunks)
			}
			dec, err := c.Decompress(enc)
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", cfgName, dataName, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s/%s: round trip mismatch", cfgName, dataName)
			}
			// Random access must honor per-chunk transform IDs too.
			r, err := NewChunkReader(enc)
			if err != nil {
				t.Fatalf("%s/%s: reader: %v", cfgName, dataName, err)
			}
			var got []byte
			for i := 0; i < r.NumChunks(); i++ {
				chunk, err := r.DecodeChunk(i)
				if err != nil {
					t.Fatalf("%s/%s: chunk %d: %v", cfgName, dataName, i, err)
				}
				got = append(got, chunk...)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%s: random-access mismatch", cfgName, dataName)
			}
			// Salvage on an intact v3 container must recover everything.
			sal, rep, err := DecompressSalvage(enc)
			if err != nil || !rep.Clean() || !bytes.Equal(sal, data) {
				t.Fatalf("%s/%s: salvage = clean:%v err:%v", cfgName, dataName, rep.Clean(), err)
			}
		}
	}
}

func TestPrecondSmoothPrefersPredictXOR(t *testing.T) {
	data := smoothFloats(16384, 5)
	for _, pc := range []PrecondOptions{
		{Selection: precond.APriori},
		{Selection: precond.APosteriori},
	} {
		_, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, data, Options{ChunkBytes: 32768, Precond: pc})
		if err != nil {
			t.Fatal(err)
		}
		if stats.TransformChunks["predictxor"] == 0 {
			t.Fatalf("%s selection never chose predictxor on smooth data: %v",
				pc.Selection, stats.TransformChunks)
		}
	}
}

func TestPrecondAPosterioriRatioNotWorse(t *testing.T) {
	data := smoothFloats(16384, 7)
	fixed, err := Compress(data, Options{ChunkBytes: 32768})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Compress(data, Options{ChunkBytes: 32768,
		Precond: PrecondOptions{Selection: precond.APosteriori}})
	if err != nil {
		t.Fatal(err)
	}
	// One extra byte per chunk record of slack for the transform ID.
	if len(auto) > len(fixed)+16 {
		t.Fatalf("aposteriori container %d bytes, fixed chain %d", len(auto), len(fixed))
	}
}

func TestPrecondIndexReuse(t *testing.T) {
	data := smoothFloats(8192, 9)
	opts := Options{ChunkBytes: 8192, IndexMode: IndexReuse,
		Precond: PrecondOptions{Transform: precond.IDPredictXOR}}
	enc, stats, err := new(Codec).AppendCompressCtx(context.Background(), nil, data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks < 2 {
		t.Fatalf("want multiple chunks, got %d", stats.Chunks)
	}
	dec, err := Decompress(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("IndexReuse + precond round trip mismatch")
	}
}

func TestPrecondUnknownTransformIDCorrupt(t *testing.T) {
	data := smoothFloats(512, 11)
	enc, err := Compress(data, Options{Precond: PrecondOptions{Transform: precond.IDPredictXOR}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	// First record: frame header (len u32 + crc u32), then rawLen u32 +
	// flag + tid. Overwrite the tid with an unregistered value and refresh
	// the frame CRC so only the tid check can object.
	bad := append([]byte(nil), enc...)
	tidOff := h.end + 8 + 4 + 1
	bad[tidOff] = 0xEE
	rec, _, _ := h.frame(enc, h.end)
	recCopy := bad[h.end+8 : h.end+8+len(rec)]
	binary.LittleEndian.PutUint32(bad[h.end+4:], checksum.Sum(recCopy))
	if _, err := Decompress(bad); err == nil {
		t.Fatal("unregistered transform ID accepted")
	}
}

func TestPrecondBadOptions(t *testing.T) {
	data := smoothFloats(64, 13)
	if _, err := Compress(data, Options{Precond: PrecondOptions{Selection: precond.SelectionMode(9)}}); err == nil {
		t.Fatal("unknown selection mode accepted")
	}
	if _, err := Compress(data, Options{Precond: PrecondOptions{
		Candidates: []precond.TransformID{precond.IDChain, precond.IDChain},
		Selection:  precond.APriori,
	}}); err == nil {
		t.Fatal("duplicate candidates accepted")
	}
}
