package freq

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func seqBytes(seqs ...uint16) []byte {
	out := make([]byte, 2*len(seqs))
	for i, s := range seqs {
		binary.BigEndian.PutUint16(out[2*i:], s)
	}
	return out
}

func TestHistogram(t *testing.T) {
	hi := seqBytes(5, 5, 9, 5)
	counts, err := Histogram(hi)
	if err != nil {
		t.Fatal(err)
	}
	if counts[5] != 3 || counts[9] != 1 || counts[0] != 0 {
		t.Fatalf("counts: 5=%d 9=%d 0=%d", counts[5], counts[9], counts[0])
	}
}

func TestHistogramOddLength(t *testing.T) {
	if _, err := Histogram([]byte{1}); err == nil {
		t.Fatal("odd length accepted")
	}
}

func TestBuildIndexRanking(t *testing.T) {
	// seq 300 appears 5x, seq 10 appears 5x (tie -> ascending seq),
	// seq 7 appears 9x (most frequent -> ID 0).
	var hi []byte
	for i := 0; i < 9; i++ {
		hi = append(hi, seqBytes(7)...)
	}
	for i := 0; i < 5; i++ {
		hi = append(hi, seqBytes(300, 10)...)
	}
	counts, _ := Histogram(hi)
	idx, err := BuildIndex(counts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumSequences() != 3 {
		t.Fatalf("NumSequences = %d", idx.NumSequences())
	}
	// Encode observes the ranking: 7 -> ID 0, 10 -> ID 1, 300 -> ID 2.
	ids, err := idx.Encode(seqBytes(7, 10, 300))
	if err != nil {
		t.Fatal(err)
	}
	if want := seqBytes(0, 1, 2); !bytes.Equal(ids, want) {
		t.Fatalf("ids = %v want %v", ids, want)
	}
	if ok, err := idx.Covers(seqBytes(9999)); err != nil || ok {
		t.Fatalf("unmapped sequence covered: %v, %v", ok, err)
	}
}

func TestBuildIndexBadHistogram(t *testing.T) {
	if _, err := BuildIndex(make([]uint32, 100)); err == nil {
		t.Fatal("wrong-size histogram accepted")
	}
}

func TestEncodeDecode(t *testing.T) {
	hi := seqBytes(1000, 1000, 42, 1000, 42, 7)
	counts, _ := Histogram(hi)
	idx, _ := BuildIndex(counts)
	ids, err := idx.Encode(hi)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 (3x) -> ID 0; 42 (2x) -> ID 1; 7 (1x) -> ID 2.
	want := seqBytes(0, 0, 1, 0, 1, 2)
	if !bytes.Equal(ids, want) {
		t.Fatalf("ids = %v want %v", ids, want)
	}
	back, err := idx.Decode(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, hi) {
		t.Fatal("decode mismatch")
	}
}

func TestEncodeUnmapped(t *testing.T) {
	counts, _ := Histogram(seqBytes(1))
	idx, _ := BuildIndex(counts)
	if _, err := idx.Encode(seqBytes(2)); err == nil {
		t.Fatal("unmapped sequence encoded")
	}
}

func TestDecodeBadID(t *testing.T) {
	counts, _ := Histogram(seqBytes(1))
	idx, _ := BuildIndex(counts)
	if _, err := idx.Decode(seqBytes(5)); err == nil {
		t.Fatal("out-of-range ID decoded")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	hi := seqBytes(500, 500, 500, 12, 12, 9000)
	counts, _ := Histogram(hi)
	idx, _ := BuildIndex(counts)
	blob := idx.Marshal()
	if len(blob) != MarshalledSize(3) {
		t.Fatalf("marshalled size %d want %d", len(blob), MarshalledSize(3))
	}
	back, err := UnmarshalIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := back.Encode(hi)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := back.Decode(ids)
	if err != nil || !bytes.Equal(orig, hi) {
		t.Fatalf("unmarshalled index broken: %v", err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"short":      {1},
		"truncated":  {0, 0, 0, 2, 0, 1},
		"too long":   {0, 0, 0, 1, 0, 1, 0, 2},
		"duplicates": {0, 0, 0, 2, 0, 1, 0, 1},
	}
	for name, data := range cases {
		if _, err := UnmarshalIndex(data); err == nil {
			t.Errorf("%s: corrupt index accepted", name)
		}
	}
}

func TestCovers(t *testing.T) {
	counts, _ := Histogram(seqBytes(1, 2, 3))
	idx, _ := BuildIndex(counts)
	ok, err := idx.Covers(seqBytes(1, 3))
	if err != nil || !ok {
		t.Fatalf("Covers subset = %v, %v", ok, err)
	}
	ok, err = idx.Covers(seqBytes(1, 4))
	if err != nil || ok {
		t.Fatalf("Covers with novel seq = %v, %v", ok, err)
	}
}

func TestZeroByteEnrichment(t *testing.T) {
	// The point of the mapping: a skewed distribution must yield more
	// zero bytes after encoding than before.
	rng := rand.New(rand.NewSource(42))
	var hi []byte
	for i := 0; i < 10000; i++ {
		// Zipf-ish skew over 100 sequences starting at a nonzero base so
		// the raw data has almost no zero bytes.
		seq := uint16(0x3F00 + zipfish(rng, 100))
		hi = append(hi, seqBytes(seq)...)
	}
	counts, _ := Histogram(hi)
	idx, _ := BuildIndex(counts)
	ids, err := idx.Encode(hi)
	if err != nil {
		t.Fatal(err)
	}
	if zeros(ids) <= zeros(hi) {
		t.Fatalf("mapping did not enrich zero bytes: before=%d after=%d",
			zeros(hi), zeros(ids))
	}
	// High byte of every ID must be 0 when under 256 unique sequences.
	for i := 0; i < len(ids); i += 2 {
		if ids[i] != 0 {
			t.Fatalf("ID high byte nonzero with small alphabet: %d", ids[i])
		}
	}
}

func zipfish(rng *rand.Rand, n int) int {
	// Crude skew: repeatedly halve the range.
	v := rng.Intn(n)
	for rng.Intn(2) == 0 && v > 0 {
		v /= 2
	}
	return v
}

func zeros(p []byte) int {
	n := 0
	for _, b := range p {
		if b == 0 {
			n++
		}
	}
	return n
}

// Property: Encode/Decode are inverse bijections over any input built from
// the index's own histogram.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		hi := raw[:len(raw)/2*2]
		counts, err := Histogram(hi)
		if err != nil {
			return false
		}
		if len(hi) == 0 {
			return true
		}
		idx, err := BuildIndex(counts)
		if err != nil {
			return false
		}
		ids, err := idx.Encode(hi)
		if err != nil {
			return false
		}
		back, err := idx.Decode(ids)
		return err == nil && bytes.Equal(back, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: marshalled indexes survive serialization with mapping intact.
func TestQuickMarshal(t *testing.T) {
	f := func(raw []byte) bool {
		hi := raw[:len(raw)/2*2]
		if len(hi) == 0 {
			return true
		}
		counts, _ := Histogram(hi)
		idx, err := BuildIndex(counts)
		if err != nil {
			return false
		}
		back, err := UnmarshalIndex(idx.Marshal())
		if err != nil {
			return false
		}
		ids := make([]uint16, idx.NumSequences())
		for id := range ids {
			ids[id] = uint16(id)
		}
		a, err1 := idx.Decode(seqBytes(ids...))
		b, err2 := back.Decode(seqBytes(ids...))
		return err1 == nil && err2 == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramAndBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hi := make([]byte, 2<<20)
	for i := 0; i < len(hi); i += 2 {
		binary.BigEndian.PutUint16(hi[i:], uint16(rng.Intn(2000)))
	}
	b.SetBytes(int64(len(hi)))
	for i := 0; i < b.N; i++ {
		counts, err := Histogram(hi)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := BuildIndex(counts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hi := make([]byte, 2<<20)
	for i := 0; i < len(hi); i += 2 {
		binary.BigEndian.PutUint16(hi[i:], uint16(rng.Intn(2000)))
	}
	counts, _ := Histogram(hi)
	idx, _ := BuildIndex(counts)
	b.SetBytes(int64(len(hi)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Encode(hi); err != nil {
			b.Fatal(err)
		}
	}
}
