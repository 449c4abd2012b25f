package isobar

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeMatrix builds an N×width row-major matrix where column c is filled by
// gen(c, row).
func makeMatrix(n, width int, gen func(c, r int) byte) []byte {
	out := make([]byte, n*width)
	for r := 0; r < n; r++ {
		for c := 0; c < width; c++ {
			out[r*width+c] = gen(c, r)
		}
	}
	return out
}

func TestAnalyzeSeparatesConstantFromRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := makeMatrix(50_000, 6, func(c, r int) byte {
		if c < 2 {
			return byte(c) // constant columns: trivially compressible
		}
		return byte(rng.Intn(256)) // uniform noise: incompressible
	})
	a, err := Analyze(data, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if !a.Columns[c].Compressible {
			t.Fatalf("constant column %d classified incompressible (H=%.2f)", c, a.Columns[c].Entropy)
		}
	}
	for c := 2; c < 6; c++ {
		if a.Columns[c].Compressible {
			t.Fatalf("random column %d classified compressible (H=%.2f top=%.3f)",
				c, a.Columns[c].Entropy, a.Columns[c].TopFrequency)
		}
	}
	if got := a.CompressibleFraction(); got != 2.0/6.0 {
		t.Fatalf("CompressibleFraction = %v", got)
	}
	if a.Mask != 0b000011 {
		t.Fatalf("Mask = %b", a.Mask)
	}
}

func TestAnalyzeSkewedColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A column that is 30% zeros but otherwise random: high entropy yet
	// worth compressing (run-length gains) — caught by DefaultTopFreqThreshold.
	data := makeMatrix(50_000, 1, func(c, r int) byte {
		if rng.Intn(10) < 3 {
			return 0
		}
		return byte(rng.Intn(256))
	})
	a, err := Analyze(data, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Columns[0].Compressible {
		t.Fatalf("skewed column missed: H=%.2f top=%.3f",
			a.Columns[0].Entropy, a.Columns[0].TopFrequency)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a, err := Analyze(nil, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mask != 0 || a.CompressibleFraction() != 0 {
		t.Fatalf("empty analysis: mask=%b frac=%v", a.Mask, a.CompressibleFraction())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(make([]byte, 5), 2, Options{}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if _, err := Analyze(nil, 0, Options{}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := Analyze(nil, 65, Options{}); err == nil {
		t.Fatal("width > 64 accepted")
	}
}

func TestSamplingMatchesFullScanOnUniformData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := makeMatrix(200_000, 2, func(c, r int) byte {
		if c == 0 {
			return byte(rng.Intn(4))
		}
		return byte(rng.Intn(256))
	})
	sampled, err := Analyze(data, 2, Options{SampleBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Analyze(data, 2, Options{SampleBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		if sampled.Columns[c].Compressible != full.Columns[c].Compressible {
			t.Fatalf("column %d: sampled verdict %v != full %v",
				c, sampled.Columns[c].Compressible, full.Columns[c].Compressible)
		}
	}
}

func TestPartitionUnpartition(t *testing.T) {
	data := []byte{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	} // 3x3, columns: (1,4,7),(2,5,8),(3,6,9)
	comp, incomp, err := AppendPartition(nil, nil, data, 3, 0b101) // columns 0 and 2
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comp, []byte{1, 4, 7, 3, 6, 9}) {
		t.Fatalf("comp = %v", comp)
	}
	if !bytes.Equal(incomp, []byte{2, 5, 8}) {
		t.Fatalf("incomp = %v", incomp)
	}
	back, err := AppendUnpartition(nil, comp, incomp, 3, 0b101, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("unpartition = %v", back)
	}
}

func TestPartitionAllOrNone(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	comp, incomp, err := AppendPartition(nil, nil, data, 2, 0b11)
	if err != nil || len(incomp) != 0 || len(comp) != 4 {
		t.Fatalf("all-mask: %v %v %v", comp, incomp, err)
	}
	comp, incomp, err = AppendPartition(nil, nil, data, 2, 0)
	if err != nil || len(comp) != 0 || len(incomp) != 4 {
		t.Fatalf("zero-mask: %v %v %v", comp, incomp, err)
	}
}

func TestUnpartitionSizeValidation(t *testing.T) {
	if _, err := AppendUnpartition(nil, []byte{1}, []byte{}, 2, 0b01, 2); err == nil {
		t.Fatal("short comp buffer accepted")
	}
	if _, err := AppendUnpartition(nil, []byte{1, 2}, []byte{3}, 2, 0b01, 2); err == nil {
		t.Fatal("short incomp buffer accepted")
	}
}

// Property: AppendPartition/AppendUnpartition is the identity for any mask.
func TestQuickPartitionRoundTrip(t *testing.T) {
	f := func(raw []byte, maskSeed uint8, w uint8) bool {
		width := int(w)%6 + 1
		n := len(raw) / width
		data := raw[:n*width]
		mask := uint64(maskSeed) & ((1 << uint(width)) - 1)
		comp, incomp, err := AppendPartition(nil, nil, data, width, mask)
		if err != nil {
			return false
		}
		if len(comp)+len(incomp) != len(data) {
			return false
		}
		back, err := AppendUnpartition(nil, comp, incomp, width, mask, n)
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the analyzer never classifies pure noise as compressible with
// default thresholds (large sample).
func TestQuickNoiseRejected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 60_000)
		rng.Read(data)
		a, err := Analyze(data, 6, Options{})
		if err != nil {
			return false
		}
		return a.Mask == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3<<20)
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(data, 6, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartition(b *testing.B) {
	data := make([]byte, 3<<20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, _, err := AppendPartition(nil, nil, data, 6, 0b010101); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBitFrequencyModeMatchesByteModeOnClearCases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := makeMatrix(60_000, 4, func(c, r int) byte {
		switch c {
		case 0:
			return 3 // constant: compressible in any mode
		case 1:
			return byte(rng.Intn(8)) // 3 low bits vary: 5 skewed bits
		default:
			return byte(rng.Intn(256)) // noise
		}
	})
	byteMode, err := Analyze(data, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bitMode, err := Analyze(data, 4, Options{Mode: ModeBitFrequency})
	if err != nil {
		t.Fatal(err)
	}
	if byteMode.Mask != bitMode.Mask {
		t.Fatalf("modes disagree on clear cases: byte=%b bit=%b", byteMode.Mask, bitMode.Mask)
	}
	if bitMode.Columns[0].SkewedBits != 8 {
		t.Fatalf("constant column skewed bits = %d, want 8", bitMode.Columns[0].SkewedBits)
	}
	if bitMode.Columns[3].SkewedBits > 1 {
		t.Fatalf("noise column skewed bits = %d", bitMode.Columns[3].SkewedBits)
	}
}

// TestBitFrequencyThresholdKnobs: a column with one skewed bit position
// falls short of DefaultSkewedBitsRequired.
func TestBitFrequencyThresholdKnobs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// One bit position strongly skewed, the rest noise.
	data := makeMatrix(50_000, 1, func(c, r int) byte {
		b := byte(rng.Intn(256)) | 0x80 // top bit always set
		return b
	})
	a, err := Analyze(data, 1, Options{Mode: ModeBitFrequency})
	if err != nil {
		t.Fatal(err)
	}
	if a.Columns[0].SkewedBits != 1 || a.Columns[0].Compressible {
		t.Fatalf("one skewed bit (counted %d) should not satisfy a %d-bit requirement",
			a.Columns[0].SkewedBits, DefaultSkewedBitsRequired)
	}
}

func TestBitFrequencyRoundTripThroughCore(t *testing.T) {
	// The bit mode must compose with AppendPartition/AppendUnpartition like
	// any mask.
	rng := rand.New(rand.NewSource(13))
	data := make([]byte, 6*10_000)
	rng.Read(data)
	a, err := Analyze(data, 6, Options{Mode: ModeBitFrequency})
	if err != nil {
		t.Fatal(err)
	}
	comp, incomp, err := AppendPartition(nil, nil, data, 6, a.Mask)
	if err != nil {
		t.Fatal(err)
	}
	back, err := AppendUnpartition(nil, comp, incomp, 6, a.Mask, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("bit-mode mask broke partition round trip")
	}
}
