package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"primacy/internal/bytesplit"
	"primacy/internal/datagen"
)

func TestBitProfileConstantData(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = 1.5
	}
	profile, err := BitPositionProfile(bytesplit.Float64sToBytes(values))
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) != 64 {
		t.Fatalf("profile length %d", len(profile))
	}
	for i, p := range profile {
		if p != 1.0 {
			t.Fatalf("constant data must have p=1 at every position; bit %d = %v", i, p)
		}
	}
}

func TestBitProfileRandomMantissa(t *testing.T) {
	// Hard scientific data: predictable exponents, random mantissas —
	// reproduces Figure 1's p>0.5 head and p≈0.5 tail.
	s, _ := datagen.ByName("obs_temp")
	raw := s.GenerateBytes(50_000)
	profile, err := BitPositionProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Exponent bits (positions 1..11) should be predictable.
	expAvg := 0.0
	for i := 1; i <= 11; i++ {
		expAvg += profile[i]
	}
	expAvg /= 11
	// Low mantissa bits (last 4 bytes) should be near 0.5.
	noiseAvg := 0.0
	for i := 32; i < 64; i++ {
		noiseAvg += profile[i]
	}
	noiseAvg /= 32
	if expAvg < 0.7 {
		t.Fatalf("exponent bits not predictable: avg p = %.3f", expAvg)
	}
	if noiseAvg > 0.55 {
		t.Fatalf("mantissa bits too predictable for hard data: avg p = %.3f", noiseAvg)
	}
}

func TestBitProfileErrors(t *testing.T) {
	if _, err := BitPositionProfile(make([]byte, 9)); err == nil {
		t.Fatal("ragged input accepted")
	}
	p, err := BitPositionProfile(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p {
		if v != 0 {
			t.Fatal("empty input should give zero profile")
		}
	}
}

func TestPairHistogramExponentVsMantissa(t *testing.T) {
	// Figure 3's contrast: exponent pairs concentrate, mantissa pairs
	// spread thin.
	s, _ := datagen.ByName("gts_phi_l")
	raw := s.GenerateBytes(50_000)
	expHist, err := PairHistogram(raw, ExponentPair)
	if err != nil {
		t.Fatal(err)
	}
	manHist, err := PairHistogram(raw, MantissaPairs)
	if err != nil {
		t.Fatal(err)
	}
	expSum := Summarize(expHist, 100)
	manSum := Summarize(manHist, 100)
	if expSum.Unique >= manSum.Unique {
		t.Fatalf("exponent pairs (%d unique) should be fewer than mantissa pairs (%d)",
			expSum.Unique, manSum.Unique)
	}
	if expSum.Peak <= manSum.Peak {
		t.Fatalf("exponent peak %.5f should exceed mantissa peak %.5f",
			expSum.Peak, manSum.Peak)
	}
	if expSum.Entropy >= manSum.Entropy {
		t.Fatalf("exponent entropy %.2f should be below mantissa entropy %.2f",
			expSum.Entropy, manSum.Entropy)
	}
}

func TestPairHistogramNormalized(t *testing.T) {
	s, _ := datagen.ByName("num_comet")
	raw := s.GenerateBytes(10_000)
	for _, region := range []PairRegion{ExponentPair, MantissaPairs} {
		hist, err := PairHistogram(raw, region)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range hist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("region %d: histogram sums to %v", region, sum)
		}
	}
}

func TestPairHistogramBadRegion(t *testing.T) {
	if _, err := PairHistogram(make([]byte, 16), PairRegion(9)); err == nil {
		t.Fatal("bad region accepted")
	}
	if _, err := PairHistogram(make([]byte, 15), ExponentPair); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestSummarizeKnown(t *testing.T) {
	hist := make([]float64, 65536)
	hist[0] = 0.5
	hist[1] = 0.25
	hist[2] = 0.25
	s := Summarize(hist, 2)
	if s.Unique != 3 {
		t.Fatalf("unique = %d", s.Unique)
	}
	if s.Peak != 0.5 {
		t.Fatalf("peak = %v", s.Peak)
	}
	if math.Abs(s.TopMass-0.75) > 1e-12 {
		t.Fatalf("top mass = %v", s.TopMass)
	}
	if math.Abs(s.Entropy-1.5) > 1e-12 {
		t.Fatalf("entropy = %v", s.Entropy)
	}
}

func TestTopByteFrequency(t *testing.T) {
	if got := TopByteFrequency([]byte{1, 1, 1, 2}); got != 0.75 {
		t.Fatalf("top freq = %v", got)
	}
	if got := TopByteFrequency(nil); got != 0 {
		t.Fatalf("empty top freq = %v", got)
	}
}

// Property: profile values always lie in [0.5, 1].
func TestQuickProfileRange(t *testing.T) {
	f := func(values []float64) bool {
		profile, err := BitPositionProfile(bytesplit.Float64sToBytes(values))
		if err != nil {
			return false
		}
		for _, p := range profile {
			if len(values) > 0 && (p < 0.5 || p > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize TopMass never exceeds 1 and grows with k.
func TestQuickTopMassMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hist := make([]float64, 65536)
		total := 0.0
		for i := 0; i < 200; i++ {
			hist[rng.Intn(65536)] += rng.Float64()
		}
		for _, p := range hist {
			total += p
		}
		if total == 0 {
			return true
		}
		for i := range hist {
			hist[i] /= total
		}
		prev := 0.0
		for _, k := range []int{1, 5, 20, 100} {
			m := Summarize(hist, k).TopMass
			if m < prev-1e-12 || m > 1+1e-9 {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBitProfile(b *testing.B) {
	s, _ := datagen.ByName("gts_phi_l")
	raw := s.GenerateBytes(1 << 17)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BitPositionProfile(raw); err != nil {
			b.Fatal(err)
		}
	}
}
