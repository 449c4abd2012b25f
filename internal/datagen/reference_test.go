package datagen

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"primacy/internal/bytesplit"
)

// referenceGenerate is the original single-pass serial generator, kept
// verbatim as the oracle that Generate must match bit for bit.
func (s Spec) referenceGenerate(n int) []float64 {
	if n == 0 {
		n = DefaultN
	}
	rng := rand.New(rand.NewSource(s.Seed))
	waves := make([]wave, maxi(1, s.Waves))
	for i := range waves {
		waves[i] = wave{
			amp:   0.1 + rng.Float64(),
			freq:  2 * math.Pi / (64 + rng.Float64()*4096),
			phase: rng.Float64() * 2 * math.Pi,
		}
	}
	blockLen := maxi(1, s.BlockLen)
	binades := maxi(1, s.Binades)
	noiseMask := uint64(0)
	if s.NoiseBits > 0 {
		nb := s.NoiseBits
		if nb > 52 {
			nb = 52
		}
		noiseMask = uint64(1)<<uint(nb) - 1
	}
	// quantMask clears mantissa bits below the StructBits most significant
	// ones (StructBits 0 means "keep full precision").
	quantMask := uint64(0)
	if s.StructBits > 0 && s.StructBits < 52 {
		quantMask = uint64(1)<<uint(52-s.StructBits) - 1
	}
	signFreq := 2 * math.Pi / (512 + rng.Float64()*1024)
	signPhase := rng.Float64() * 2 * math.Pi
	out := make([]float64, n)
	curBinade := 0
	for i := 0; i < n; i++ {
		if i%blockLen == 0 {
			curBinade = skewedRank(rng, binades, s.Skew)
		}
		if s.ZeroFrac > 0 && rng.Float64() < s.ZeroFrac {
			out[i] = 0
			continue
		}
		if s.RepeatFrac > 0 && i > 8 && rng.Float64() < s.RepeatFrac {
			out[i] = out[i-1-rng.Intn(8)]
			continue
		}
		// The base mantissa combines a coarse component *correlated with the
		// binade* (real data's exponent and leading mantissa bits both track
		// value magnitude) and a smooth bounded wave component, and stays in
		// [1,2) so the exponent is exactly the binade.
		wsum := 0.0
		for _, w := range waves {
			wsum += w.amp * math.Sin(w.freq*float64(i)+w.phase)
		}
		base := 1 + 0.55*fracPhi(curBinade) + 0.45*(0.5+0.5*math.Tanh(wsum))
		if base >= 2 {
			base = math.Nextafter(2, 1)
		}
		// exponentBase keeps the binade range clear of all-bits-flip
		// exponent boundaries like 0x3FF -> 0x400.
		v := base * math.Pow(2, float64(curBinade+exponentBase))
		// Sign is coherent over runs of elements (physical fields flip sign
		// at region boundaries, not per sample).
		if s.Negative && math.Sin(signFreq*float64(i)+signPhase) < 0 {
			v = -v
		}
		bits := math.Float64bits(v)
		bits &^= quantMask // quantize the signal to StructBits precision
		bits = bits&^noiseMask | rng.Uint64()&noiseMask
		out[i] = math.Float64frombits(bits)
	}
	return out
}

// TestGenerateBytesMatchesReference: GenerateBytes, which serializes each
// range on the goroutine that resolves it, is the serial generator's output
// serialized, at any GOMAXPROCS and across range seams full of repeats.
func TestGenerateBytesMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	repeats := Spec{Name: "repeats", Seed: 3, Binades: 4, BlockLen: 5, NoiseBits: 20, RepeatFrac: 0.9, ZeroFrac: 0.05}
	sppm, _ := ByName("msg_sppm")
	for _, s := range []Spec{repeats, sppm} {
		for _, n := range []int{1, 9, 10, 4099, 3*minPerWorker + 5} {
			want := bytesplit.Float64sToBytes(s.referenceGenerate(n))
			for _, procs := range []int{1, 2, 7} {
				runtime.GOMAXPROCS(procs)
				if got := s.GenerateBytes(n); !bytes.Equal(got, want) {
					t.Fatalf("%s n %d procs %d: GenerateBytes differs from the serial generator", s.Name, n, procs)
				}
			}
		}
	}
}
