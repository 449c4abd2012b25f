// Package datagen synthesizes the 20 scientific double-precision datasets of
// the paper's evaluation (Table III). The originals (GTS fusion, FLASH
// astrophysics, MSG parallel benchmarks, NUM numeric simulations, OBS
// satellite observations) are not redistributable, so each named dataset is
// replaced by a seeded generator whose parameters are tuned to land near the
// paper's vanilla-zlib compression ratio for that dataset — reproducing the
// properties PRIMACY exploits:
//
//   - exponent locality: values live in a small, skewed set of binades, so
//     the 2 high-order bytes have few unique byte pairs (paper Fig. 3a);
//   - mantissa incompressibility: the low-order bytes carry NoiseBits of
//     true randomness (paper Fig. 1 / Fig. 3b);
//   - repeats/zeros: easy datasets (msg_sppm) contain verbatim value
//     repeats and exact zeros that LZ-style solvers exploit directly;
//   - smoothness: predictively codable datasets follow a low-frequency wave
//     mixture that FCM/DFCM/Lorenzo predictors track.
package datagen

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"primacy/internal/bytesplit"
)

// DefaultN is the element count generators produce when the caller passes 0.
// 512Ki doubles = 4 MiB, i.e. two of the paper's 3 MB chunks.
const DefaultN = 512 << 10

// Spec parameterizes one synthetic dataset.
type Spec struct {
	// Name matches the paper's dataset naming (Table III).
	Name string
	// Description summarizes what the original dataset was.
	Description string
	// Seed makes generation deterministic.
	Seed int64
	// Binades is how many distinct power-of-two exponent blocks values
	// span. Fewer binades = fewer unique high-order byte pairs.
	Binades int
	// Skew in (0,inf) skews binade choice toward low ranks (higher = more
	// skewed, i.e. a few exponents dominate).
	Skew float64
	// BlockLen is how many consecutive elements share a binade (exponent
	// locality).
	BlockLen int
	// NoiseBits in [0,52] is how many low-order mantissa bits are true
	// noise. 48 randomizes all six low-order bytes.
	NoiseBits int
	// StructBits in [0,52] is how many leading mantissa bits carry the
	// (quantized) smooth signal; bits between StructBits and NoiseBits are
	// zero, mimicking the limited significant precision of sensor and
	// simulation outputs. StructBits+NoiseBits should be <= 52.
	StructBits int
	// RepeatFrac is the probability a value verbatim-repeats a recent one.
	RepeatFrac float64
	// ZeroFrac is the probability of an exact zero.
	ZeroFrac float64
	// Waves is the number of sinusoid components in the smooth base signal;
	// more, longer waves = smoother, more predictable data.
	Waves int
	// Negative allows negative values (sign bit variation).
	Negative bool
}

// Specs returns the 20 datasets in Table III order.
func Specs() []Spec {
	return []Spec{
		{Name: "gts_chkp_zeon", Description: "GTS fusion checkpoint, zeon grid", Seed: 101,
			Binades: 48, Skew: 1.5, BlockLen: 8, NoiseBits: 48, StructBits: 2, Waves: 4},
		{Name: "gts_chkp_zion", Description: "GTS fusion checkpoint, zion grid", Seed: 102,
			Binades: 44, Skew: 1.5, BlockLen: 8, NoiseBits: 48, StructBits: 2, Waves: 4},
		{Name: "gts_phi_l", Description: "GTS electrostatic potential, linear", Seed: 103,
			Binades: 24, Skew: 2.0, BlockLen: 6, NoiseBits: 48, StructBits: 3, Waves: 5, Negative: true},
		{Name: "gts_phi_nl", Description: "GTS electrostatic potential, nonlinear", Seed: 104,
			Binades: 22, Skew: 2.0, BlockLen: 6, NoiseBits: 48, StructBits: 3, Waves: 6, Negative: true},
		{Name: "flash_gamc", Description: "FLASH hydrodynamics, gamma_c", Seed: 105,
			Binades: 10, Skew: 2.8, BlockLen: 1024, NoiseBits: 36, StructBits: 10, RepeatFrac: 0.10, Waves: 6},
		{Name: "flash_velx", Description: "FLASH hydrodynamics, x velocity", Seed: 106,
			Binades: 12, Skew: 2.4, BlockLen: 32, NoiseBits: 44, StructBits: 4, RepeatFrac: 0.04, Waves: 5, Negative: true},
		{Name: "flash_vely", Description: "FLASH hydrodynamics, y velocity", Seed: 107,
			Binades: 12, Skew: 2.4, BlockLen: 32, NoiseBits: 44, StructBits: 4, RepeatFrac: 0.06, Waves: 5, Negative: true},
		{Name: "msg_bt", Description: "NAS BT message trace", Seed: 108,
			Binades: 20, Skew: 2.2, BlockLen: 640, NoiseBits: 42, StructBits: 8, RepeatFrac: 0.06, Waves: 8},
		{Name: "msg_lu", Description: "NAS LU message trace", Seed: 109,
			Binades: 26, Skew: 2.0, BlockLen: 16, NoiseBits: 46, StructBits: 4, RepeatFrac: 0.02, Waves: 8},
		{Name: "msg_sp", Description: "NAS SP message trace", Seed: 110,
			Binades: 22, Skew: 2.1, BlockLen: 24, NoiseBits: 44, StructBits: 6, RepeatFrac: 0.05, Waves: 7},
		{Name: "msg_sppm", Description: "ASCI sPPM message trace (easy-to-compress)", Seed: 111,
			Binades: 4, Skew: 3.5, BlockLen: 2048, NoiseBits: 12, StructBits: 8, RepeatFrac: 0.6, ZeroFrac: 0.35, Waves: 3},
		{Name: "msg_sweep3d", Description: "ASCI Sweep3D message trace", Seed: 112,
			Binades: 24, Skew: 2.1, BlockLen: 16, NoiseBits: 44, StructBits: 6, RepeatFrac: 0.04, Waves: 7},
		{Name: "num_brain", Description: "brain-dynamics numeric simulation", Seed: 113,
			Binades: 16, Skew: 1.9, BlockLen: 8, NoiseBits: 46, StructBits: 3, Waves: 6, Negative: true},
		{Name: "num_comet", Description: "comet shoemaker-levy simulation", Seed: 114,
			Binades: 14, Skew: 2.5, BlockLen: 896, NoiseBits: 40, StructBits: 8, RepeatFrac: 0.08, Waves: 5},
		{Name: "num_control", Description: "control-system state trace", Seed: 115,
			Binades: 32, Skew: 1.4, BlockLen: 4, NoiseBits: 46, StructBits: 3, Waves: 9, Negative: true},
		{Name: "num_plasma", Description: "plasma temperature field", Seed: 116,
			Binades: 8, Skew: 3.0, BlockLen: 1536, NoiseBits: 20, StructBits: 14, RepeatFrac: 0.18, Waves: 4},
		{Name: "obs_error", Description: "observation error residuals", Seed: 117,
			Binades: 12, Skew: 2.7, BlockLen: 1024, NoiseBits: 28, StructBits: 12, RepeatFrac: 0.14, Waves: 5, Negative: true},
		{Name: "obs_info", Description: "observation information content", Seed: 118,
			Binades: 18, Skew: 2.3, BlockLen: 704, NoiseBits: 42, StructBits: 8, RepeatFrac: 0.05, Waves: 6},
		{Name: "obs_spitzer", Description: "Spitzer telescope fluxes", Seed: 119,
			Binades: 14, Skew: 2.5, BlockLen: 832, NoiseBits: 36, StructBits: 10, RepeatFrac: 0.09, Waves: 6},
		{Name: "obs_temp", Description: "atmospheric temperature observations", Seed: 120,
			Binades: 26, Skew: 2.1, BlockLen: 8, NoiseBits: 48, StructBits: 2, Waves: 5},
	}
}

// ByName looks a dataset up by its Table III name.
func ByName(name string) (Spec, bool) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

type wave struct {
	amp, freq, phase float64
}

// exponentBase offsets all binades so the generated exponent range
// (1023+exponentBase ...) never crosses a power-of-two boundary of the
// 11-bit exponent field, where every exponent bit would flip at once.
const exponentBase = 65

// fracPhi maps an integer to a low-discrepancy value in [0,1) (golden-ratio
// hashing) — used to give each binade a stable leading-mantissa offset.
func fracPhi(b int) float64 {
	x := float64(b) * 0.6180339887498949
	return x - math.Floor(x)
}

// Element kinds the draw pass records: a value is computed by the value
// pass, a zero stays 0, and kindRepeat+k copies element i-1-k.
const (
	kindValue byte = iota
	kindZero
	kindRepeat
)

// maxBinade caps the binade the draw pass stores. The cap is exact: from
// here on 2^(binade+exponentBase) overflows to +Inf, so every value is ±Inf
// with its noise whatever the binade.
const maxBinade = 1024 - exponentBase

// minPerWorker is the fewest elements one value-pass goroutine computes, so
// calls under twice this many run the value pass on the caller's goroutine.
const minPerWorker = 64 << 10

// Generate produces n elements (n=0 selects DefaultN). Generation is
// deterministic in (Spec, n) and independent of GOMAXPROCS: one serial pass
// makes every random draw in order, the values — a pure function of the
// spec, the index and that element's draws — are computed in parallel over
// contiguous ranges, and then, over the same ranges, each repeat takes the
// value its chain of repeats ends at.
func (s Spec) Generate(n int) []float64 {
	p := s.draw(n)
	p.parallel(p.fill)
	p.parallel(p.resolve)
	return p.out
}

// GenerateBytes is Generate serialized big-endian (the codec's input form).
// Each range is serialized by the goroutine that resolves its repeats.
func (s Spec) GenerateBytes(n int) []byte {
	p := s.draw(n)
	b := make([]byte, len(p.out)*bytesplit.BytesPerValue)
	p.parallel(p.fill)
	p.parallel(func(lo, hi int) {
		p.resolve(lo, hi)
		// b has room behind the range's start, so this writes in place.
		bytesplit.AppendFloat64s(b[lo*bytesplit.BytesPerValue:lo*bytesplit.BytesPerValue], p.out[lo:hi])
	})
	return b
}

// draw is Generate's serial pass: it sets up the value pass and makes every
// random draw, in order.
func (s Spec) draw(n int) *valuePass {
	if n == 0 {
		n = DefaultN
	}
	rng := rand.New(rand.NewSource(s.Seed))
	p := &valuePass{negative: s.Negative, waves: make([]wave, maxi(1, s.Waves))}
	for i := range p.waves {
		p.waves[i] = wave{
			amp:   0.1 + rng.Float64(),
			freq:  2 * math.Pi / (64 + rng.Float64()*4096),
			phase: rng.Float64() * 2 * math.Pi,
		}
	}
	p.blockLen = maxi(1, s.BlockLen)
	binades := maxi(1, s.Binades)
	if s.NoiseBits > 0 {
		nb := s.NoiseBits
		if nb > 52 {
			nb = 52
		}
		p.noiseMask = uint64(1)<<uint(nb) - 1
	}
	// quantMask clears mantissa bits below the StructBits most significant
	// ones (StructBits 0 means "keep full precision").
	if s.StructBits > 0 && s.StructBits < 52 {
		p.quantMask = uint64(1)<<uint(52-s.StructBits) - 1
	}
	p.signFreq = 2 * math.Pi / (512 + rng.Float64()*1024)
	p.signPhase = rng.Float64() * 2 * math.Pi

	// Draws: a kind per element, a binade per block, and each value's
	// masked noise word parked in its own output slot.
	p.out = make([]float64, n)
	p.kinds = make([]byte, n)
	p.binade = make([]uint16, (n+p.blockLen-1)/p.blockLen)
	for i := 0; i < n; i++ {
		if i%p.blockLen == 0 {
			p.binade[i/p.blockLen] = uint16(min(skewedRank(rng, binades, s.Skew), maxBinade))
		}
		if s.ZeroFrac > 0 && rng.Float64() < s.ZeroFrac {
			p.kinds[i] = kindZero
			continue
		}
		if s.RepeatFrac > 0 && i > 8 && rng.Float64() < s.RepeatFrac {
			p.kinds[i] = kindRepeat + byte(rng.Intn(8))
			continue
		}
		p.out[i] = math.Float64frombits(rng.Uint64() & p.noiseMask)
	}
	return p
}

// parallel runs fn over contiguous ranges of the elements, on up to
// GOMAXPROCS goroutines, and returns when every range is done. The passes it
// runs draw nothing, so any split of [0, n) gives the same bits.
func (p *valuePass) parallel(fn func(lo, hi int)) {
	n := len(p.out)
	workers := max(1, min(runtime.GOMAXPROCS(0), n/minPerWorker))
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := per; lo < n; lo += per {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+per, n))
	}
	fn(0, min(per, n))
	wg.Wait()
}

// valuePass holds what the value of an element depends on besides its
// index: the spec's constants and the draw pass's record. It has no random
// source, so its elements can be computed in any order.
type valuePass struct {
	waves                []wave
	signFreq, signPhase  float64
	negative             bool
	noiseMask, quantMask uint64
	blockLen             int
	binade               []uint16 // per block
	kinds                []byte   // per element
	out                  []float64
}

// resolve gives every repeat in out[lo:hi] its value, once fill is done over
// all of out: a repeat copies element i-1-k, and a repeat of a repeat what
// that one copies. In index order a source inside the range is resolved
// already; one before lo is followed down its chain to the element that is
// no repeat, so no range reads a slot another range writes.
func (p *valuePass) resolve(lo, hi int) {
	for i := lo; i < hi; i++ {
		if p.kinds[i] < kindRepeat {
			continue
		}
		src := i - 1 - int(p.kinds[i]-kindRepeat)
		for src < lo && p.kinds[src] >= kindRepeat {
			src -= 1 + int(p.kinds[src]-kindRepeat)
		}
		p.out[i] = p.out[src]
	}
}

// fill computes the value elements of out[lo:hi], merging each with the
// noise word the draw pass left in its slot.
func (p *valuePass) fill(lo, hi int) {
	for blk := lo / p.blockLen; blk*p.blockLen < hi; blk++ {
		curBinade := int(p.binade[blk])
		phi := fracPhi(curBinade)
		// exponentBase keeps the binade range clear of all-bits-flip
		// exponent boundaries like 0x3FF -> 0x400.
		scale := math.Pow(2, float64(curBinade+exponentBase))
		for i := max(lo, blk*p.blockLen); i < min(hi, (blk+1)*p.blockLen); i++ {
			if p.kinds[i] != kindValue {
				continue
			}
			// The base mantissa combines a coarse component *correlated with
			// the binade* (real data's exponent and leading mantissa bits
			// both track value magnitude) and a smooth bounded wave
			// component, and stays in [1,2) so the exponent is exactly the
			// binade.
			wsum := 0.0
			for _, w := range p.waves {
				wsum += w.amp * math.Sin(w.freq*float64(i)+w.phase)
			}
			base := 1 + 0.55*phi + 0.45*(0.5+0.5*math.Tanh(wsum))
			if base >= 2 {
				base = math.Nextafter(2, 1)
			}
			v := base * scale
			// Sign is coherent over runs of elements (physical fields flip
			// sign at region boundaries, not per sample).
			if p.negative && math.Sin(p.signFreq*float64(i)+p.signPhase) < 0 {
				v = -v
			}
			bits := math.Float64bits(v)
			bits &^= p.quantMask // quantize the signal to StructBits precision
			bits = bits&^p.noiseMask | math.Float64bits(p.out[i])
			p.out[i] = math.Float64frombits(bits)
		}
	}
}

// skewedRank draws a rank in [0, n) with probability mass concentrated at
// low ranks; skew > 1 sharpens the concentration.
func skewedRank(rng *rand.Rand, n int, skew float64) int {
	if skew <= 0 {
		skew = 1
	}
	r := int(math.Pow(rng.Float64(), skew) * float64(n))
	if r >= n {
		r = n - 1
	}
	return r
}

// Permute returns a seeded random permutation of values — the paper's
// "user-controlled linearization" experiment (Sec. IV-G), which destroys
// run-length and dimensional correlation while preserving value statistics.
func Permute(values []float64, seed int64) []float64 {
	out := append([]float64(nil), values...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
	})
	return out
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
