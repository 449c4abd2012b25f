package precond

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

func checkShape(src []byte, elemBytes int) error {
	if elemBytes < 2 || elemBytes > 16 {
		return fmt.Errorf("precond: element width %d out of range [2,16]", elemBytes)
	}
	if len(src)%elemBytes != 0 {
		return fmt.Errorf("precond: %d bytes not a multiple of %d-byte elements", len(src), elemBytes)
	}
	return nil
}

// EstimateFraction estimates the compressed fraction of a row-major
// N×elemBytes byte matrix from per-column byte entropy: each column's
// entropy/8 bounds what a byte-level entropy coder can do, and the mean over
// columns approximates the whole-matrix ratio. It is the shared a-priori
// cost signal — the same sampling idea as ISOBAR's column classifier,
// collapsed to one number.
func EstimateFraction(sample []byte, elemBytes int) (float64, error) {
	if err := checkShape(sample, elemBytes); err != nil {
		return 0, err
	}
	n := len(sample) / elemBytes
	if n == 0 {
		return 1, nil
	}
	total := 0.0
	for c := 0; c < elemBytes; c++ {
		var hist [256]int
		for r := 0; r < n; r++ {
			hist[sample[r*elemBytes+c]]++
		}
		ent := 0.0
		for _, h := range hist {
			if h == 0 {
				continue
			}
			p := float64(h) / float64(n)
			ent -= p * math.Log2(p)
		}
		total += ent / 8
	}
	return total / float64(elemBytes), nil
}

// chainTransform is the identity pre-pass: the classic
// bytesplit→freq-map→ISOBAR chain sees the chunk untouched.
type chainTransform struct{}

func (chainTransform) ID() TransformID { return IDChain }
func (chainTransform) Name() string    { return "chain" }

func (chainTransform) Forward(dst, src []byte, elemBytes int) ([]byte, error) {
	if err := checkShape(src, elemBytes); err != nil {
		return nil, err
	}
	return append(dst, src...), nil
}

func (chainTransform) Inverse(dst, src []byte, elemBytes int) ([]byte, error) {
	if err := checkShape(src, elemBytes); err != nil {
		return nil, err
	}
	return append(dst, src...), nil
}

func (chainTransform) CostEstimate(sample []byte, elemBytes int) (float64, error) {
	return EstimateFraction(sample, elemBytes)
}

// predictXORTableBits sizes the FCM/DFCM hash tables. Smaller than FPC's
// default 16: the tables are zeroed per chunk to keep records independently
// decodable, so the reset cost must stay well under the chunk's solver time.
const predictXORTableBits = 12

// predictXORMaxWidth is the widest element predictXOR transforms: it predicts
// whole elements, and an element is one uint64.
const predictXORMaxWidth = 8

// predictXOR is the FPC-lifted prediction-XOR transform: each element is
// read big-endian, XORed with the better of the FCM and DFCM predictions,
// and the residual replaces the original bytes. Unlike FPC proper there is
// no per-value choice bit in the output — the predictor choice is made
// adaptively from the previous element's residuals, which the decoder
// replays exactly — so the transform is length-preserving and the classic
// chain runs unchanged on the residual bytes. Well-predicted streams reach
// the byte split as near-zero residuals: the high-order bytes collapse onto
// a handful of IDs and the mantissa columns drop in entropy.
//
// Elements of 8 bytes, float64, take words, which Forward and Inverse share;
// narrower ones take a byte loop, and wider ones are refused.
type predictXOR struct {
	fcm      [1 << predictXORTableBits]uint64
	dfcm     [1 << predictXORTableBits]uint64
	fcmHash  uint64
	dfcmHash uint64
	last     uint64
	// useDFCM is the adaptive predictor choice: whichever predictor had the
	// smaller residual on the previous element predicts the next one. The
	// decoder reconstructs values in order, so it replays the same choices.
	useDFCM bool
	// hashShift targets the exponent-carrying high bytes of the current
	// element width (48 for float64, matching FPC; scaled down for float32).
	hashShift  uint
	deltaShift uint
	// est recycles the CostEstimate forward-pass scratch across calls.
	est []byte
}

func (p *predictXOR) ID() TransformID { return IDPredictXOR }
func (p *predictXOR) Name() string    { return "predictxor" }

// start checks src's shape, clears predictor state so every chunk transforms
// independently — required for random access and salvage, where chunks decode
// out of order — and returns dst extended by len(src) bytes.
func (p *predictXOR) start(dst, src []byte, elemBytes int) ([]byte, error) {
	if err := checkShape(src, elemBytes); err != nil {
		return nil, err
	}
	if elemBytes > predictXORMaxWidth {
		return nil, fmt.Errorf("precond: predictxor takes elements of at most %d bytes, not %d", predictXORMaxWidth, elemBytes)
	}
	clear(p.fcm[:])
	clear(p.dfcm[:])
	p.fcmHash, p.dfcmHash, p.last, p.useDFCM = 0, 0, 0, false
	// FPC hashes the high 16 (FCM) / 24 (DFCM) bits of 64-bit values; keep
	// the same high-byte targeting at other widths.
	p.hashShift = uint(8 * (elemBytes - 2))
	p.deltaShift = uint(8 * (elemBytes - 3))
	if elemBytes < 3 {
		p.deltaShift = 0
	}
	return slices.Grow(dst, len(src))[:len(dst)+len(src)], nil
}

// step advances the shared compress/decompress state machine with the true
// value v and both predictors' residuals; the next element's prediction and
// predictor choice derive from this state.
func (p *predictXOR) step(v, xf, xd uint64) {
	p.useDFCM = bits.LeadingZeros64(xd) > bits.LeadingZeros64(xf)
	const mask = 1<<predictXORTableBits - 1
	p.fcm[p.fcmHash] = v
	p.fcmHash = ((p.fcmHash << 6) ^ (v >> p.hashShift)) & mask
	delta := v - p.last
	p.dfcm[p.dfcmHash] = delta
	p.dfcmHash = ((p.dfcmHash << 2) ^ (delta >> p.deltaShift)) & mask
	p.last = v
}

// words runs the transform over 8-byte elements from the state start leaves,
// forward or inverse, from src to dst, which has src's length and may be src
// itself: each element is read before its place is written. It is the byte
// loop's lookups, XOR and step at once, the state held in locals, the shifts
// the ones start sets for 8 bytes (48 and 40), and the predictor choice a mask
// rather than a branch.
func (p *predictXOR) words(dst, src []byte, inverse bool) {
	const mask = 1<<predictXORTableBits - 1
	fcm, dfcm := &p.fcm, &p.dfcm
	// useDFCM is all ones where the DFCM prediction is the one to take; keep
	// is what of the prediction the value keeps of x ^ pred: nothing when x
	// is the value (forward), all when x is the residual (inverse).
	var fh, dh, last, useDFCM, keep uint64
	if inverse {
		keep = ^uint64(0)
	}
	dst = dst[:len(src)]
	for i := 0; i+8 <= len(src); i += 8 {
		x := binary.BigEndian.Uint64(src[i : i+8])
		fp, dp := fcm[fh&mask], dfcm[dh&mask]+last
		pred := fp ^ (fp^dp)&useDFCM
		v := x ^ pred&keep
		binary.BigEndian.PutUint64(dst[i:i+8], x^pred) // the residual or the value
		useDFCM = uint64(int64(bits.LeadingZeros64(v^fp)-bits.LeadingZeros64(v^dp)) >> 63)
		fcm[fh&mask] = v
		fh = fh<<6 ^ v>>48
		delta := v - last
		dfcm[dh&mask] = delta
		dh = dh<<2 ^ delta>>40
		last = v
	}
}

func (p *predictXOR) Forward(dst, src []byte, elemBytes int) ([]byte, error) {
	base := len(dst)
	out, err := p.start(dst, src, elemBytes)
	if err != nil {
		return nil, err
	}
	seg := out[base:]
	if elemBytes == 8 {
		p.words(seg, src, false)
		return out, nil
	}
	for i := 0; i < len(src); i += elemBytes {
		v := loadBE(src[i:], elemBytes)
		fcmPred := p.fcm[p.fcmHash]
		dfcmPred := p.dfcm[p.dfcmHash] + p.last
		xf, xd := v^fcmPred, v^dfcmPred
		if p.useDFCM {
			storeBE(seg[i:], xd, elemBytes)
		} else {
			storeBE(seg[i:], xf, elemBytes)
		}
		p.step(v, xf, xd)
	}
	return out, nil
}

// Inverse runs in place when src is the tail of dst, dst[len(dst):][:len(src)]:
// every element is read before its place is written.
func (p *predictXOR) Inverse(dst, src []byte, elemBytes int) ([]byte, error) {
	base := len(dst)
	out, err := p.start(dst, src, elemBytes)
	if err != nil {
		return nil, err
	}
	seg := out[base:]
	if elemBytes == 8 {
		p.words(seg, src, true)
		return out, nil
	}
	mask := uint64(1)<<(8*uint(elemBytes)) - 1
	for i := 0; i < len(src); i += elemBytes {
		res := loadBE(src[i:], elemBytes)
		fcmPred := p.fcm[p.fcmHash]
		dfcmPred := p.dfcm[p.dfcmHash] + p.last
		var v uint64
		if p.useDFCM {
			v = (res ^ dfcmPred) & mask
		} else {
			v = (res ^ fcmPred) & mask
		}
		p.step(v, v^fcmPred, v^dfcmPred)
		storeBE(seg[i:], v, elemBytes)
	}
	return out, nil
}

func (p *predictXOR) CostEstimate(sample []byte, elemBytes int) (float64, error) {
	res, err := p.Forward(p.est[:0], sample, elemBytes)
	if err != nil {
		return 0, err
	}
	p.est = res
	return EstimateFraction(res, elemBytes)
}

// loadBE reads w big-endian bytes into the low bits of a uint64.
func loadBE(b []byte, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// storeBE writes the low w bytes of v big-endian.
func storeBE(b []byte, v uint64, w int) {
	for i := w - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}
