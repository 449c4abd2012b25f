package bytesplit

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Layout generalizes the high/low byte split to floating-point elements of
// other precisions (the paper: "the analyses drawn from these examples can
// be generalized to floating-point data of other precisions"). The
// high-order part is always 2 bytes so the 2-byte-sequence ID mapper applies
// unchanged; the low-order width follows the element size.
type Layout struct {
	// ElemBytes is the element width (8 for float64, 4 for float32).
	ElemBytes int
	// HiBytes is the high-order byte count fed to the ID mapper.
	HiBytes int
}

// Float64Layout is the paper's layout: 2 exponent-carrying bytes + 6
// mantissa bytes.
var Float64Layout = Layout{ElemBytes: 8, HiBytes: 2}

// Float32Layout splits single-precision elements into the 2 bytes holding
// sign, the 8-bit exponent and the leading 7 mantissa bits, plus 2 noisy
// low-order mantissa bytes.
var Float32Layout = Layout{ElemBytes: 4, HiBytes: 2}

// Valid reports whether the layout is usable.
func (l Layout) Valid() bool {
	return l.HiBytes == 2 && l.ElemBytes > l.HiBytes && l.ElemBytes <= 16
}

// LoBytes is the low-order byte count per element.
func (l Layout) LoBytes() int { return l.ElemBytes - l.HiBytes }

// AppendSplit separates an N×ElemBytes row-major matrix into its hi and lo
// parts, appends them to hiDst and loDst and returns the extended slices. Neither destination may alias data. With both
// pre-sized the steady state allocates nothing.
func (l Layout) AppendSplit(hiDst, loDst, data []byte) (hi, lo []byte, err error) {
	if !l.Valid() {
		return nil, nil, fmt.Errorf("bytesplit: invalid layout %+v", l)
	}
	if len(data)%l.ElemBytes != 0 {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	n := len(data) / l.ElemBytes
	lb := l.LoBytes()
	hiBase, loBase := len(hiDst), len(loDst)
	hi = slices.Grow(hiDst, n*l.HiBytes)[:len(hiDst)+n*l.HiBytes]
	lo = slices.Grow(loDst, n*lb)[:len(loDst)+n*lb]
	// Zero-based views keep the split loop at non-append speed; the word
	// kernel moves four elements per iteration (scalar reference for tails
	// and unspecialized widths).
	splitWords(hi[hiBase:], lo[loBase:], data, l.ElemBytes)
	return hi, lo, nil
}

// AppendSplitCount is AppendSplit fused with the frequency histogram: one
// traversal fills the hi and lo planes and increments counts[seq] for each
// big-endian 2-byte high-order sequence, so building a fresh per-chunk index
// never re-reads the hi plane. counts must have SequencePairs entries; the
// caller owns zeroing it between chunks (reusing one flat counter arena per
// codec keeps the pass allocation-free).
func (l Layout) AppendSplitCount(hiDst, loDst, data []byte, counts []uint32) (hi, lo []byte, err error) {
	if !l.Valid() {
		return nil, nil, fmt.Errorf("bytesplit: invalid layout %+v", l)
	}
	if len(counts) != SequencePairs {
		return nil, nil, fmt.Errorf("bytesplit: counts size %d, want %d", len(counts), SequencePairs)
	}
	if len(data)%l.ElemBytes != 0 {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	n := len(data) / l.ElemBytes
	hiBase, loBase := len(hiDst), len(loDst)
	hi = slices.Grow(hiDst, n*l.HiBytes)[:len(hiDst)+n*l.HiBytes]
	lo = slices.Grow(loDst, n*l.LoBytes())[:len(loDst)+n*l.LoBytes()]
	splitCountWords(hi[hiBase:], lo[loBase:], data, l.ElemBytes, counts)
	return hi, lo, nil
}

// AppendMerge inverts AppendSplit: it appends the matrix reassembled from
// the hi and lo parts to dst and returns the extended slice. dst must not alias hi or lo.
func (l Layout) AppendMerge(dst, hi, lo []byte) ([]byte, error) {
	if !l.Valid() {
		return nil, fmt.Errorf("bytesplit: invalid layout %+v", l)
	}
	if len(hi)%l.HiBytes != 0 {
		return nil, fmt.Errorf("%w: hi %d", ErrBadLength, len(hi))
	}
	lb := l.LoBytes()
	if len(lo)%lb != 0 {
		return nil, fmt.Errorf("%w: lo %d", ErrBadLength, len(lo))
	}
	n := len(hi) / l.HiBytes
	if len(lo)/lb != n {
		return nil, fmt.Errorf("bytesplit: element count mismatch: hi %d lo %d", n, len(lo)/lb)
	}
	base := len(dst)
	out := slices.Grow(dst, n*l.ElemBytes)[:len(dst)+n*l.ElemBytes]
	mergeWords(out[base:], hi, lo, l.ElemBytes)
	return out, nil
}

// Float32sToBytes serializes values big-endian so byte 0 of each element is
// the sign/exponent byte.
func Float32sToBytes(values []float32) []byte {
	out := make([]byte, len(values)*4)
	for i, v := range values {
		binary.BigEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// BytesToFloat32s inverts Float32sToBytes.
func BytesToFloat32s(data []byte) ([]float32, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	out := make([]float32, len(data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.BigEndian.Uint32(data[i*4:]))
	}
	return out, nil
}
