// Package fpzip implements an fpzip-style predictive compressor for
// double-precision scientific data (Lindstrom & Isenburg, IEEE TVCG 2006) —
// the second predictive-coding baseline of the paper's Section V.
//
// Each value is predicted with an n-dimensional Lorenzo predictor over its
// already-decoded neighbors (1D: previous value; 2D: a+b-ab; 3D:
// a+b+c-ab-ac-bc+abc), the actual bits are XORed with the prediction's
// bits, and residuals are entropy-coded as a Huffman-coded leading-zero-byte
// class plus raw remainder bytes.
//
// Substitution note (documented in DESIGN.md): the original fpzip uses
// range/arithmetic coding of mapped integer residuals; this implementation
// keeps the Lorenzo prediction structure but uses the repository's Huffman
// coder, preserving the baseline's qualitative behaviour (strong on smooth,
// dimensionally correlated fields; weak on turbulent or reorganized data).
package fpzip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"primacy/internal/bitio"
	"primacy/internal/huffman"
)

const magic = "FPZ1"

// ErrCorrupt indicates a malformed stream.
var ErrCorrupt = errors.New("fpzip: corrupt stream")

// ErrBadDims indicates an invalid grid specification.
var ErrBadDims = errors.New("fpzip: bad dimensions")

// Dims describes the data grid. Unused trailing dimensions are 1.
type Dims struct {
	NX, NY, NZ int
}

// d1 returns normalized dimensions with zeros promoted to 1.
func (d Dims) normalized() Dims {
	if d.NX == 0 {
		d.NX = 1
	}
	if d.NY == 0 {
		d.NY = 1
	}
	if d.NZ == 0 {
		d.NZ = 1
	}
	return d
}

func (d Dims) count() int { return d.NX * d.NY * d.NZ }

func (d Dims) validate(n int) error {
	if d.NX < 1 || d.NY < 1 || d.NZ < 1 {
		return fmt.Errorf("%w: %+v", ErrBadDims, d)
	}
	if d.count() != n {
		return fmt.Errorf("%w: grid %+v holds %d values, data has %d", ErrBadDims, d, d.count(), n)
	}
	return nil
}

// lorenzo predicts grid[z][y][x] from already-visited neighbors.
func lorenzo(values []float64, d Dims, x, y, z int) float64 {
	at := func(dx, dy, dz int) float64 {
		xi, yi, zi := x-dx, y-dy, z-dz
		if xi < 0 || yi < 0 || zi < 0 {
			return 0
		}
		return values[(zi*d.NY+yi)*d.NX+xi]
	}
	switch {
	case d.NZ > 1:
		return at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) -
			at(1, 1, 0) - at(1, 0, 1) - at(0, 1, 1) + at(1, 1, 1)
	case d.NY > 1:
		return at(1, 0, 0) + at(0, 1, 0) - at(1, 1, 0)
	default:
		return at(1, 0, 0)
	}
}

// residual classes: 0..8 leading zero bytes.
const numClasses = 9

// Compress encodes values over the given grid. A zero-valued Dims is
// treated as 1D.
func Compress(values []float64, d Dims) ([]byte, error) {
	d = d.normalized()
	if len(values) > 0 {
		if err := d.validate(len(values)); err != nil {
			return nil, err
		}
	}
	// Pass 1: compute residuals and class frequencies.
	residuals := make([]uint64, len(values))
	classes := make([]uint16, len(values))
	freqs := make([]int, numClasses)
	i := 0
	if len(values) > 0 {
		for z := 0; z < d.NZ; z++ {
			for y := 0; y < d.NY; y++ {
				for x := 0; x < d.NX; x++ {
					pred := lorenzo(values, d, x, y, z)
					r := math.Float64bits(values[i]) ^ math.Float64bits(pred)
					residuals[i] = r
					c := bits.LeadingZeros64(r) / 8
					classes[i] = uint16(c)
					freqs[c]++
					i++
				}
			}
		}
	}
	w := bitio.NewWriter(len(values)*7 + 64)
	if len(values) > 0 {
		codec, err := huffman.Build(freqs)
		if err != nil {
			return nil, err
		}
		if err := codec.WriteLengths(w); err != nil {
			return nil, err
		}
		for i, r := range residuals {
			if err := codec.Encode(w, int(classes[i])); err != nil {
				return nil, err
			}
			nres := 8 - int(classes[i])
			if nres > 0 {
				if err := w.WriteBits(r, uint(nres*8)); err != nil {
					return nil, err
				}
			}
		}
	}
	payload := w.Bytes()

	out := make([]byte, 0, len(payload)+40)
	out = append(out, magic...)
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(values)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.NX))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(d.NY))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(d.NZ))
	out = append(out, hdr[:]...)
	return append(out, payload...), nil
}

// Decompress reverses Compress, returning the values and the original grid.
func Decompress(data []byte) ([]float64, Dims, error) {
	var d Dims
	if len(data) < len(magic)+32 {
		return nil, d, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(data[:len(magic)]) != magic {
		return nil, d, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h := data[len(magic):]
	n := binary.LittleEndian.Uint64(h[0:])
	d.NX = int(binary.LittleEndian.Uint64(h[8:]))
	d.NY = int(binary.LittleEndian.Uint64(h[16:]))
	d.NZ = int(binary.LittleEndian.Uint64(h[24:]))
	// Every value costs at least one bit in the class stream, so n is
	// bounded by the payload size; a lying header must not drive allocation.
	if n > 1<<37 || n > uint64(len(data))*8 {
		return nil, d, fmt.Errorf("%w: absurd count %d for %d bytes", ErrCorrupt, n, len(data))
	}
	if n == 0 {
		return []float64{}, d, nil
	}
	if err := d.validate(int(n)); err != nil {
		return nil, d, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	values := make([]float64, n)
	r := bitio.NewReader(data[len(magic)+32:])
	codec, err := huffman.ReadLengths(r)
	if err != nil {
		return nil, d, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	i := 0
	for z := 0; z < d.NZ; z++ {
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				c, err := codec.Decode(r)
				if err != nil {
					return nil, d, fmt.Errorf("%w: %v", ErrCorrupt, err)
				}
				if c < 0 || c >= numClasses {
					return nil, d, fmt.Errorf("%w: class %d", ErrCorrupt, c)
				}
				var res uint64
				nres := 8 - c
				if nres > 0 {
					res, err = r.ReadBits(uint(nres * 8))
					if err != nil {
						return nil, d, fmt.Errorf("%w: %v", ErrCorrupt, err)
					}
				}
				pred := lorenzo(values, d, x, y, z)
				values[i] = math.Float64frombits(math.Float64bits(pred) ^ res)
				i++
			}
		}
	}
	return values, d, nil
}
