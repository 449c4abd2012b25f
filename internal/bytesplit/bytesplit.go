// Package bytesplit handles the byte-matrix manipulations at the heart of
// the PRIMACY preconditioner: splitting each big-endian float64 into its 2
// high-order bytes (sign + exponent + leading mantissa bits) and 6 low-order
// mantissa bytes, and linearizing byte matrices column-by-column (Sec. II-B
// and II-D of the paper).
package bytesplit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// BytesPerValue is the element width of double-precision data.
const BytesPerValue = 8

// ErrBadLength indicates a byte slice whose length is not a multiple of the
// element width.
var ErrBadLength = errors.New("bytesplit: length not a multiple of element size")

// Float64sToBytes serializes values big-endian so byte 0 of each element is
// the sign/exponent byte (the layout the paper's analysis assumes).
func Float64sToBytes(values []float64) []byte {
	return AppendFloat64s(make([]byte, 0, len(values)*BytesPerValue), values)
}

// AppendFloat64s appends the Float64sToBytes serialization of values to dst.
func AppendFloat64s(dst []byte, values []float64) []byte {
	off := len(dst)
	dst = slices.Grow(dst, len(values)*BytesPerValue)[:len(dst)+len(values)*BytesPerValue]
	for i, v := range values {
		binary.BigEndian.PutUint64(dst[off+i*BytesPerValue:], math.Float64bits(v))
	}
	return dst
}

// BytesToFloat64s inverts Float64sToBytes.
func BytesToFloat64s(data []byte) ([]float64, error) {
	if len(data)%BytesPerValue != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	out := make([]float64, len(data)/BytesPerValue)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*BytesPerValue:]))
	}
	return out, nil
}

// AppendColumnize appends the column-major form of an N×width row-major
// matrix (all of column 0, then column 1, ...) to dst and returns the
// extended slice — the paper's "byte-level data linearization" that lines up
// runs of equal bytes for the solver's RLE. dst must not alias data. With
// dst pre-sized the steady state allocates nothing.
func AppendColumnize(dst, data []byte, width int) ([]byte, error) {
	if width <= 0 {
		return nil, fmt.Errorf("bytesplit: non-positive width %d", width)
	}
	if len(data)%width != 0 {
		return nil, fmt.Errorf("%w: %d not divisible by width %d", ErrBadLength, len(data), width)
	}
	n := len(data) / width
	base := len(dst)
	out := slices.Grow(dst, len(data))[:len(dst)+len(data)]
	// Width 2 — the ID matrix every chunk transposes — runs word-at-a-time;
	// other widths keep the scalar gather.
	columnizeWords(out[base:base+len(data)], data, width, n)
	return out, nil
}

// AppendDecolumnize inverts AppendColumnize: it appends the row-major form of
// column-major data to dst and returns the extended slice. dst must not alias data.
func AppendDecolumnize(dst, data []byte, width int) ([]byte, error) {
	if width <= 0 {
		return nil, fmt.Errorf("bytesplit: non-positive width %d", width)
	}
	if len(data)%width != 0 {
		return nil, fmt.Errorf("%w: %d not divisible by width %d", ErrBadLength, len(data), width)
	}
	n := len(data) / width
	base := len(dst)
	out := slices.Grow(dst, len(data))[:len(dst)+len(data)]
	// Zero-based view keeps the scatter loop at non-append speed; width 2
	// runs word-at-a-time, other widths keep the scalar scatter.
	decolumnizeWords(out[base:base+len(data)], data, width, n)
	return out, nil
}
