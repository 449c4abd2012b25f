// Package isobar reimplements the ISOBAR preconditioner (Schendel et al.,
// ICDE'12) that PRIMACY delegates the 6 low-order mantissa bytes to
// (Sec. II-G of the paper): a sampling analyzer estimates the
// compressibility of each byte column and a partitioner routes compressible
// columns through the solver while incompressible columns are stored raw,
// avoiding wasted compressor work.
package isobar

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// DefaultSampleBytes is how many bytes per column the analyzer inspects;
// sampling (rather than full scans) is what makes ISOBAR cheap.
const DefaultSampleBytes = 64 << 10

// DefaultEntropyThreshold is the per-column byte entropy (bits/byte) below
// which a column is classified compressible. Standard byte-level entropy
// coders gain little above ~7.9 bits/byte; the margin buys solver speed.
const DefaultEntropyThreshold = 7.8

// DefaultTopFreqThreshold classifies a column compressible when its most
// frequent byte exceeds this fraction, even at high entropy (run-length
// gains remain available to the solver).
const DefaultTopFreqThreshold = 0.04

// ErrBadShape indicates input whose length is not a multiple of the width.
var ErrBadShape = errors.New("isobar: data length not a multiple of width")

// Mode selects the compressibility classifier.
type Mode uint8

const (
	// ModeByteEntropy classifies by sampled byte entropy and top-byte
	// frequency (this package's default).
	ModeByteEntropy Mode = iota
	// ModeBitFrequency follows the ISOBAR paper more literally: a column is
	// compressible when enough of its bit positions are skewed away from
	// p = 0.5 (Schendel et al., ICDE'12, Sec. III: "bit-level frequency
	// analysis in regards to whether frequency of bits in certain positions
	// will be adequate").
	ModeBitFrequency
)

// DefaultBitSkewThreshold is |p-0.5| above which a bit position counts as
// skewed in ModeBitFrequency.
const DefaultBitSkewThreshold = 0.05

// DefaultSkewedBitsRequired is how many of a column's 8 bit positions must
// be skewed for the column to classify compressible in ModeBitFrequency.
const DefaultSkewedBitsRequired = 2

// Options tunes the analyzer.
type Options struct {
	// Mode selects the classifier (default ModeByteEntropy).
	Mode Mode
	// SampleBytes caps how many bytes per column are inspected
	// (0 = DefaultSampleBytes; negative = scan everything).
	SampleBytes int
}

func (o Options) sampleBytes() int {
	switch {
	case o.SampleBytes == 0:
		return DefaultSampleBytes
	case o.SampleBytes < 0:
		return math.MaxInt
	default:
		return o.SampleBytes
	}
}

// ColumnReport holds the analyzer's verdict for one byte column.
type ColumnReport struct {
	// Entropy is the sampled byte entropy in bits/byte.
	Entropy float64
	// TopFrequency is the sampled frequency of the most common byte.
	TopFrequency float64
	// SkewedBits counts bit positions with |p-0.5| above the skew
	// threshold (filled in ModeBitFrequency).
	SkewedBits int
	// Compressible is the classification used by the partitioner.
	Compressible bool
}

// Analysis is the verdict for an N×width byte matrix.
type Analysis struct {
	Width   int
	Columns []ColumnReport
	// Mask has bit c set when column c is compressible.
	Mask uint64
}

// CompressibleFraction reports the fraction of columns classified
// compressible — the α2 parameter of the paper's performance model.
func (a Analysis) CompressibleFraction() float64 {
	if a.Width == 0 {
		return 0
	}
	n := 0
	for _, c := range a.Columns {
		if c.Compressible {
			n++
		}
	}
	return float64(n) / float64(a.Width)
}

// Analyze samples each byte column of a row-major N×width matrix and
// classifies it. width must be in [1, 64] (mask is a uint64).
func Analyze(data []byte, width int, opts Options) (Analysis, error) {
	return analyze(data, width, false, opts)
}

// AnalyzePlanes is Analyze for a column-major matrix: cols holds width
// planes of N bytes, column c at offset c*N. It inspects exactly the rows
// Analyze samples (same stride rule), so the verdict — reports, mask, α₂ —
// is identical to Analyze on the row-major form of the same matrix.
func AnalyzePlanes(cols []byte, width int, opts Options) (Analysis, error) {
	return analyze(cols, width, true, opts)
}

// analyze is the classifier behind both matrix orders.
func analyze(data []byte, width int, planar bool, opts Options) (Analysis, error) {
	if width < 1 || width > 64 {
		return Analysis{}, fmt.Errorf("isobar: width %d out of range [1,64]", width)
	}
	if len(data)%width != 0 {
		return Analysis{}, fmt.Errorf("%w: %d %% %d", ErrBadShape, len(data), width)
	}
	n := len(data) / width
	a := Analysis{Width: width, Columns: make([]ColumnReport, width)}
	if n == 0 {
		return a, nil
	}
	// Element (r, c) sits at data[r*rowStep+c*colStep].
	rowStep, colStep := width, 1
	if planar {
		rowStep, colStep = 1, n
	}
	sample := opts.sampleBytes()
	stride := 1
	if sample < n {
		stride = (n + sample - 1) / sample
	}
	for c := 0; c < width; c++ {
		hist, count := columnHistogram(data[c*colStep:], n, stride, stride*rowStep)
		rep := analyzeHistogram(hist, count)
		switch opts.Mode {
		case ModeBitFrequency:
			rep.SkewedBits = skewedBits(hist, count, DefaultBitSkewThreshold)
			rep.Compressible = rep.SkewedBits >= DefaultSkewedBitsRequired
		default:
			rep.Compressible = rep.Entropy <= DefaultEntropyThreshold || rep.TopFrequency >= DefaultTopFreqThreshold
		}
		a.Columns[c] = rep
		if rep.Compressible {
			a.Mask |= 1 << uint(c)
		}
	}
	return a, nil
}

// columnHistogram counts the bytes col[0], col[step], col[2·step], … of one
// column's n rows sampled every stride rows, and returns the histogram with
// the number of samples. Four interleaved tables take consecutive samples, so
// where bytes repeat an increment does not wait on the one before it; they
// are summed at the end. A table entry holds at most a quarter of the
// samples, so uint32 cannot overflow on any column under 16 Gi rows.
func columnHistogram(col []byte, n, stride, step int) (hist [256]int, count int) {
	count = (n + stride - 1) / stride
	var h [4][256]uint32
	i, quads := 0, count/4
	for q := 0; q < quads; q++ {
		h[0][col[i]]++
		h[1][col[i+step]]++
		h[2][col[i+2*step]]++
		h[3][col[i+3*step]]++
		i += 4 * step
	}
	for r := quads * 4; r < count; r++ {
		h[0][col[i]]++
		i += step
	}
	for v := range hist {
		hist[v] = int(h[0][v]) + int(h[1][v]) + int(h[2][v]) + int(h[3][v])
	}
	return hist, count
}

// skewedBits counts the bit positions of the sampled byte histogram whose
// one-frequency deviates from 0.5 by more than thresh.
func skewedBits(hist [256]int, count int, thresh float64) int {
	if count == 0 {
		return 0
	}
	var ones [8]int
	for v, h := range hist {
		if h == 0 {
			continue
		}
		for b := 0; b < 8; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b] += h
			}
		}
	}
	skewed := 0
	for _, o := range ones {
		p := float64(o) / float64(count)
		d := p - 0.5
		if d < 0 {
			d = -d
		}
		if d > thresh {
			skewed++
		}
	}
	return skewed
}

func analyzeHistogram(hist [256]int, count int) ColumnReport {
	var rep ColumnReport
	if count == 0 {
		return rep
	}
	top := 0
	for _, h := range hist {
		if h == 0 {
			continue
		}
		p := float64(h) / float64(count)
		rep.Entropy -= p * math.Log2(p)
		if h > top {
			top = h
		}
	}
	rep.TopFrequency = float64(top) / float64(count)
	return rep
}

// AppendPartition splits a row-major N×width matrix into two column-major
// buffers — compressible columns (per mask, ascending column order) and
// incompressible columns, together len(data) bytes — appends them to compDst
// and incompDst and returns the extended slices. Neither destination may
// alias data. With both pre-sized the steady state allocates nothing.
func AppendPartition(compDst, incompDst, data []byte, width int, mask uint64) (comp, incomp []byte, err error) {
	if width < 1 || width > 64 {
		return nil, nil, fmt.Errorf("isobar: width %d out of range", width)
	}
	if len(data)%width != 0 {
		return nil, nil, fmt.Errorf("%w: %d %% %d", ErrBadShape, len(data), width)
	}
	n := len(data) / width
	nComp := popcount(mask, width)
	cBase := len(compDst)
	iBase := len(incompDst)
	comp = slices.Grow(compDst, nComp*n)[:len(compDst)+nComp*n]
	incomp = slices.Grow(incompDst, (width-nComp)*n)[:len(incompDst)+(width-nComp)*n]
	// Zero-based column views keep the gather loops at non-append speed.
	cSeg := comp[cBase:]
	iSeg := incomp[iBase:]
	ci, ii := 0, 0
	for c := 0; c < width; c++ {
		if mask&(1<<uint(c)) != 0 {
			col := cSeg[ci : ci+n]
			for r := 0; r < n; r++ {
				col[r] = data[r*width+c]
			}
			ci += n
		} else {
			col := iSeg[ii : ii+n]
			for r := 0; r < n; r++ {
				col[r] = data[r*width+c]
			}
			ii += n
		}
	}
	return comp, incomp, nil
}

// AppendUnpartition reverses AppendPartition given the element count n: it
// appends the reassembled row-major matrix to dst and returns the extended
// slice. dst must not alias comp or incomp.
func AppendUnpartition(dst, comp, incomp []byte, width int, mask uint64, n int) ([]byte, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("isobar: width %d out of range", width)
	}
	if n < 0 {
		return nil, fmt.Errorf("isobar: negative element count %d", n)
	}
	nComp := popcount(mask, width)
	if len(comp) != nComp*n {
		return nil, fmt.Errorf("isobar: compressible buffer %d bytes, want %d", len(comp), nComp*n)
	}
	if len(incomp) != (width-nComp)*n {
		return nil, fmt.Errorf("isobar: incompressible buffer %d bytes, want %d",
			len(incomp), (width-nComp)*n)
	}
	base := len(dst)
	out := slices.Grow(dst, n*width)[:len(dst)+n*width]
	// Zero-based views keep the inner loops as fast as the non-append form:
	// indexing out[base+...] directly costs ~30% on this hot path.
	seg := out[base : base+n*width]
	ci, ii := 0, 0
	for c := 0; c < width; c++ {
		if mask&(1<<uint(c)) != 0 {
			col := comp[ci : ci+n]
			for r := 0; r < n; r++ {
				seg[r*width+c] = col[r]
			}
			ci += n
		} else {
			col := incomp[ii : ii+n]
			for r := 0; r < n; r++ {
				seg[r*width+c] = col[r]
			}
			ii += n
		}
	}
	return out, nil
}

// Plane routing: on a column-major matrix, partitioning is not a data
// movement. The compressible buffer AppendPartition would build is the
// mask's set planes in ascending order, the incompressible buffer the clear
// ones — both are whole planes that already exist.

// checkPlanes validates the shared arguments of the plane-routing functions.
// Unlike AppendPartition, a mask bit at or beyond width is an error: no
// writer emits one, so on decode it can only be damage.
func checkPlanes(size, width int, mask uint64) (n int, err error) {
	if width < 1 || width > 64 {
		return 0, fmt.Errorf("isobar: width %d out of range", width)
	}
	if size%width != 0 {
		return 0, fmt.Errorf("%w: %d %% %d", ErrBadShape, size, width)
	}
	if mask>>uint(width) != 0 {
		return 0, fmt.Errorf("isobar: mask %#x has bits beyond width %d", mask, width)
	}
	return size / width, nil
}

// CompressiblePlanes returns the compressible buffer of a column-major
// N×width matrix: the planes whose mask bit is set, ascending, concatenated
// — byte-identical to AppendPartition's comp on the row-major form. When the
// set bits are adjacent the planes already sit next to each other and the
// result aliases cols (nothing is copied, dst is ignored); otherwise they are
// copied, whole planes at a time, onto dst, and copied is true — the caller
// then owns a grown dst, not a view of cols.
func CompressiblePlanes(dst, cols []byte, width int, mask uint64) (comp []byte, copied bool, err error) {
	n, err := checkPlanes(len(cols), width, mask)
	if err != nil {
		return nil, false, err
	}
	if mask == 0 {
		return cols[:0], false, nil
	}
	first := bits.TrailingZeros64(mask)
	if run := mask >> uint(first); run&(run+1) == 0 {
		return cols[first*n : (first+bits.Len64(run))*n], false, nil
	}
	return appendPlanes(dst, cols, n, mask), true, nil
}

// AppendIncompressiblePlanes appends the planes whose mask bit is clear,
// ascending — byte-identical to AppendPartition's incomp on the row-major
// form.
func AppendIncompressiblePlanes(dst, cols []byte, width int, mask uint64) ([]byte, error) {
	n, err := checkPlanes(len(cols), width, mask)
	if err != nil {
		return nil, err
	}
	return appendPlanes(dst, cols, n, ^mask&(1<<uint(width)-1)), nil
}

// appendPlanes appends the n-byte planes of cols that sel names, ascending.
func appendPlanes(dst, cols []byte, n int, sel uint64) []byte {
	for ; sel != 0; sel &= sel - 1 {
		c := bits.TrailingZeros64(sel)
		dst = append(dst, cols[c*n:(c+1)*n]...)
	}
	return dst
}

// RoutePlanes is AppendUnpartition without the data movement: it points
// planes[c] at column c's n bytes inside comp (mask bit set) or incomp
// (clear), in the order AppendPartition laid them out. len(planes) is the width. Both buffer
// lengths are checked against the mask and n before anything is sliced.
func RoutePlanes(planes [][]byte, comp, incomp []byte, mask uint64, n int) error {
	width := len(planes)
	if _, err := checkPlanes(0, width, mask); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("isobar: negative element count %d", n)
	}
	nComp := bits.OnesCount64(mask)
	if len(comp) != nComp*n {
		return fmt.Errorf("isobar: compressible buffer %d bytes, want %d", len(comp), nComp*n)
	}
	if len(incomp) != (width-nComp)*n {
		return fmt.Errorf("isobar: incompressible buffer %d bytes, want %d",
			len(incomp), (width-nComp)*n)
	}
	ci, ii := 0, 0
	for c := range planes {
		if mask&(1<<uint(c)) != 0 {
			planes[c] = comp[ci : ci+n]
			ci += n
		} else {
			planes[c] = incomp[ii : ii+n]
			ii += n
		}
	}
	return nil
}

func popcount(mask uint64, width int) int {
	n := 0
	for c := 0; c < width; c++ {
		if mask&(1<<uint(c)) != 0 {
			n++
		}
	}
	return n
}
