// Package stats computes the bit- and byte-level statistics behind the
// paper's motivating figures: the per-bit-position probability of the
// dominant bit value (Figure 1) and the normalized frequency of 2-byte
// sequences in the exponent and mantissa regions (Figure 3).
package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"primacy/internal/bytesplit"
)

// ErrBadLength indicates input that is not whole elements.
var ErrBadLength = errors.New("stats: data length not a multiple of element size")

// BitPositionProfile returns, for each of the 64 bit positions of a
// big-endian float64 element (bit 0 = sign bit), the probability of the most
// frequent bit value at that position — the quantity plotted in Figure 1.
// Hard-to-compress data shows p ≈ 0.5 in the mantissa positions.
func BitPositionProfile(data []byte) ([]float64, error) {
	const width = bytesplit.BytesPerValue
	if len(data)%width != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	n := len(data) / width
	profile := make([]float64, width*8)
	if n == 0 {
		return profile, nil
	}
	ones := make([]int, width*8)
	for e := 0; e < n; e++ {
		row := data[e*width : (e+1)*width]
		for b, byteVal := range row {
			for bit := 0; bit < 8; bit++ {
				if byteVal&(1<<uint(7-bit)) != 0 {
					ones[b*8+bit]++
				}
			}
		}
	}
	for i, c := range ones {
		p := float64(c) / float64(n)
		if p < 0.5 {
			p = 1 - p
		}
		profile[i] = p
	}
	return profile, nil
}

// PairRegion selects which byte pair of each element a histogram covers.
type PairRegion int

const (
	// ExponentPair covers element bytes 0-1 (sign+exponent+top mantissa) —
	// Figure 3(a).
	ExponentPair PairRegion = iota
	// MantissaPairs covers the three non-overlapping pairs in element
	// bytes 2-7 — Figure 3(b).
	MantissaPairs
)

// PairHistogram returns the normalized frequency of each 2-byte big-endian
// sequence (65536 bins) over the selected region.
func PairHistogram(data []byte, region PairRegion) ([]float64, error) {
	const width = bytesplit.BytesPerValue
	if len(data)%width != 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	n := len(data) / width
	counts := make([]int, 65536)
	total := 0
	for e := 0; e < n; e++ {
		row := data[e*width : (e+1)*width]
		switch region {
		case ExponentPair:
			counts[binary.BigEndian.Uint16(row[0:2])]++
			total++
		case MantissaPairs:
			counts[binary.BigEndian.Uint16(row[2:4])]++
			counts[binary.BigEndian.Uint16(row[4:6])]++
			counts[binary.BigEndian.Uint16(row[6:8])]++
			total += 3
		default:
			return nil, fmt.Errorf("stats: unknown region %d", region)
		}
	}
	out := make([]float64, 65536)
	if total == 0 {
		return out, nil
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out, nil
}

// HistogramSummary condenses a pair histogram into the quantities the paper
// discusses: unique sequence count, peak frequency, and the mass captured by
// the top k sequences.
type HistogramSummary struct {
	Unique  int
	Peak    float64
	TopMass float64
	Entropy float64 // bits per sequence
}

// Summarize computes a HistogramSummary with TopMass over the top k bins.
func Summarize(hist []float64, k int) HistogramSummary {
	var s HistogramSummary
	top := make([]float64, 0, k)
	for _, p := range hist {
		if p <= 0 {
			continue
		}
		s.Unique++
		s.Entropy -= p * math.Log2(p)
		if p > s.Peak {
			s.Peak = p
		}
		top = insertTop(top, p, k)
	}
	for _, p := range top {
		s.TopMass += p
	}
	return s
}

// insertTop maintains the k largest values in descending order.
func insertTop(top []float64, p float64, k int) []float64 {
	if k <= 0 {
		return top
	}
	if len(top) < k {
		top = append(top, p)
	} else if p > top[len(top)-1] {
		top[len(top)-1] = p
	} else {
		return top
	}
	for i := len(top) - 1; i > 0 && top[i] > top[i-1]; i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	return top
}

// TopByteFrequency reports the frequency of the most common byte value.
func TopByteFrequency(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var hist [256]int
	for _, b := range data {
		hist[b]++
	}
	top := 0
	for _, c := range hist {
		if c > top {
			top = c
		}
	}
	return float64(top) / float64(len(data))
}
