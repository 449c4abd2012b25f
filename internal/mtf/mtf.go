// Package mtf implements the move-to-front transform and the bzip2-style
// zero-run-length encoding (RUNA/RUNB) applied after it. Together they turn
// the long same-byte runs a BWT produces into a small, heavily skewed symbol
// alphabet that entropy-codes well.
package mtf

import (
	"errors"
	"fmt"
)

// Encode applies the move-to-front transform: each output byte is the
// current index of the input byte in a recency list initialized to 0..255.
func Encode(in []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(in))
	for i, b := range in {
		j := 0
		for table[j] != b {
			j++
		}
		out[i] = byte(j)
		copy(table[1:j+1], table[:j])
		table[0] = b
	}
	return out
}

// Decode inverts Encode.
func Decode(in []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(in))
	for i, j := range in {
		b := table[j]
		out[i] = b
		copy(table[1:int(j)+1], table[:j])
		table[0] = b
	}
	return out
}

// Zero-run-length symbol space: the two run symbols RUNA/RUNB encode runs of
// zeros in a bijective base-2 numeration; nonzero MTF byte v is shifted to
// symbol v+1. EOB terminates a block. Alphabet size is therefore 258.
const (
	RunA = 0
	RunB = 1
	// EOB is the end-of-block symbol.
	EOB = 257
	// AlphabetSize is the number of distinct RLE symbols (including EOB).
	AlphabetSize = 258
)

// ErrCorruptRLE indicates an invalid symbol sequence during RLE decoding.
var ErrCorruptRLE = errors.New("mtf: corrupt zero-run-length stream")

// EncodeRLE converts an MTF byte stream to the RUNA/RUNB symbol stream,
// appending EOB. Runs of zero bytes of length r are written as the digits of
// r in bijective base 2 (RUNA=1, RUNB=2, least significant digit first).
func EncodeRLE(in []byte) []uint16 {
	out := make([]uint16, 0, len(in)/2+4)
	run := 0
	flush := func() {
		for run > 0 {
			if run&1 == 1 {
				out = append(out, RunA)
				run = (run - 1) >> 1
			} else {
				out = append(out, RunB)
				run = (run - 2) >> 1
			}
		}
	}
	for _, b := range in {
		if b == 0 {
			run++
			continue
		}
		flush()
		out = append(out, uint16(b)+1)
	}
	flush()
	out = append(out, EOB)
	return out
}

// DecodeRLE inverts EncodeRLE, stopping at EOB. It returns the decoded MTF
// bytes and the number of symbols consumed (including EOB).
func DecodeRLE(in []uint16) ([]byte, int, error) {
	out := make([]byte, 0, len(in)*2)
	run := 0   // accumulated zero-run length
	place := 1 // current bijective base-2 digit weight
	flush := func() {
		if run > 0 {
			for i := 0; i < run; i++ {
				out = append(out, 0)
			}
			run = 0
		}
		place = 1
	}
	for i, s := range in {
		switch {
		case s == RunA:
			run += place
			place <<= 1
		case s == RunB:
			run += 2 * place
			place <<= 1
		case s == EOB:
			flush()
			return out, i + 1, nil
		case s < AlphabetSize:
			flush()
			out = append(out, byte(s-1))
		default:
			return nil, 0, fmt.Errorf("%w: symbol %d", ErrCorruptRLE, s)
		}
	}
	return nil, 0, fmt.Errorf("%w: missing EOB", ErrCorruptRLE)
}
