// Package lzo implements an LZO/LZF-family byte-oriented LZ77 compressor:
// a greedy hash-table match finder emitting literal runs and
// (length, offset) copy tokens with single-byte control codes.
//
// It reproduces the design point the paper attributes to lzo: very high
// compression and decompression throughput with modest ratios. The format
// is our own LZF-style token stream, not the LZO1x bitstream.
//
// Token format (after the container header):
//
//	ctrl < 0x20:  literal run of ctrl+1 bytes (1..32), bytes follow
//	ctrl >= 0x20: match; lenCode = ctrl>>5 (1..7)
//	              lenCode < 7: matchLen = lenCode+2 (3..8)
//	              lenCode = 7: next byte e, matchLen = 9+e (9..264)
//	              offset = ((ctrl&0x1f)<<8 | nextByte) + 1 (1..8192)
package lzo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

const (
	magic        = "LZG1"
	maxOffset    = 8192
	minMatch     = 3
	maxMatch     = 264
	maxLitRun    = 32
	hashLog      = 16
	hashSize     = 1 << hashLog
	maxRawLength = 1 << 40
)

// ErrCorrupt indicates a malformed stream.
var ErrCorrupt = errors.New("lzo: corrupt stream")

// matchTables pools the 256 KiB match-finder hash table, which escape
// analysis would otherwise heap-allocate on every AppendCompress call.
var matchTables = sync.Pool{New: func() any { return new([hashSize]int32) }}

func hash3(p []byte) uint32 {
	// Multiplicative hash of the next 3 bytes.
	v := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
	return (v * 2654435761) >> (32 - hashLog)
}

// Compress compresses src. Output always carries a 12-byte container header
// so even incompressible input round-trips.
func Compress(src []byte) []byte {
	return AppendCompress(make([]byte, 0, len(src)+len(src)/16+16), src)
}

// The match finder is not run where a sample of src says it finds nothing
// worth having: of every sampleStride bytes the first sampleBytes are
// compressed on trial, and when the trials together do not come out smaller
// than the bytes they took, src is emitted as literal runs — a valid stream
// the decoder reads like any other, and one that is larger than src, so a
// caller with a raw fallback (core's no-waste guard) takes it exactly as it
// takes a real compression that failed to shrink. A window is two match
// distances long, so its second half sees every offset the format has.
// Inputs under one stride are never sampled: there is nothing to save.
const (
	sampleStride = 256 << 10
	sampleBytes  = 2 * maxOffset
)

// AppendCompress appends the compression of src to dst and returns the
// extended slice. The appended bytes are identical to Compress(src); with
// dst pre-sized the steady state allocates nothing.
func AppendCompress(dst, src []byte) []byte {
	out := append(dst, magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(src)))
	if len(src) >= sampleStride && !sampleShrinks(src) {
		return appendLiterals(out, src, 0, len(src))
	}
	table := newTable()
	out = appendTokens(out, src, 0, len(src), table)
	matchTables.Put(table)
	return out
}

// newTable checks an emptied match table out of the pool.
func newTable() *[hashSize]int32 {
	table := matchTables.Get().(*[hashSize]int32)
	for i := range table {
		table[i] = -1
	}
	return table
}

// sampleShrinks reports whether the sample windows of src, compressed one by
// one, take fewer bytes than they hold. Trial output goes to a stack buffer
// that a window cannot outgrow by more than its literal-run overhead. The
// windows share one table without clearing it in between: what an earlier
// window left in it lies more than maxOffset back and is never matched.
func sampleShrinks(src []byte) bool {
	var buf [sampleBytes + sampleBytes/maxLitRun + 1]byte
	table := newTable()
	in, out := 0, 0
	for lo := 0; lo < len(src); lo += sampleStride {
		hi := min(lo+sampleBytes, len(src))
		in += hi - lo
		out += len(appendTokens(buf[:0], src, lo, hi, table))
	}
	matchTables.Put(table)
	return out < in
}

// appendLiterals appends src[lo:hi] as literal runs.
func appendLiterals(out, src []byte, lo, hi int) []byte {
	for lo < hi {
		run := min(hi-lo, maxLitRun)
		out = append(out, byte(run-1))
		out = append(out, src[lo:lo+run]...)
		lo += run
	}
	return out
}

// appendTokens appends the token stream for src[lo:hi]. table holds the
// positions of src already seen, -1 where none.
func appendTokens(out, src []byte, lo, hi int, table *[hashSize]int32) []byte {
	litStart := lo
	i := lo
	for i+minMatch <= hi {
		h := hash3(src[i:])
		cand := table[h]
		table[h] = int32(i)
		if cand >= 0 && i-int(cand) <= maxOffset &&
			src[cand] == src[i] && src[cand+1] == src[i+1] && src[cand+2] == src[i+2] {
			// Extend the match.
			mlen := minMatch
			limit := min(hi-i, maxMatch)
			for mlen < limit && src[int(cand)+mlen] == src[i+mlen] {
				mlen++
			}
			out = appendLiterals(out, src, litStart, i)
			off := i - int(cand) - 1 // stored offset is offset-1
			if mlen <= 8 {
				out = append(out, byte((mlen-2)<<5|off>>8), byte(off))
			} else {
				out = append(out, byte(7<<5|off>>8), byte(off), byte(mlen-9))
			}
			// Insert a few positions inside the match to keep the table warm.
			end := i + mlen
			for j := i + 1; j < end && j+minMatch <= hi; j += 2 {
				table[hash3(src[j:])] = int32(j)
			}
			i = end
			litStart = i
		} else {
			i++
		}
	}
	return appendLiterals(out, src, litStart, hi)
}

// Decompress reverses Compress.
func Decompress(src []byte) ([]byte, error) {
	preLen := 0
	if len(src) >= len(magic)+8 {
		claimed := binary.LittleEndian.Uint64(src[len(magic):])
		if claimed <= 8<<20 { // clamp attacker-controlled preallocation
			preLen = int(claimed)
		} else {
			preLen = 8 << 20
		}
	}
	return AppendDecompress(make([]byte, 0, preLen), src)
}

// AppendDecompress appends the decompression of src to dst and returns the
// extended slice. Match offsets only reference bytes appended by this call,
// never pre-existing dst content, so the result equals
// append(dst, Decompress(src)...).
func AppendDecompress(dst, src []byte) ([]byte, error) {
	if len(src) < len(magic)+8 {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(src[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rawLen := binary.LittleEndian.Uint64(src[len(magic):])
	if rawLen > maxRawLength {
		return nil, fmt.Errorf("%w: absurd size %d", ErrCorrupt, rawLen)
	}
	out := dst
	start := len(dst)
	pos := len(magic) + 8
	for pos < len(src) {
		ctrl := src[pos]
		pos++
		if ctrl < 0x20 {
			run := int(ctrl) + 1
			if pos+run > len(src) {
				return nil, fmt.Errorf("%w: literal run past end", ErrCorrupt)
			}
			out = append(out, src[pos:pos+run]...)
			pos += run
			continue
		}
		lenCode := int(ctrl >> 5)
		if pos >= len(src) {
			return nil, fmt.Errorf("%w: truncated match token", ErrCorrupt)
		}
		off := int(ctrl&0x1f)<<8 | int(src[pos])
		pos++
		off++
		var mlen int
		if lenCode < 7 {
			mlen = lenCode + 2
		} else {
			if pos >= len(src) {
				return nil, fmt.Errorf("%w: truncated long match", ErrCorrupt)
			}
			mlen = 9 + int(src[pos])
			pos++
		}
		if off > len(out)-start {
			return nil, fmt.Errorf("%w: offset %d exceeds history %d", ErrCorrupt, off, len(out)-start)
		}
		// Overlapping copies are valid (RLE-style); copy byte-wise.
		from := len(out) - off
		for j := 0; j < mlen; j++ {
			out = append(out, out[from+j])
		}
	}
	if uint64(len(out)-start) != rawLen {
		return nil, fmt.Errorf("%w: size mismatch %d != %d", ErrCorrupt, len(out)-start, rawLen)
	}
	return out, nil
}
