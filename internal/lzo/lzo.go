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
//
// Both directions work a word at a time and are held byte for byte to the
// byte-at-a-time coder they replaced, which the tests keep as the reference.
// The encoder extends matches eight bytes per compare, skips the table
// stores inside a repeating match that a later store of the same match
// overwrites anyway, and never clears its table: entries are positions
// offset by a base that moves past every earlier input. Its streams are the
// reference encoder's, byte for byte. The decoder writes by index into an
// output window sized once from the header (or grown geometrically when the
// caller's buffer is short), moves literal runs and far matches as 8-byte
// words and fills a match of offset under 8 with its period replicated
// across a word; it accepts exactly the streams the reference decoder
// accepts and writes the same bytes.
package lzo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

const (
	magic        = "LZG1"
	headerLen    = len(magic) + 8
	maxOffset    = 8192
	minMatch     = 3
	maxMatch     = 264
	maxLitRun    = 32
	hashLog      = 16
	hashSize     = 1 << hashLog
	maxRawLength = 1 << 40
	// maxExpansion bounds the output of one body byte: a 3-byte long-match
	// token writes maxMatch bytes.
	maxExpansion = maxMatch / 3
)

// ErrCorrupt indicates a malformed stream.
var ErrCorrupt = errors.New("lzo: corrupt stream")

// matchTable is the match finder's hash table. Entry h holds base+p for the
// last position p whose next three bytes hashed to h, where base is the
// value of next when the pass over that input began. next moves past every
// input a pass covers, so what earlier passes stored lies below the current
// base and reads as empty: the table is cleared only when a base would cross
// 1<<31, which keeps every stale entry a negative distance below it.
type matchTable struct {
	next uint64
	pos  [hashSize]uint32
}

// matchTables pools the 256 KiB tables, which escape analysis would
// otherwise heap-allocate on every AppendCompress call.
var matchTables = sync.Pool{New: func() any { return &matchTable{next: 1} }}

// begin starts a pass over an input of n bytes and returns its base.
func (t *matchTable) begin(n int) uint32 {
	if t.next+uint64(n)+1 > 1<<31 {
		clear(t.pos[:])
		t.next = 1
	}
	base := uint32(t.next)
	t.next += uint64(n) + 1
	return base
}

func hash3(p []byte) uint32 {
	// Multiplicative hash of the next 3 bytes.
	v := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16
	return (v * 2654435761) >> (32 - hashLog)
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
// extended slice. Output always carries a 12-byte container header so even
// incompressible input round-trips; with dst pre-sized the steady state
// allocates nothing.
func AppendCompress(dst, src []byte) []byte {
	t := matchTables.Get().(*matchTable)
	out := appendCompress(dst, src, t)
	matchTables.Put(t)
	return out
}

func appendCompress(dst, src []byte, t *matchTable) []byte {
	out := append(dst, magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(src)))
	if len(src) >= sampleStride && !sampleShrinks(src, t) {
		return appendLiterals(out, src, 0, len(src))
	}
	return appendTokens(out, src, 0, len(src), &t.pos, t.begin(len(src)))
}

// sampleShrinks reports whether the sample windows of src, compressed one by
// one, take fewer bytes than they hold. Trial output goes to a stack buffer
// that a window cannot outgrow by more than its literal-run overhead. The
// windows share one pass over the table: what an earlier window left in it
// lies more than maxOffset back and is never matched.
func sampleShrinks(src []byte, t *matchTable) bool {
	var buf [sampleBytes + sampleBytes/maxLitRun + 1]byte
	base := t.begin(len(src))
	in, out := 0, 0
	for lo := 0; lo < len(src); lo += sampleStride {
		hi := min(lo+sampleBytes, len(src))
		in += hi - lo
		out += len(appendTokens(buf[:0], src, lo, hi, &t.pos, base))
	}
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

// appendTokens appends the token stream for src[lo:hi]. table holds
// base+position of src already seen in this pass; int32(e-base) is negative
// for an entry of an earlier pass, and for a position at or past 1<<31, which
// therefore never matches.
func appendTokens(out, src []byte, lo, hi int, table *[hashSize]uint32, base uint32) []byte {
	litStart := lo
	i := lo
	for i+minMatch <= hi {
		h := hash3(src[i:])
		cand := int(int32(table[h] - base))
		table[h] = base + uint32(i)
		if cand < 0 || i-cand > maxOffset ||
			src[cand] != src[i] || src[cand+1] != src[i+1] || src[cand+2] != src[i+2] {
			i++
			continue
		}
		// Most matches end at once, where one byte compare settles them.
		mlen := minMatch
		if limit := min(hi-i, maxMatch); mlen < limit && src[cand+mlen] == src[i+mlen] {
			mlen = extend(src, cand, i, mlen+1, limit)
		}
		out = appendLiterals(out, src, litStart, i)
		off := i - cand - 1 // stored offset is offset-1
		if mlen <= 8 {
			out = append(out, byte((mlen-2)<<5|off>>8), byte(off))
		} else {
			out = append(out, byte(7<<5|off>>8), byte(off), byte(mlen-9))
		}
		// Keep the table warm with every second position inside the match.
		end := i + mlen
		j := i + 1
		if o := i - cand; o < mlen {
			j = firstWarm(j, end, hi, o)
		}
		for ; j < end && j+minMatch <= hi; j += 2 {
			table[hash3(src[j:])] = base + uint32(j)
		}
		i = end
		litStart = i
	}
	return appendLiterals(out, src, litStart, hi)
}

// extend returns the length of the match of src[i:] against src[cand:],
// which agree on their first n bytes, up to limit bytes.
func extend(src []byte, cand, i, n, limit int) int {
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(src[cand+n:]) ^ binary.LittleEndian.Uint64(src[i+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && src[cand+n] == src[i+n] {
		n++
	}
	return n
}

// firstWarm returns the first position of the grid j, j+2, … (up to the
// last one before end with a 3-byte hash before hi) whose table store the
// rest of the grid does not overwrite, inside a match src[j-1:end] at offset
// off < end-j+1. The match repeats with period p = lcm(off, 2), so position
// q hashes like q+p while q+p+2 < end, and the store at q+p, later and on the
// same grid, overwrites the store at q: skipping q leaves the table a store at
// every grid position would leave.
func firstWarm(j, end, hi, off int) int {
	last := min(end-1, hi-minMatch)
	if last < j {
		return j
	}
	last -= (last - j) & 1
	p := off
	if off&1 != 0 {
		p = 2 * off
	}
	if from := min(end-minMatch, last) - p + 1; from > j {
		j = from + (from-j)&1
	}
	return j
}

// AppendDecompress reverses AppendCompress: it appends the decompression of
// src to dst and returns the extended slice. Match offsets only reference
// bytes appended by this call, never pre-existing dst content, so the
// appended bytes do not depend on dst. When dst has room for the header's size
// the output is written in place; otherwise it grows as the tokens write it,
// never on the header's word alone.
func AppendDecompress(dst, src []byte) ([]byte, error) {
	if len(src) < headerLen {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(src[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rawLen := binary.LittleEndian.Uint64(src[len(magic):])
	start := len(dst)
	if rawLen > maxRawLength || rawLen > uint64(math.MaxInt-start) {
		return nil, fmt.Errorf("%w: absurd size %d", ErrCorrupt, rawLen)
	}
	end := start + int(rawLen)
	// w is the output window: bytes [start, d) are final, and a word write
	// may run ahead of d inside w, where a later token overwrites it.
	w := dst[:min(cap(dst), end)]
	d := start
	pos := headerLen
	for pos < len(src) {
		ctrl := src[pos]
		pos++
		if ctrl < 0x20 {
			run := int(ctrl) + 1
			if run > len(src)-pos {
				return nil, fmt.Errorf("%w: literal run past end", ErrCorrupt)
			}
			if run > end-d {
				return nil, fmt.Errorf("%w: output past its size %d", ErrCorrupt, rawLen)
			}
			if run > len(w)-d {
				w = grow(w, d, run, end)
			}
			if len(src)-pos >= maxLitRun && len(w)-d >= maxLitRun {
				// Four words, all loaded before any is stored, not a call
				// to memmove.
				from, to := src[pos:pos+maxLitRun], w[d:d+maxLitRun]
				w0, w1 := binary.LittleEndian.Uint64(from), binary.LittleEndian.Uint64(from[8:])
				w2, w3 := binary.LittleEndian.Uint64(from[16:]), binary.LittleEndian.Uint64(from[24:])
				binary.LittleEndian.PutUint64(to, w0)
				binary.LittleEndian.PutUint64(to[8:], w1)
				binary.LittleEndian.PutUint64(to[16:], w2)
				binary.LittleEndian.PutUint64(to[24:], w3)
			} else {
				copy(w[d:], src[pos:pos+run])
			}
			d += run
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
		if off > d-start {
			return nil, fmt.Errorf("%w: offset %d exceeds history %d", ErrCorrupt, off, d-start)
		}
		if mlen > end-d {
			return nil, fmt.Errorf("%w: output past its size %d", ErrCorrupt, rawLen)
		}
		if mlen > len(w)-d {
			w = grow(w, d, mlen, end)
		}
		// The match overlaps itself when off < mlen, as RLE-style matches do.
		// With a word of slack behind it, an offset of 8 or more moves whole
		// words, each read from bytes already final. A shorter offset repeats
		// its off final bytes: they are doubled into a word holding the period
		// from phase 0, stored every q bytes, q the largest multiple of off
		// that fits a word. Overhang past d+mlen is rewritten by the tokens
		// that follow.
		from := d - off
		switch {
		case len(w)-d < mlen+8:
			for k := range mlen {
				w[d+k] = w[from+k]
			}
		case off < 8:
			s := uint(8 * off) // shifts of 64 bits or more give 0
			v := binary.LittleEndian.Uint64(w[from:]) & (1<<s - 1)
			v |= v << s
			v |= v << (2 * s)
			v |= v << (4 * s)
			q := off * (8 / off)
			for k := 0; k < mlen; k += q {
				binary.LittleEndian.PutUint64(w[d+k:], v)
			}
		default:
			for k := 0; k < mlen; k += 8 {
				binary.LittleEndian.PutUint64(w[d+k:], binary.LittleEndian.Uint64(w[from+k:]))
			}
		}
		d += mlen
	}
	if d != end {
		return nil, fmt.Errorf("%w: size mismatch %d != %d", ErrCorrupt, d-start, rawLen)
	}
	return w[:end], nil
}

// grow returns a window holding w[:d] with room for at least n more bytes,
// grown geometrically as append grows, never past end.
func grow(w []byte, d, n, end int) []byte {
	size := min(max(2*cap(w), d+n+2*maxMatch), end)
	w = append(w[:d], make([]byte, size-d)...)
	return w[:min(cap(w), end)]
}
