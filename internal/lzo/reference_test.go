package lzo

import (
	"encoding/binary"
	"fmt"
)

// The reference coder: the byte-at-a-time encoder and decoder the package
// shipped before its word kernels. Every stream the package writes must be
// the stream refAppendCompress writes, and AppendDecompress must accept
// exactly what refAppendDecompress accepts, with the same output.

// refAppendCompress is AppendCompress with a freshly emptied int32 table per
// pass, extension one byte per compare and a table store at every second
// position inside a match.
func refAppendCompress(dst, src []byte) []byte {
	out := append(dst, magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(src)))
	if len(src) >= sampleStride && !refSampleShrinks(src) {
		return appendLiterals(out, src, 0, len(src))
	}
	return refAppendTokens(out, src, 0, len(src), refNewTable())
}

func refNewTable() *[hashSize]int32 {
	table := new([hashSize]int32)
	for i := range table {
		table[i] = -1
	}
	return table
}

func refSampleShrinks(src []byte) bool {
	table := refNewTable()
	in, out := 0, 0
	for lo := 0; lo < len(src); lo += sampleStride {
		hi := min(lo+sampleBytes, len(src))
		in += hi - lo
		out += len(refAppendTokens(nil, src, lo, hi, table))
	}
	return out < in
}

func refAppendTokens(out, src []byte, lo, hi int, table *[hashSize]int32) []byte {
	litStart := lo
	i := lo
	for i+minMatch <= hi {
		h := hash3(src[i:])
		cand := table[h]
		table[h] = int32(i)
		if cand >= 0 && i-int(cand) <= maxOffset &&
			src[cand] == src[i] && src[cand+1] == src[i+1] && src[cand+2] == src[i+2] {
			mlen := minMatch
			limit := min(hi-i, maxMatch)
			for mlen < limit && src[int(cand)+mlen] == src[i+mlen] {
				mlen++
			}
			out = appendLiterals(out, src, litStart, i)
			off := i - int(cand) - 1
			if mlen <= 8 {
				out = append(out, byte((mlen-2)<<5|off>>8), byte(off))
			} else {
				out = append(out, byte(7<<5|off>>8), byte(off), byte(mlen-9))
			}
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

// refAppendDecompress appends one byte per append.
func refAppendDecompress(dst, src []byte) ([]byte, error) {
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
