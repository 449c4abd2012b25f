package solver

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// lengthCode is the RFC 1951 length code − 257 of a match length − 3 and how
// many of the length's low bits follow it as extra bits.
func lengthCode(l3 int) (code int, extra uint) {
	if l3 == 255 {
		return 28, 0 // length 258 has a code of its own
	}
	extra = uint(max(bits.Len(uint(l3))-3, 0))
	return 4*int(extra) + l3>>extra, extra
}

// clOrder is the order in which RFC 1951 sends the lengths of the code-length
// code, and clExtra the extra bits of its three repeat symbols.
var (
	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	clExtra = [19]uint8{16: 2, 17: 3, 18: 7}
)

// rleCoder is a DEFLATE encoder for the two kinds of bytes that need no
// match search: what frequency ranking and column linearization make of the ID
// planes, runs of equal bytes, and order-0 sources such as ISOBAR's
// compressible mantissa columns. It never searches: a run is a literal
// followed, when at least three more bytes remain, by matches at distance 1,
// or every byte is a literal; a segment is one dynamic-Huffman block over
// those tokens. planRuns cuts a segment into runs and planLiterals makes each
// byte a token, and both price the block to the bit; appendBlock writes it.
// The state between the two is the scratch below, so both belong to the
// pooled encoder and neither allocates once tokens have grown.
type rleCoder struct {
	tokens []uint16    // a literal byte, or 256 + (length − 3) of a match
	freq   [286]uint32 // literal/length histogram of tokens, end of block included
	extra  int         // bits of the matches beside their length codes
	bytes  [256]uint32 // histogram of the segment's bytes
	// lens holds the code lengths as the block header sends them: all 286
	// literal/length codes, then two distance codes of one bit each — a
	// complete code, of which every match uses the first.
	lens  [288]uint8
	codes [286]uint16
	// table is, per token, bits<<5 | count: its code with, for a match, the
	// extra bits and the distance code behind it.
	table [512]uint32
	// hdr[:nhdr] is lens run-length coded in the code-length alphabet, symbol
	// | extra<<5 each, and hclen how many code-length lengths are sent.
	hdr         [288]uint16
	nhdr, hclen int
	clFreq      [19]uint32
	clLens      [19]uint8
	clCodes     [19]uint16
	size        int         // of the planned block, in bits
	keys, work  [286]uint32 // codeLengths' scratch
	// acc holds the nacc < 8 bits of the stream not yet written: consecutive
	// blocks share bytes, and only sync or a final block aligns.
	acc  uint64
	nacc uint
}

// repeats counts the bytes of seg equal to the one before, eight at a time: a
// byte of x is zero where two neighbours agree, and t has the top bit of
// exactly those bytes.
func repeats(seg []byte) (n int) {
	const low7 = 0x7f7f7f7f7f7f7f7f
	i := 0
	for ; i+9 <= len(seg); i += 8 {
		x := binary.LittleEndian.Uint64(seg[i:]) ^ binary.LittleEndian.Uint64(seg[i+1:])
		n += bits.OnesCount64(^((x&low7 + low7) | x | low7))
	}
	for i++; i < len(seg); i++ {
		if seg[i] == seg[i-1] {
			n++
		}
	}
	return n
}

// tokenScratch is r.tokens at its capacity, which is at least n.
func (r *rleCoder) tokenScratch(n int) []uint16 {
	if cap(r.tokens) < n {
		r.tokens = make([]uint16, max(n, zlibSegment+zlibSample)) // no segment is longer
	}
	return r.tokens[:cap(r.tokens)]
}

// tokenise cuts seg into runs and counts the tokens and the bytes.
func (r *rleCoder) tokenise(seg []byte) {
	tok, n := r.tokenScratch(len(seg)), 0
	r.freq, r.bytes, r.extra = [286]uint32{256: 1}, [256]uint32{}, 0
	for i := 0; i < len(seg); {
		v := seg[i]
		j := i + 1
		for same := uint64(v) * 0x0101010101010101; ; j += 8 {
			if j+8 > len(seg) {
				for j < len(seg) && seg[j] == v {
					j++
				}
				break
			}
			if x := binary.LittleEndian.Uint64(seg[j:]) ^ same; x != 0 {
				j += bits.TrailingZeros64(x) / 8
				break
			}
		}
		r.bytes[v] += uint32(j - i)
		rest := j - i - 1
		i = j
		tok[n] = uint16(v)
		n++
		r.freq[v]++
		if rest < 3 { // too short for a match
			for ; rest > 0; rest-- {
				tok[n] = uint16(v)
				n++
				r.freq[v]++
			}
		}
		for rest > 0 {
			l := min(rest, 258)
			if rest > 258 && rest < 261 {
				l = rest - 3 // no match is shorter than 3, the last one neither
			}
			tok[n] = uint16(256 + l - 3)
			n++
			code, extra := lengthCode(l - 3)
			r.freq[257+code]++
			r.extra += int(extra) + 1 // and the distance's one bit
			rest -= l
		}
	}
	r.tokens = tok[:n]
}

// codeLengths sets lens[s] to the length of symbol s in a Huffman code for
// freq no longer than limit bits, 0 where freq[s] is: Moffat and Katajainen's
// in-place construction over the sorted counts, run again on halved counts
// until the longest code fits.
func (r *rleCoder) codeLengths(lens []uint8, freq []uint32, limit uint32) {
	keys := r.keys[:0]
	for s, f := range freq {
		lens[s] = 0
		if f > 0 {
			keys = append(keys, f<<9|uint32(s))
		}
	}
	slices.Sort(keys)
	n := len(keys)
	if n < 2 {
		for _, k := range keys {
			lens[k&511] = 1
		}
		return
	}
	a := r.work[:n]
	for shift := 0; ; shift++ {
		for i, k := range keys {
			a[i] = max(k>>9>>shift, 1)
		}
		a[0] += a[1]
		for root, leaf, next := 0, 2, 1; next < n-1; next++ {
			if leaf >= n || a[root] < a[leaf] {
				a[next], a[root] = a[root], uint32(next)
				root++
			} else {
				a[next] = a[leaf]
				leaf++
			}
			if leaf >= n || (root < next && a[root] < a[leaf]) {
				a[next], a[root] = a[next]+a[root], uint32(next)
				root++
			} else {
				a[next] += a[leaf]
				leaf++
			}
		}
		a[n-2] = 0
		for next := n - 3; next >= 0; next-- {
			a[next] = a[a[next]] + 1
		}
		root, next := n-2, n-1
		for avail, depth := 1, uint32(0); avail > 0; depth++ {
			used := 0
			for ; root >= 0 && a[root] == depth; root-- {
				used++
			}
			for ; avail > used; avail-- {
				a[next] = depth
				next--
			}
			avail = 2 * used
		}
		if a[0] <= limit {
			break
		}
	}
	for i, k := range keys {
		lens[k&511] = uint8(a[i])
	}
}

// canonical assigns the codes RFC 1951 derives from lens, bit-reversed for its
// LSB-first packing.
func canonical(codes []uint16, lens []uint8) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, uint16(0); l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l > 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}

// planRuns plans seg's block with its runs as matches and reports whether it
// is at most half of what a Huffman code of seg's bytes alone would make of
// them: the rule of the run class.
func (r *rleCoder) planRuns(seg []byte) bool {
	r.tokenise(seg)
	r.codeLengths(r.lens[:256], r.bytes[:], 15)
	huff := 0
	for b, f := range r.bytes {
		huff += int(f) * int(r.lens[b])
	}
	r.build()
	return 2*r.size <= huff
}

// planLiterals plans seg's block with every byte a literal, an order-0 code,
// and reports whether it takes at least an eighth off seg: the rule of the
// order-0 class.
func (r *rleCoder) planLiterals(seg []byte) bool {
	freq, tok := [286]uint32{256: 1}, r.tokenScratch(len(seg))[:len(seg)]
	for i, b := range seg {
		freq[b]++
		tok[i] = uint16(b)
	}
	r.tokens, r.freq, r.extra = tok, freq, 0
	r.build()
	return r.size <= 7*len(seg)
}

// build makes the codes, the token table and the header of the planned block,
// and with them r.size, the exact size in bits of what appendBlock will add to
// the stream.
func (r *rleCoder) build() {
	r.codeLengths(r.lens[:286], r.freq[:], 15)
	canonical(r.codes[:], r.lens[:286])
	r.lens[286], r.lens[287] = 1, 1
	r.size = r.extra
	for s, f := range r.freq {
		r.size += int(f) * int(r.lens[s])
	}
	for s, l := range r.lens[:256] {
		r.table[s] = uint32(r.codes[s])<<5 | uint32(l)
	}
	for l3 := range 256 {
		code, extra := lengthCode(l3)
		l := uint(r.lens[257+code])
		// The distance code of a match is the 1-bit code 0.
		r.table[256+l3] = (uint32(r.codes[257+code])|uint32(l3&(1<<extra-1))<<l)<<5 | uint32(l+extra+1)
	}

	// The header: lens in runs, in the code-length alphabet.
	r.clFreq = [19]uint32{}
	h := r.hdr[:0]
	emit := func(sym, extra int) {
		h = append(h, uint16(sym|extra<<5))
		r.clFreq[sym]++
	}
	for i := 0; i < len(r.lens); {
		l, j := int(r.lens[i]), i+1
		for j < len(r.lens) && r.lens[j] == r.lens[i] {
			j++
		}
		n := j - i
		i = j
		if l != 0 {
			emit(l, 0)
			n--
		}
		for n >= 3 {
			sym, least, most := 17, 3, 10 // zeros, a few
			switch {
			case l != 0:
				sym, most = 16, 6 // the length before, again
			case n >= 11:
				sym, least, most = 18, 11, 138 // zeros, many
			}
			k := min(n, most)
			emit(sym, k-least)
			n -= k
		}
		for ; n > 0; n-- {
			emit(l, 0)
		}
	}
	r.nhdr = len(h)
	r.codeLengths(r.clLens[:], r.clFreq[:], 7)
	canonical(r.clCodes[:], r.clLens[:])
	for r.hclen = 19; r.hclen > 4 && r.clLens[clOrder[r.hclen-1]] == 0; r.hclen-- {
	}
	r.size += 3 + 5 + 5 + 4 + 3*r.hclen
	for s, f := range r.clFreq {
		r.size += int(f) * int(r.clLens[s]+clExtra[s])
	}
}

// appendBlock appends the planned block to dst, the stream so far, leaving the
// bits past its last whole byte in r.acc. A final block is padded to a byte.
// The size being known, dst is grown once, with room for put's eight-byte
// stores.
func (r *rleCoder) appendBlock(dst []byte, final bool) []byte {
	dst = slices.Grow(dst, (int(r.nacc)+r.size)/8+16)
	buf, pos, acc, n := dst[len(dst):cap(dst)], 0, r.acc, r.nacc
	put := func(v uint64, k uint) {
		acc |= v << n
		n += k
		binary.LittleEndian.PutUint64(buf[pos:], acc)
		pos += int(n / 8)
		acc >>= n &^ 7
		n &= 7
	}
	// BTYPE 10 above BFINAL, then HLIT, HDIST and HCLEN.
	head := uint64(4 | (286-257)<<3 | (2-1)<<8 | (r.hclen-4)<<13)
	if final {
		head |= 1
	}
	put(head, 17)
	for _, s := range clOrder[:r.hclen] {
		put(uint64(r.clLens[s]), 3)
	}
	for _, h := range r.hdr[:r.nhdr] {
		s := h & 31
		l := uint(r.clLens[s])
		put(uint64(r.clCodes[s])|uint64(h>>5)<<l, l+uint(clExtra[s]))
	}
	// Two tokens to a put: a token's code is at most 21 bits, so a pair fits
	// in the 56 a store leaves room for.
	tok := r.tokens
	for ; len(tok) >= 2; tok = tok[2:] {
		a, b := r.table[tok[0]], r.table[tok[1]]
		put(uint64(a>>5)|uint64(b>>5)<<(a&31), uint(a&31+b&31))
	}
	for _, t := range tok {
		put(uint64(r.table[t]>>5), uint(r.table[t]&31))
	}
	put(uint64(r.codes[256]), uint(r.lens[256]))
	if final && n > 0 {
		put(0, 8-n)
	}
	r.acc, r.nacc = acc, n
	return dst[:len(dst)+pos]
}

// sync appends to dst what byte-aligns the stream after a block that is not
// the last, so that the level-6 encoder can go on: nothing on a byte boundary,
// else an empty stored block, which is what flate.Writer.Flush writes for the
// same purpose.
func (r *rleCoder) sync(dst []byte) []byte {
	if r.nacc > 0 {
		dst = append(dst, byte(r.acc)) // then BFINAL 0, BTYPE 00 and padding: zeros
		if r.nacc+3 > 8 {
			dst = append(dst, 0)
		}
		dst = append(dst, 0, 0, 0xff, 0xff)
		r.acc, r.nacc = 0, 0
	}
	return dst
}
