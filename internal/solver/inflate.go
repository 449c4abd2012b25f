package solver

import (
	"compress/flate"
	"encoding/binary"
	"io"
	"slices"
	"sync"
)

// An entry of a decoding table is what the stream's next bits stand for,
// packed: how many bits to take in the low four; above them, for a length or
// distance code, how many extra bits follow it and, for the pointer to a
// sub-table, how many bits index that; four flags; and from bit 16 the literal
// byte, the base of the length or distance, the code-length symbol or the
// sub-table's offset. A primary table is indexed by the next litRoot or
// distRoot bits, and the codes longer than that share a sub-table per prefix.
const (
	entLen   = 15
	entExtra = 4
	entVal   = 16
	entLit   = 1 << 8  // a literal byte
	entSub   = 1 << 9  // the pointer to a sub-table
	entEnd   = 1 << 10 // the end of the block
	entBad   = 1 << 11 // no code, or a symbol RFC 1951 reserves: 286, 287, distance 30, 31

	litRoot, distRoot, preRoot = 11, 8, 7
	// A code compress/flate accepts and that has sub-tables at all is complete,
	// so the k-bit sub-table of a prefix holds the at least k+1 symbols of a
	// full tree of depth k: 288 literal/length symbols fill at most 288·2⁴/5
	// entries of sub-tables up to 15 − 11 bits wide, 32 distance symbols at
	// most 32·2⁷/8.
	litSize  = 1<<litRoot + 288*16/5
	distSize = 1<<distRoot + 32*128/8

	// pairLit is the longest literal code that may start a pair: two codes of
	// six bits or more take more than litRoot.
	pairLit = litRoot / 2
	// entTwo marks a pair-table entry that holds two literals, the first in
	// bits 16–23 and the second in 24–31, their codes' lengths added up.
	entTwo = 1 << entExtra
)

// The entries of the three alphabets' symbols, without their lengths: the
// length codes from the encoder's lengthCode, the distance codes by the same
// rule a step coarser.
var (
	litSym  [288]uint32
	distSym [32]uint32
	preSym  [19]uint32
)

func init() {
	for s := range 256 {
		litSym[s] = uint32(s)<<entVal | entLit
	}
	litSym[256], litSym[286], litSym[287] = entEnd, entBad, entBad
	for l3 := 255; l3 >= 0; l3-- { // the last one written is the code's base
		code, extra := lengthCode(l3)
		litSym[257+code] = uint32(l3+3)<<entVal | uint32(extra)<<entExtra
	}
	distSym[0], distSym[1], distSym[30], distSym[31] = 1<<entVal, 2<<entVal, entBad, entBad
	for d := 2; d < 30; d++ {
		extra := d/2 - 1
		distSym[d] = uint32(1+(2+d%2)<<extra)<<entVal | uint32(extra)<<entExtra
	}
	for s := range preSym {
		preSym[s] = uint32(s) << entVal
	}
}

// inflater is an RFC 1951 decoder from one byte slice to another. The
// destination is the window: a distance reaches back over what this call has
// appended and no further. Bits come from a 64-bit buffer, codes resolve
// through the tables below, rebuilt for every block and never allocated, so a
// pooled inflater decodes without allocating.
type inflater struct {
	src []byte
	pos int    // of the next byte of src to load into b
	b   uint64 // the stream's next bits, lowest first
	// nb is how many bits of b count. Taking more than there are wraps it below
	// zero, which is looked at before the bits are used: see fail.
	nb   uint
	lit  [litSize]uint32
	dist [distSize]uint32
	pre  [1 << preRoot]uint32
	// pair is lit's primary table read two literals at a time, for a block
	// where buildPairs expects pairs: an entry holds two literals, or one
	// where the next code does not fit behind it, or no literal at all
	// (zero), and the caller looks in lit.
	pair [1 << litRoot]uint32
	// pairs says whether pair is the current block's. A field, not a
	// variable of huffman's: there it would take a register that huffman's
	// one-literal loop needs, at a cost to blocks without pairs too.
	pairs bool
	// lens are the code lengths of a block's two codes, one after the other as
	// the header sends them, and codes build's scratch.
	lens  [288 + 32]uint8
	codes [288]uint16
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate appends to dst what the DEFLATE stream at the head of src decodes
// to and returns the extended slice and the number of bytes of src the stream
// takes. It writes to dst[len(dst):cap(dst)] only, beyond the result's end too,
// and moves to a larger array, as append does, when that runs out.
func (f *inflater) inflate(dst, src []byte) ([]byte, int, error) {
	f.src, f.pos, f.b, f.nb = src, 0, 0, 0
	out, err := f.blocks(dst)
	f.src = nil // the pool must not pin the caller's buffer
	return out, f.pos - int(f.nb/8), err
}

// blocks decodes block after block up to the one marked final.
func (f *inflater) blocks(dst []byte) ([]byte, error) {
	start := len(dst)
	for final := false; !final; {
		hdr := f.take(3)
		if int(f.nb) < 0 {
			return nil, f.fail()
		}
		final = hdr&1 != 0
		var err error
		switch hdr >> 1 {
		case 0:
			dst, err = f.stored(dst)
		case 1:
			lens, i := f.lens[:], 0
			for _, r := range [...][2]int{{144, 8}, {256, 9}, {280, 7}, {288, 8}, {320, 5}} {
				for ; i < r[0]; i++ {
					lens[i] = uint8(r[1])
				}
			}
			f.build(f.lit[:], litRoot, lens[:288], litSym[:])
			f.build(f.dist[:], distRoot, lens[288:], distSym[:])
			f.pairs = false
			dst, err = f.huffman(dst, start)
		case 2:
			if f.pairs, err = f.readCodes(); err == nil {
				dst, err = f.huffman(dst, start)
			}
		default:
			err = f.fail()
		}
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// fail is the error of a stream that cannot be decoded further: it ended
// early if more bits were taken than it had, and is corrupt otherwise. The
// bits past the end read as zeros, and what is decoded from them is dropped
// here, so every taker looks at nb before it returns anything else.
func (f *inflater) fail() error {
	if int(f.nb) < 0 {
		return io.ErrUnexpectedEOF
	}
	return flate.CorruptInputError(f.pos)
}

// refill loads b with at least 56 bits, or what src has left: short of the
// source's last eight bytes by one load, of which the bytes that fit are
// counted. Those that do not leave bits above nb, which the next load repeats.
func refill(src []byte, pos int, b uint64, nb uint) (int, uint64, uint) {
	if pos+8 <= len(src) {
		b |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
		return pos + int(63-nb)>>3, b, nb | 56
	}
	for ; nb <= 55 && pos < len(src); pos++ {
		b |= uint64(src[pos]) << (nb & 63)
		nb += 8
	}
	return pos, b, nb
}

// take returns the next k ≤ 16 bits of the stream.
func (f *inflater) take(k uint) uint32 {
	f.pos, f.b, f.nb = refill(f.src, f.pos, f.b, f.nb)
	v := uint32(f.b) & (1<<k - 1)
	f.b >>= k
	f.nb -= k
	return v
}

// stored appends a stored block: the rest of the current byte is padding, then
// come the length, its complement and the bytes.
func (f *inflater) stored(dst []byte) ([]byte, error) {
	f.pos -= int(f.nb / 8) // whole bytes go back
	f.b, f.nb = 0, 0
	p := f.src[f.pos:]
	if len(p) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(p))
	if uint16(n) != ^binary.LittleEndian.Uint16(p[2:]) {
		return nil, flate.CorruptInputError(f.pos)
	}
	if len(p)-4 < n {
		return nil, io.ErrUnexpectedEOF
	}
	f.pos += 4 + n
	return append(dst, p[4:4+n]...), nil
}

// readCodes reads the header of a dynamic block and builds its two tables,
// and the pair table where buildPairs does, which it reports.
func (f *inflater) readCodes() (bool, error) {
	nlit, ndist, nclen := 257+int(f.take(5)), 1+int(f.take(5)), 4+int(f.take(4))
	if nlit > 286 || ndist > 30 {
		return false, f.fail()
	}
	var pre [19]uint8
	for _, s := range clOrder[:nclen] {
		pre[s] = uint8(f.take(3))
	}
	if !f.build(f.pre[:], preRoot, pre[:], preSym[:]) {
		return false, f.fail()
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		f.take(0) // loads b; the entry says how many bits to take
		e := f.pre[f.b&(1<<preRoot-1)]
		f.take(uint(e & entLen))
		s := int(e >> entVal)
		if e&entBad != 0 || s == 16 && i == 0 || int(f.nb) < 0 {
			return false, f.fail()
		}
		if s < 16 {
			lens[i] = uint8(s)
			i++
			continue
		}
		// Three to six times the length before, or three to ten zeros, or 11
		// to 138 of them.
		rep, l := 3+int(f.take(uint(clExtra[s]))), uint8(0)
		switch s {
		case 16:
			l = lens[i-1]
		case 18:
			rep += 8
		}
		if i+rep > len(lens) {
			return false, f.fail()
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}
	if int(f.nb) < 0 || !f.build(f.lit[:], litRoot, lens[:nlit], litSym[:]) || !f.build(f.dist[:], distRoot, lens[nlit:], distSym[:]) {
		return false, f.fail()
	}
	return f.buildPairs(lens[:256], lens[257:nlit]), nil
}

// build fills t with the decoding table of the prefix code that gives symbol s
// lens[s] bits, sym[s] being its entry without them, and reports whether the
// code is one compress/flate accepts: complete, or empty, or a single code of
// one bit. Whatever no code leads to is entBad.
func (f *inflater) build(t []uint32, root uint, lens []uint8, sym []uint32) bool {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	left := 1 // codes still free at this length
	for _, c := range count[1:] {
		if left = 2*left - c; left < 0 {
			return false
		}
	}
	if used := len(lens) - count[0]; left > 0 && used > 0 && (used > 1 || count[1] == 0) {
		return false
	}
	codes := f.codes[:len(lens)]
	canonical(codes, lens)
	for i := range t[:1<<root] {
		t[i] = entBad
	}
	// A code of up to root bits fills every entry its bits end. A longer one
	// leaves in the entry of its first root bits the length of the longest code
	// that shares them, the width of the sub-table to come.
	for s, l := range lens {
		switch l, code := uint(l), uint(codes[s]); {
		case l > root:
			if p := &t[code&(1<<root-1)]; uint(*p&entLen) < l {
				*p = entBad | uint32(l)
			}
		case l > 0:
			for i := code; i < 1<<root; i += 1 << l {
				t[i] = sym[s] | uint32(l)
			}
		}
	}
	next := uint32(1) << root
	for s, l := range lens {
		l, code := uint(l), uint32(codes[s])
		if l <= root {
			continue
		}
		p := &t[code&(1<<root-1)]
		if *p&entSub == 0 { // the first code of its prefix makes the sub-table
			k := *p&entLen - uint32(root)
			*p = next<<entVal | entSub | k<<entExtra | uint32(root)
			next += 1 << k
		}
		sub := t[*p>>entVal:][:1<<(*p>>entExtra&15)]
		for i := code >> root; int(i) < len(sub); i += 1 << (l - root) {
			sub[i] = sym[s] | uint32(l-root)
		}
	}
	return true
}

// buildPairs fills the pair table from lit's primary table, the literal and
// length codes' lengths being lits and lengths, and reports whether it did.
// It does when the commonest literal's code is pairLit bits or shorter, as
// no two literals fit otherwise, and shorter than every length code: where a
// length is as common as any literal, matches keep breaking the literals up,
// as in the run-coded planes of hard data, and pairs are rare.
func (f *inflater) buildPairs(lits, lengths []uint8) bool {
	if l := shortest(lits); l > pairLit || l >= shortest(lengths) {
		return false
	}
	lit := (*[1 << litRoot]uint32)(f.lit[:])
	for i, e := range lit {
		if e&entLit == 0 {
			f.pair[i] = 0
			continue
		}
		// The code after this one starts at bit l of the index; lit's entry
		// for the bits that are left is its symbol if its code fits in them.
		l := e & entLen
		e2 := lit[uint32(i)>>l]
		if e2&entLit != 0 && l+e2&entLen <= litRoot {
			e = e&^entLen | entTwo | (l + e2&entLen) | e2>>entVal<<(entVal+8)
		}
		f.pair[i] = e
	}
	return true
}

// shortest is the length of the shortest code among lens, 16 if there is none.
func shortest(lens []uint8) uint8 {
	m := uint8(16)
	for _, l := range lens {
		if l != 0 {
			m = min(m, l)
		}
	}
	return m
}

// literalPairs decodes literals by twos through the pair table, each pair or
// lone literal in one 16-bit store, as long as both of its bytes fit in buf
// (the second is scratch where the entry holds one) and, refilled as they go,
// the bits leave the 20 a length may take behind them. It returns the
// decoder's state where it stops, in front of the symbol that stopped it. It
// is a function of its own for the same reason pairs is a field.
func literalPairs(pair *[1 << litRoot]uint32, src, buf []byte, n, pos int, b uint64, nb uint) (int, int, uint64, uint) {
	for uint(n+1) < uint(len(buf)) {
		if nb < litRoot+20 {
			if pos, b, nb = refill(src, pos, b, nb); nb < litRoot+20 {
				break
			}
		}
		e := pair[b&(1<<litRoot-1)]
		if e == 0 {
			break
		}
		binary.LittleEndian.PutUint16(buf[n:], uint16(e>>entVal))
		n += 1 + int(e>>entExtra&1)
		b >>= e & entLen
		nb -= uint(e & entLen)
	}
	return n, pos, b, nb
}

// huffman decodes the symbols of a block up to its end-of-block code, the
// tables being built, and the pair table if f.pairs says so. start is where
// this call's output begins in dst.
func (f *inflater) huffman(dst []byte, start int) ([]byte, error) {
	buf, n := dst[:cap(dst)], len(dst)
	src, pos, b, nb := f.src, f.pos, f.b, f.nb
	lit, dist := &f.lit, &f.dist
	for int(nb) >= 0 {
		pos, b, nb = refill(src, pos, b, nb)
		if f.pairs {
			n, pos, b, nb = literalPairs(&f.pair, src, buf, n, pos, b, nb)
		}
		e := lit[b&(1<<litRoot-1)]
		// Literals straight from the primary table, as many as leave the 20
		// bits a length may take.
		for e&entLit != 0 && nb >= litRoot+20 && uint(n) < uint(len(buf)) {
			buf[n] = byte(e >> entVal)
			n++
			b >>= e & entLen
			nb -= uint(e & entLen)
			e = lit[b&(1<<litRoot-1)]
		}
		b >>= e & entLen
		nb -= uint(e & entLen)
		if e&entSub != 0 {
			e = lit[e>>entVal+uint32(b)&(1<<(e>>entExtra&15)-1)]
			b >>= e & entLen
			nb -= uint(e & entLen)
		}
		if e&entLit != 0 {
			if n == len(buf) {
				buf = slices.Grow(buf, 1)
				buf = buf[:cap(buf)]
			}
			buf[n] = byte(e >> entVal)
			n++
			continue
		}
		if e&(entEnd|entBad) != 0 {
			if e&entBad != 0 || int(nb) < 0 {
				break
			}
			f.pos, f.b, f.nb = pos, b, nb
			return buf[:n], nil
		}
		x := uint(e >> entExtra & 15)
		length := int(e>>entVal) + int(uint32(b)&(1<<x-1))
		b >>= x
		nb -= x
		if nb < 15+13 { // what a distance may take
			pos, b, nb = refill(src, pos, b, nb)
		}
		e = dist[b&(1<<distRoot-1)]
		b >>= e & entLen
		nb -= uint(e & entLen)
		if e&entSub != 0 {
			e = dist[e>>entVal+uint32(b)&(1<<(e>>entExtra&15)-1)]
			b >>= e & entLen
			nb -= uint(e & entLen)
		}
		x = uint(e >> entExtra & 15)
		d := int(e>>entVal) + int(uint32(b)&(1<<x-1))
		b >>= x
		nb -= x
		if e&entBad != 0 || d > n-start || int(nb) < 0 {
			break
		}
		switch {
		case n+length+8 > len(buf) || d < 8 && d > 1:
			if n+length > len(buf) {
				buf = slices.Grow(buf[:n], length)
				buf = buf[:cap(buf)]
			}
			for i := n; i < n+length; i++ {
				buf[i] = buf[i-d]
			}
		case d == 1: // a run: whole words of its byte, the last one over the end
			v := uint64(buf[n-1]) * 0x0101010101010101
			for i := n; i < n+length; i += 8 {
				binary.LittleEndian.PutUint64(buf[i:], v)
			}
		default:
			for i := n; i < n+length; i += 8 {
				binary.LittleEndian.PutUint64(buf[i:], binary.LittleEndian.Uint64(buf[i-d:]))
			}
		}
		n += length
	}
	f.pos, f.b, f.nb = pos, b, nb
	return nil, f.fail()
}

// adler32sum is hash/adler32's Checksum eight bytes at a step: the bytes of a
// word are summed, and summed with the weights 8 … 1 their places give them in
// the second sum, by three multiplications that add up 16-bit lanes.
func adler32sum(p []byte) uint32 {
	const (
		mod  = 65521
		nmax = 5552 // the most bytes, a multiple of 8, that cannot overflow b
		even = 0x00ff00ff00ff00ff
	)
	a, b := uint32(1), uint32(0)
	for len(p) > 0 {
		q := p[:min(len(p), nmax)]
		p = p[len(q):]
		for ; len(q) >= 8; q = q[8:] {
			w := binary.LittleEndian.Uint64(q)
			lo, hi := w&even, w>>8&even
			b += 8*a + uint32((lo*0x0008000600040002+hi*0x0007000500030001)>>48)
			a += uint32((lo + hi) * 0x0001000100010001 >> 48)
		}
		for _, x := range q {
			a += uint32(x)
			b += a
		}
		a %= mod
		b %= mod
	}
	return b<<16 | a
}
