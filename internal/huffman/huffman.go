// Package huffman implements a canonical Huffman entropy coder over byte-ish
// symbol alphabets (up to 4096 symbols). It is the entropy back end of the
// bzlib-style block compressor and the fpzip-style predictive coder.
//
// Codes are length-limited to MaxCodeLen bits using a Kraft-sum repair pass,
// then assigned canonically (shorter codes first; within a length, ascending
// symbol order), so a decoder can be reconstructed from code lengths alone.
package huffman

import (
	"errors"
	"fmt"

	"primacy/internal/bitio"
)

// MaxCodeLen is the longest permitted code in bits.
const MaxCodeLen = 20

// MaxSymbols is the largest supported alphabet size.
const MaxSymbols = 4096

var (
	// ErrBadLengths indicates a length table that is not a valid prefix code.
	ErrBadLengths = errors.New("huffman: code lengths violate Kraft inequality")
	// ErrUnknownSymbol indicates an attempt to encode a symbol with no code
	// (zero frequency at build time).
	ErrUnknownSymbol = errors.New("huffman: symbol has no code")
	// ErrCorrupt indicates an undecodable bit pattern in the stream.
	ErrCorrupt = errors.New("huffman: corrupt stream")
)

// Codec holds a canonical code for one alphabet.
type Codec struct {
	numSymbols int
	lengths    []uint8  // per-symbol code length (0 = absent)
	codes      []uint32 // per-symbol canonical code, MSB-first

	// Canonical decode acceleration: for each length L,
	// firstCode[L] is the first canonical code of that length and
	// firstIndex[L] the index into symByCode of its first symbol.
	firstCode  [MaxCodeLen + 2]uint32
	firstIndex [MaxCodeLen + 2]int
	symByCode  []uint16 // symbols ordered by canonical code
	counts     [MaxCodeLen + 2]int
	minLen     uint8
	maxLen     uint8

	// lut accelerates decoding: indexed by the next peekBits bits, each
	// entry holds symbol<<8 | codeLength for codes no longer than peekBits
	// (0 = long code, fall back to the canonical walk).
	lut []uint32
}

// peekBits is the decode-lookup window; codes up to this length decode with
// one table access.
const peekBits = 10

// Build constructs a length-limited canonical code from symbol frequencies.
// Symbols with zero frequency get no code. At least one symbol must have a
// nonzero frequency. A single-symbol alphabet gets a 1-bit code.
func Build(freqs []int) (*Codec, error) {
	if len(freqs) == 0 || len(freqs) > MaxSymbols {
		return nil, fmt.Errorf("huffman: alphabet size %d out of range", len(freqs))
	}
	lengths := make([]uint8, len(freqs))
	nonzero := 0
	for _, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency %d", f)
		}
		if f > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		return nil, errors.New("huffman: no symbols with nonzero frequency")
	}
	if nonzero == 1 {
		for i, f := range freqs {
			if f > 0 {
				lengths[i] = 1
			}
		}
		return FromLengths(lengths)
	}
	buildLengths(freqs, lengths)
	limitLengths(lengths, MaxCodeLen)
	return FromLengths(lengths)
}

// node is a Huffman tree node used only during length construction.
type node struct {
	freq        int64
	left, right int32 // child indices, -1 for leaves
	symbol      int32
}

// buildLengths fills lengths with unrestricted Huffman code lengths.
func buildLengths(freqs []int, lengths []uint8) {
	nodes := make([]node, 0, 2*len(freqs))
	heap := make([]int32, 0, len(freqs))
	for i, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{freq: int64(f), left: -1, right: -1, symbol: int32(i)})
			heap = append(heap, int32(len(nodes)-1))
		}
	}
	less := func(a, b int32) bool {
		if nodes[a].freq != nodes[b].freq {
			return nodes[a].freq < nodes[b].freq
		}
		return a < b // deterministic tie-break by creation order
	}
	// Binary min-heap over node indices.
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				return
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	pop := func() int32 {
		top := heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		down(0)
		return top
	}
	for len(heap) > 1 {
		a := pop()
		b := pop()
		nodes = append(nodes, node{freq: nodes[a].freq + nodes[b].freq, left: a, right: b, symbol: -1})
		heap = append(heap, int32(len(nodes)-1))
		up(len(heap) - 1)
	}
	// Depth-first walk assigning depths as code lengths.
	type frame struct {
		idx   int32
		depth uint8
	}
	stack := []frame{{heap[0], 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := nodes[f.idx]
		if n.left < 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			lengths[n.symbol] = d
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
}

// limitLengths caps code lengths at maxLen, repairing the Kraft sum by
// deepening the shallowest over-budget codes (zlib-style heuristic).
func limitLengths(lengths []uint8, maxLen uint8) {
	over := false
	for _, l := range lengths {
		if l > maxLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	// Clamp, then fix Kraft: sum of 2^(maxLen-len) must equal 2^maxLen.
	var kraft int64
	for i, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxLen {
			lengths[i] = maxLen
			l = maxLen
		}
		kraft += int64(1) << (maxLen - l)
	}
	limit := int64(1) << maxLen
	// Deepen codes (increase length) until the sum fits.
	for kraft > limit {
		// Find a code shorter than maxLen to lengthen; prefer the deepest
		// such code to minimally distort the distribution.
		best := -1
		for i, l := range lengths {
			if l > 0 && l < maxLen {
				if best < 0 || l > lengths[best] {
					best = i
				}
			}
		}
		if best < 0 {
			break // cannot happen for valid alphabets
		}
		kraft -= int64(1) << (maxLen - lengths[best] - 1)
		lengths[best]++
	}
	// If underfull, shorten the longest codes greedily (optional tightening).
	for kraft < limit {
		best := -1
		for i, l := range lengths {
			if l > 1 {
				gain := int64(1) << (maxLen - l)
				if kraft+gain <= limit {
					if best < 0 || l > lengths[best] {
						best = i
					}
				}
			}
		}
		if best < 0 {
			break
		}
		kraft += int64(1) << (maxLen - lengths[best])
		lengths[best]--
	}
}

// FromLengths reconstructs a Codec from per-symbol code lengths
// (the decode-side constructor). Lengths must satisfy the Kraft equality
// for a complete prefix code, except that a single 1-bit code is allowed.
func FromLengths(lengths []uint8) (*Codec, error) {
	if len(lengths) == 0 || len(lengths) > MaxSymbols {
		return nil, fmt.Errorf("huffman: alphabet size %d out of range", len(lengths))
	}
	c := &Codec{
		numSymbols: len(lengths),
		lengths:    append([]uint8(nil), lengths...),
		codes:      make([]uint32, len(lengths)),
		minLen:     MaxCodeLen + 1,
	}
	var counts [MaxCodeLen + 2]int
	nonzero := 0
	for _, l := range lengths {
		if l > MaxCodeLen {
			return nil, fmt.Errorf("huffman: length %d exceeds max %d", l, MaxCodeLen)
		}
		if l > 0 {
			counts[l]++
			nonzero++
			if l < c.minLen {
				c.minLen = l
			}
			if l > c.maxLen {
				c.maxLen = l
			}
		}
	}
	if nonzero == 0 {
		return nil, errors.New("huffman: empty code")
	}
	// Kraft check: allow incomplete code only for the degenerate 1-symbol case.
	var kraft int64
	for l := uint8(1); l <= MaxCodeLen; l++ {
		kraft += int64(counts[l]) << (MaxCodeLen - l)
	}
	full := int64(1) << MaxCodeLen
	if kraft > full {
		return nil, ErrBadLengths
	}
	if kraft < full && !(nonzero == 1 && counts[1] == 1) {
		return nil, ErrBadLengths
	}
	// Canonical first codes per length.
	code := uint32(0)
	var next [MaxCodeLen + 2]uint32
	for l := uint8(1); l <= c.maxLen; l++ {
		code = (code + uint32(counts[l-1])) << 1
		c.firstCode[l] = code
		next[l] = code
	}
	copy(c.counts[:], counts[:])
	// Symbols ordered by (length, symbol) = canonical code order.
	c.symByCode = make([]uint16, 0, nonzero)
	idx := 0
	for l := uint8(1); l <= c.maxLen; l++ {
		c.firstIndex[l] = idx
		for s, sl := range lengths {
			if sl == l {
				c.codes[s] = next[l]
				next[l]++
				c.symByCode = append(c.symByCode, uint16(s))
				idx++
			}
		}
	}
	c.buildLUT()
	return c, nil
}

// buildLUT fills the peekBits-wide decode acceleration table.
func (c *Codec) buildLUT() {
	c.lut = make([]uint32, 1<<peekBits)
	for s, l := range c.lengths {
		if l == 0 || l > peekBits {
			continue
		}
		base := c.codes[s] << (peekBits - uint32(l))
		span := uint32(1) << (peekBits - uint32(l))
		entry := uint32(s)<<8 | uint32(l)
		for i := uint32(0); i < span; i++ {
			c.lut[base+i] = entry
		}
	}
}

// Encode appends the code for symbol s to w.
func (c *Codec) Encode(w *bitio.Writer, s int) error {
	if s < 0 || s >= c.numSymbols || c.lengths[s] == 0 {
		return ErrUnknownSymbol
	}
	return w.WriteBits(uint64(c.codes[s]), uint(c.lengths[s]))
}

// Decode reads one symbol from r, using the lookup table when the next code
// fits the peek window and the canonical walk otherwise.
func (c *Codec) Decode(r *bitio.Reader) (int, error) {
	if v, avail := r.PeekBits(peekBits); avail > 0 {
		if e := c.lut[v]; e != 0 {
			l := uint(e & 0xFF)
			if l <= avail {
				if err := r.SkipBits(l); err != nil {
					return 0, err
				}
				return int(e >> 8), nil
			}
		}
	}
	return c.decodeSlow(r)
}

// decodeSlow is the bit-by-bit canonical decode used for codes longer than
// the peek window (or near the end of the stream).
func (c *Codec) decodeSlow(r *bitio.Reader) (int, error) {
	code := uint32(0)
	// Prime with minLen bits.
	v, err := r.ReadBits(uint(c.minLen))
	if err != nil {
		return 0, err
	}
	code = uint32(v)
	for l := c.minLen; l <= c.maxLen; l++ {
		count := c.counts[l]
		if count > 0 && code >= c.firstCode[l] && code < c.firstCode[l]+uint32(count) {
			return int(c.symByCode[c.firstIndex[l]+int(code-c.firstCode[l])]), nil
		}
		if l == c.maxLen {
			break
		}
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
	}
	return 0, ErrCorrupt
}

// WriteLengths serializes the code-length table compactly:
// gamma(alphabetSize) then per-symbol 5-bit lengths run-length encoded as
// (gamma runLen, 5-bit value) pairs.
func (c *Codec) WriteLengths(w *bitio.Writer) error {
	if err := w.WriteGamma(uint64(c.numSymbols)); err != nil {
		return err
	}
	i := 0
	for i < c.numSymbols {
		j := i
		for j < c.numSymbols && c.lengths[j] == c.lengths[i] {
			j++
		}
		if err := w.WriteGamma(uint64(j - i - 1)); err != nil {
			return err
		}
		if err := w.WriteBits(uint64(c.lengths[i]), 5); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// ReadLengths deserializes a table written by WriteLengths and rebuilds the
// codec.
func ReadLengths(r *bitio.Reader) (*Codec, error) {
	n, err := r.ReadGamma()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > MaxSymbols {
		return nil, fmt.Errorf("huffman: bad alphabet size %d", n)
	}
	lengths := make([]uint8, n)
	i := 0
	for i < int(n) {
		run, err := r.ReadGamma()
		if err != nil {
			return nil, err
		}
		v, err := r.ReadBits(5)
		if err != nil {
			return nil, err
		}
		end := i + int(run) + 1
		if end > int(n) {
			return nil, ErrCorrupt
		}
		for ; i < end; i++ {
			lengths[i] = uint8(v)
		}
	}
	return FromLengths(lengths)
}

// EstimateBits returns the exact compressed payload size in bits for the
// given frequency vector under this code (excluding the table).
func (c *Codec) EstimateBits(freqs []int) (uint64, error) {
	if len(freqs) != c.numSymbols {
		return 0, fmt.Errorf("huffman: frequency vector size %d != alphabet %d", len(freqs), c.numSymbols)
	}
	var bits uint64
	for s, f := range freqs {
		if f == 0 {
			continue
		}
		if c.lengths[s] == 0 {
			return 0, ErrUnknownSymbol
		}
		bits += uint64(f) * uint64(c.lengths[s])
	}
	return bits, nil
}
