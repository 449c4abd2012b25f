package solver

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/adler32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"primacy/internal/testenv"
)

// stdInflate is compress/flate's reading of the DEFLATE stream at the head of
// src — the oracle of every test here: its output, how many bytes of src it
// took (a bytes.Reader is an io.ByteReader, so it never reads ahead) and its
// error.
func stdInflate(src []byte) ([]byte, int, error) {
	br := bytes.NewReader(src)
	out, err := io.ReadAll(flate.NewReader(br))
	return out, len(src) - br.Len(), err
}

// guarded calls the in-tree inflater on src with a destination of n live bytes
// and room for free more, cut out of the middle of a larger array, and fails
// if a byte outside dst[len(dst):cap(dst)] changed, or if a destination with
// room for the whole output was moved.
func guarded(t testing.TB, what string, src []byte, n, free int) ([]byte, int, error) {
	t.Helper()
	const fence = 64
	back := bytes.Repeat([]byte{0xa5}, fence+n+free+fence)
	dst := back[fence : fence+n : fence+n+free]
	f := inflaters.Get().(*inflater)
	out, used, err := f.inflate(dst, src)
	if f.src != nil {
		t.Fatalf("%s: the inflater still holds its source", what)
	}
	inflaters.Put(f)
	for i, b := range back {
		if b != 0xa5 && (i < fence+n || i >= fence+n+free) {
			t.Fatalf("%s: byte %d of the array is written, outside dst[%d:%d]", what, i-fence, n, n+free)
		}
	}
	if err != nil {
		return nil, 0, err
	}
	if !bytes.Equal(out[:n], back[:n]) { // the fence's bytes are the live ones' too
		t.Fatalf("%s: the %d bytes before len(dst) came back changed", what, n)
	}
	if n+free > 0 && len(out) <= n+free && &out[:1][0] != &dst[:1][0] {
		t.Fatalf("%s: a destination with room for %d bytes was moved for %d", what, free, len(out)-n)
	}
	return out[n:], used, nil
}

// checkSame holds the in-tree inflater to compress/flate's verdict on src:
// both fail, or both succeed with the same output from the same number of
// source bytes — into a nil destination, an exactly pre-sized one, one a byte
// short, which must grow and not overrun, and one with live bytes before
// len(dst). It returns the output and the in-tree error.
func checkSame(t testing.TB, what string, src []byte) ([]byte, error) {
	t.Helper()
	want, used, wantErr := stdInflate(src)
	var err error
	for _, d := range [][2]int{{0, 0}, {0, len(want)}, {0, max(len(want)-1, 0)}, {5, len(want) + 3}} {
		var got []byte
		var n int
		got, n, err = guarded(t, what, src, d[0], d[1])
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: in-tree error %v, compress/flate's %v", what, err, wantErr)
		}
		if err == nil && (!bytes.Equal(got, want) || n != used) {
			t.Fatalf("%s: %d bytes from %d of source, compress/flate reads %d from %d", what, len(got), n, len(want), used)
		}
	}
	return want, err
}

// deflated is compress/flate's own stream for src at level.
func deflated(t testing.TB, src []byte, level int) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = w.Write(src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// Every stream the standard library writes — Huffman-only, levels 0, 1, 6 and
// 9, so stored, fixed and dynamic blocks — for every kind of content at the
// lengths where a length code, a stored block or a refill ends, and every
// stream the default level writes for them, decodes as compress/flate decodes
// it.
func TestInflateReadsWhatTheWritersWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 2, 3, 258, 259, 260, 261, 262, 65535, 65536, 65537, 3*zlibSegment + 5} {
		for kind := 0; kind < numKinds; kind++ {
			in := fill(nil, rng, kind, n)
			for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 6, 9} {
				what := fmt.Sprintf("kind %d, %d bytes, level %d", kind, n, level)
				if got, err := checkSame(t, what, deflated(t, in, level)); err != nil || !bytes.Equal(got, in) {
					t.Fatalf("%s: does not read back: %v", what, err)
				}
			}
			enc, err := Zlib{}.CompressTo(nil, in)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("kind %d, %d bytes, default level", kind, n)
			if got, err := checkSame(t, what, enc[2:len(enc)-4]); err != nil || !bytes.Equal(got, in) {
				t.Fatalf("%s: does not read back: %v", what, err)
			}
			checkReadsBack(t, what, enc, in)
		}
	}
}

// The pair table of a block whose literal codes take 1 to 10 bits: the entry
// at two literals' codes holds both when they take litRoot bits or fewer, 11
// included, and the first alone when they take more, 12 included.
func TestInflatePairTable(t *testing.T) {
	in := fill(nil, rand.New(rand.NewSource(37)), kindSkewed, 60000) // one block
	f := new(inflater)
	out, _, err := f.inflate(nil, deflated(t, in, flate.HuffmanOnly))
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("does not read back: %v", err)
	}
	lit := newCode(f.lens[:256])
	sums := map[uint8]int{}
	for s1, l1 := range lit.lens {
		for s2, l2 := range lit.lens {
			if l1 == 0 || l2 == 0 {
				continue
			}
			e := f.pair[(uint32(lit.codes[s1])|uint32(lit.codes[s2])<<l1)&(1<<litRoot-1)]
			want := uint32(s1)<<entVal | entLit | uint32(l1)
			if l1+l2 <= litRoot {
				want = uint32(s1)<<entVal | uint32(s2)<<(entVal+8) | entLit | entTwo | uint32(l1+l2)
			}
			if e != want {
				t.Fatalf("literals %d (%d bits) and %d (%d bits): entry %#x, want %#x", s1, l1, s2, l2, e, want)
			}
			sums[l1+l2]++
		}
	}
	if sums[litRoot] == 0 || sums[litRoot+1] == 0 {
		t.Fatalf("two literals take %v bits, want %d and %d among them", sums, litRoot, litRoot+1)
	}
	// The gate: a block pairs its literals when its shortest literal code
	// takes pairLit bits or fewer (two of them take 10 here) and is shorter
	// than every length code. Each code below is complete: 2^lit − 1 codes
	// of lit bits (literals, and the length code where it has that length)
	// and two of lit+1 (end-of-block and a literal or the length code); or
	// the length code of one bit, literal 0 of two, and literal 1 and
	// end-of-block of three.
	for _, c := range []struct {
		lit, length uint8
		built       bool
	}{
		{pairLit, 0, true},
		{pairLit + 1, 0, false},
		{pairLit, pairLit + 1, true},
		{pairLit, pairLit, false},
		{2, 1, false},
	} {
		lens := make([]uint8, 258)
		if c.length == 1 {
			lens[257], lens[0], lens[1], lens[256] = 1, 2, 3, 3
		} else {
			n := 1<<c.lit - 1 // codes of c.lit bits
			if c.length == c.lit {
				lens[257] = c.length
				n--
			}
			for s := range n {
				lens[s] = c.lit
			}
			lens[256] = c.lit + 1
			if c.length == c.lit+1 {
				lens[257] = c.length
			} else {
				lens[n] = c.lit + 1
			}
		}
		if !f.build(f.lit[:], litRoot, lens, litSym[:]) {
			t.Fatalf("%+v: not a complete code", c)
		}
		if built := f.buildPairs(lens[:256], lens[257:]); built != c.built || built && f.pair[0]&entTwo == 0 {
			t.Fatalf("%+v: pair table built %v, entry 0 %#x", c, built, f.pair[0])
		}
	}
}

// bitWriter packs a hand-made DEFLATE stream, lowest bit first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, k uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += k; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// align pads the current byte with zeros.
func (w *bitWriter) align() *bitWriter {
	if w.n > 0 {
		w.put(0, 8-w.n)
	}
	return w
}

// bytes pads the last byte with zeros.
func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// prefixCode writes the symbols of one canonical code.
type prefixCode struct {
	lens  []uint8
	codes []uint16
}

func newCode(lens []uint8) prefixCode {
	c := prefixCode{lens, make([]uint16, len(lens))}
	canonical(c.codes, lens)
	return c
}

func (c prefixCode) put(w *bitWriter, s int) { w.put(uint64(c.codes[s]), uint(c.lens[s])) }

// fixedLit is the literal/length code of a fixed block.
var fixedLit = func() prefixCode {
	lens := bytes.Repeat([]byte{8}, 288)
	copy(lens[144:], bytes.Repeat([]byte{9}, 112))
	copy(lens[256:], bytes.Repeat([]byte{7}, 24))
	return newCode(lens)
}()

// fixedDist writes distance code d of a fixed block: five bits, highest first.
func fixedDist(w *bitWriter, d int) {
	for i := 4; i >= 0; i-- {
		w.put(uint64(d>>i&1), 1)
	}
}

// preLens is a complete code-length code with every symbol in it: thirteen of
// four bits, six of five.
var preLens = [19]uint8{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5}

// dynamic starts a final dynamic block: the header, pre as the code-length
// code, and syms, each a code-length symbol | extra<<5, through it.
func dynamic(nlit, ndist int, pre [19]uint8, syms ...int) *bitWriter {
	w := new(bitWriter).put(1|2<<1, 3).put(uint64(nlit-257), 5).put(uint64(ndist-1), 5).put(19-4, 4)
	for _, s := range clOrder {
		w.put(uint64(pre[s]), 3)
	}
	c := newCode(pre[:])
	for _, s := range syms {
		c.put(w, s&31)
		w.put(uint64(s>>5), uint(clExtra[s&31]))
	}
	return w
}

// lengths is n code lengths, zero but for the symbol, length pairs given.
func lengths(n int, pairs ...int) []uint8 {
	lens := make([]uint8, n)
	for i := 0; i < len(pairs); i += 2 {
		lens[pairs[i]] = uint8(pairs[i+1])
	}
	return lens
}

// plain is the code lengths of a block's two codes as code-length symbols, one
// each.
func plain(lit, dist []uint8) (syms []int) {
	for _, l := range append(lit[:len(lit):len(lit)], dist...) {
		syms = append(syms, int(l))
	}
	return syms
}

// Streams no writer writes. Each is an error — compress/flate's verdict too —
// or, where the standard library is lenient, decodes the same; none panics or
// writes outside its destination (guarded, under checkSame).
func TestInflateHostile(t *testing.T) {
	fixed := func() *bitWriter { return new(bitWriter).put(1|1<<1, 3) }
	endOnly := lengths(257, 256, 1) // a single one-bit code: the block is its 0
	aRun := lengths(258, 'a', 2, 256, 2, 257, 1)
	// A literal code of 1 to 10 bits, 'a' to 'j', and end-of-block of 10: two
	// literals pair up when their codes take 11 bits or fewer, as "aj", "ja",
	// "ef" and "fe" do, and not when they take 12, as "bj" does. literals
	// starts a block of it, final or not, with s in it.
	skew := lengths(257, 'a', 1, 'b', 2, 'c', 3, 'd', 4, 'e', 5, 'f', 6, 'g', 7, 'h', 8, 'i', 9, 'j', 10, 256, 10)
	skewCode := newCode(skew)
	literals := func(final bool, s string) *bitWriter {
		w := dynamic(257, 1, preLens, plain(skew, []uint8{1})...)
		if !final {
			w.out[0] &^= 1
		}
		for _, b := range []byte(s) {
			skewCode.put(w, int(b))
		}
		return w
	}
	// The fast loop takes a pair only while the input holds, behind it, the
	// 20 bits a length may take, so to reach the end of the output by pairs
	// the literals' block has an empty stored block behind it.
	pairsToTheEnd := func(s string) *bitWriter {
		w := literals(false, s)
		skewCode.put(w, 256)
		return w.put(1, 3).align().put(0, 16).put(0xffff, 16)
	}
	pairs := strings.Repeat("ajjaeffebj", 8)
	cases := []struct {
		name string
		w    *bitWriter
		want string // "" for an error
		ok   bool
	}{
		{name: "distance 1 at output offset 0", w: func() *bitWriter {
			w := fixed()
			fixedLit.put(w, 257)
			fixedDist(w, 0)
			fixedLit.put(w, 256)
			return w
		}()},
		{name: "distance 2 after one byte", w: func() *bitWriter {
			w := fixed()
			fixedLit.put(w, 'a')
			fixedLit.put(w, 257)
			fixedDist(w, 1)
			fixedLit.put(w, 256)
			return w
		}()},
		{name: "distance 1 after one byte", ok: true, want: "aaaa", w: func() *bitWriter {
			w := fixed()
			fixedLit.put(w, 'a')
			fixedLit.put(w, 257)
			fixedDist(w, 0)
			fixedLit.put(w, 256)
			return w
		}()},
		{name: "length 258 by code 284 and 31 extra", ok: true, want: "b" + string(bytes.Repeat([]byte("b"), 258)), w: func() *bitWriter {
			w := fixed()
			fixedLit.put(w, 'b')
			fixedLit.put(w, 284)
			w.put(31, 5)
			fixedDist(w, 0)
			fixedLit.put(w, 256)
			return w
		}()},
		{name: "literal/length symbol 286", w: func() *bitWriter { w := fixed(); fixedLit.put(w, 286); fixedLit.put(w, 256); return w }()},
		{name: "literal/length symbol 287", w: func() *bitWriter { w := fixed(); fixedLit.put(w, 287); fixedLit.put(w, 256); return w }()},
		{name: "distance code 30", w: func() *bitWriter {
			w := fixed()
			fixedLit.put(w, 'a')
			fixedLit.put(w, 257)
			fixedDist(w, 30)
			fixedLit.put(w, 256)
			return w
		}()},
		{name: "distance code 31", w: func() *bitWriter {
			w := fixed()
			fixedLit.put(w, 'a')
			fixedLit.put(w, 257)
			fixedDist(w, 31)
			fixedLit.put(w, 256)
			return w
		}()},
		{name: "block type 3", w: new(bitWriter).put(1|3<<1, 3)},
		{name: "stored block, LEN is not ^NLEN", w: new(bitWriter).put(1, 8).put(3, 16).put(0xfff0, 16).put('x', 8).put('y', 8).put('z', 8)},
		{name: "stored block", ok: true, want: "xyz", w: new(bitWriter).put(1, 8).put(3, 16).put(0xfffc, 16).put('x', 8).put('y', 8).put('z', 8)},
		{name: "HLIT of 287", w: dynamic(287, 1, preLens, plain(lengths(287, 256, 1), []uint8{1})...).put(0, 1)},
		{name: "HDIST of 31", w: dynamic(257, 31, preLens, plain(endOnly, lengths(31, 0, 1))...).put(0, 1)},
		{name: "over-subscribed code-length code", w: dynamic(257, 1, [19]uint8{1, 1, 1}, 0)},
		{name: "incomplete code-length code", w: dynamic(257, 1, [19]uint8{2, 2, 2}, 0)},
		{name: "empty code-length code", w: dynamic(257, 1, [19]uint8{}).put(0, 64)},
		{name: "over-subscribed literal/length code", w: dynamic(257, 1, preLens, plain(lengths(257, 0, 1, 1, 1, 256, 1), []uint8{1})...).put(0, 1)},
		{name: "incomplete literal/length code", w: dynamic(257, 1, preLens, plain(lengths(257, 0, 2, 256, 1), []uint8{1})...).put(0, 1)},
		{name: "a single literal/length code of two bits", w: dynamic(257, 1, preLens, plain(lengths(257, 256, 2), []uint8{1})...).put(0, 2)},
		{name: "a single literal/length code of one bit", ok: true, w: dynamic(257, 1, preLens, plain(endOnly, []uint8{1})...).put(0, 1)},
		{name: "no end-of-block code", w: dynamic(257, 1, preLens, plain(lengths(257, 0, 1, 1, 1), []uint8{1})...).put(0, 64)},
		{name: "over-subscribed distance code", w: dynamic(257, 3, preLens, plain(endOnly, []uint8{1, 1, 1})...).put(0, 1)},
		{name: "incomplete distance code", w: dynamic(257, 3, preLens, plain(endOnly, []uint8{2, 2, 2})...).put(0, 1)},
		{name: "a single distance code of two bits", w: dynamic(257, 1, preLens, plain(endOnly, []uint8{2})...).put(0, 1)},
		// As zlib and compress/flate, and what every literal-only block of the
		// standard library's writers has: the distance code is one code of one
		// bit, or empty. The first decodes its 0 and fails on 1, the second
		// fails when used.
		{name: "a single one-bit distance code", ok: true, want: "aaaa", w: func() *bitWriter {
			w, c := dynamic(258, 1, preLens, plain(aRun, []uint8{1})...), newCode(aRun)
			c.put(w, 'a')
			c.put(w, 257)
			w.put(0, 1)
			c.put(w, 256)
			return w
		}()},
		{name: "the other bit of a single one-bit distance code", w: func() *bitWriter {
			w, c := dynamic(258, 1, preLens, plain(aRun, []uint8{1})...), newCode(aRun)
			c.put(w, 'a')
			c.put(w, 257)
			w.put(1, 1)
			c.put(w, 256)
			return w
		}()},
		{name: "an empty distance code, unused", ok: true, want: "a", w: func() *bitWriter {
			w, c := dynamic(258, 1, preLens, plain(aRun, []uint8{0})...), newCode(aRun)
			c.put(w, 'a')
			c.put(w, 256)
			return w
		}()},
		{name: "an empty distance code, used", w: func() *bitWriter {
			w, c := dynamic(258, 1, preLens, plain(aRun, []uint8{0})...), newCode(aRun)
			c.put(w, 'a')
			c.put(w, 257)
			w.put(0, 1)
			c.put(w, 256)
			return w
		}()},
		{name: "repeat code 16 with no length before it", w: dynamic(257, 1, preLens, 16)},
		{name: "code lengths running past HLIT+HDIST", w: dynamic(257, 1, preLens, 18|127<<5, 18|110<<5)},
		// checkSame's exactly sized destination puts the last pair's second
		// literal at len(buf)-1, or leaves one byte, which a pair's 16-bit
		// store must not be taken for.
		{name: "pairs up to the last byte of the output", ok: true, want: pairs, w: pairsToTheEnd(pairs)},
		{name: "pairs up to one byte short of the output", ok: true, want: pairs + "a", w: pairsToTheEnd(pairs + "a")},
		{name: "a pair of 11 bits at the end of the output", ok: true, want: pairs + "ef", w: pairsToTheEnd(pairs + "ef")},
		{name: "12 bits of literals at the end of the output", ok: true, want: pairs + "bj", w: pairsToTheEnd(pairs + "bj")},
		{name: "pairs in a final block", ok: true, want: pairs + "jab", w: func() *bitWriter {
			w := literals(true, pairs+"jab")
			skewCode.put(w, 256)
			return w
		}()},
		// A pair's second code cut by the end of the input, after one bit of
		// it and after all but one: the bits past the end read as zeros,
		// which must not be decoded into the pair.
		{name: "a pair cut after the first bit of its second code", w: literals(true, pairs+"a").put(1, 1)},
		{name: "a pair cut before the last bit of its second code", w: literals(true, pairs+"a").put(uint64(skewCode.codes['j']), 9)},
		{name: "code lengths by the repeat codes", ok: true, want: "\x00", w: func() *bitWriter {
			// 1, 255 zeros (138 + 117), 1, then the distance code's 1: 258 lengths.
			w := dynamic(257, 1, preLens, 1, 18|127<<5, 18|106<<5, 1, 1)
			return w.put(0, 1).put(1, 1)
		}()},
	}
	for _, c := range cases {
		src := c.w.bytes()
		got, err := checkSame(t, c.name, src)
		if (err == nil) != c.ok || c.ok && string(got) != c.want {
			t.Errorf("%s: %q, %v; want %q, ok %v", c.name, got, err, c.want, c.ok)
		}
		// A distance must not reach into the caller's bytes before len(dst)
		// either, and the zlib framing must pass the verdict on.
		if _, _, err := guarded(t, c.name, src, 300, 600); (err == nil) != c.ok {
			t.Errorf("%s: behind 300 live bytes: %v", c.name, err)
		}
		z := binary.BigEndian.AppendUint32(append([]byte{0x78, 0x9c}, src...), adler32.Checksum([]byte(c.want)))
		if _, err := (Zlib{}).DecompressTo(nil, z); (err == nil) != c.ok {
			t.Errorf("%s: as a zlib stream: %v", c.name, err)
		}
	}
}

// A valid stream — run-coded, dynamic, Huffman-only, stored and fixed blocks,
// one each — cut short at every byte is io.ErrUnexpectedEOF, as it is to the
// standard library; with a wrong checksum it is zlib.ErrChecksum, and with
// anything after the checksum an error too, which compress/zlib does not make
// it: a solver section is length-delimited, so bytes after the stream mean a
// wrong length.
func TestZlibDecompressToTruncatedAndTrailing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := fill(nil, rng, kindIDPlane, 6000)
	if got := runVerdicts(ids); len(got) != 1 || got[0] != zlibRLE {
		t.Fatalf("the ID plane codes as runs %v, want the run class", got)
	}
	var encs [][]byte
	for _, c := range []struct {
		in    []byte
		level int
	}{
		{ids, zlib.DefaultCompression},
		{fill(nil, rng, kindText, 6000), 6},
		{fill(nil, rng, kindSmallAlphabet, 6000), zlib.HuffmanOnly},
		{fill(nil, rng, kindUniform, 3000), zlib.NoCompression},
		{[]byte("abc"), 1},
	} {
		enc := stockCompress(t, c.in, c.level)
		if c.level == zlib.DefaultCompression {
			enc, _ = Zlib{}.CompressTo(nil, c.in)
		}
		checkReadsBack(t, fmt.Sprintf("%d bytes at level %d", len(c.in), c.level), enc, c.in)
		encs = append(encs, enc)
	}
	for i, enc := range encs {
		for cut := 0; cut < len(enc); cut++ {
			if _, err := (Zlib{}).DecompressTo(nil, enc[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("stream %d cut to %d of %d bytes: %v, want io.ErrUnexpectedEOF", i, cut, len(enc), err)
			}
		}
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] ^= 1
		if _, err := (Zlib{}).DecompressTo(nil, bad); !errors.Is(err, zlib.ErrChecksum) {
			t.Fatalf("stream %d with a wrong checksum: %v, want zlib.ErrChecksum", i, err)
		}
		for _, tail := range []string{"\x00", "trailing"} {
			if _, err := (Zlib{}).DecompressTo(nil, append(enc[:len(enc):len(enc)], tail...)); !errors.Is(err, errTrailing) {
				t.Fatalf("stream %d with %d bytes after the checksum: %v", i, len(tail), err)
			}
		}
	}
	for _, hdr := range []struct {
		b    [2]byte
		want error
	}{{[2]byte{0x78, 0x9d}, zlib.ErrHeader}, {[2]byte{0x79, 0x9c}, zlib.ErrHeader}, {[2]byte{0x88, 0x1c}, zlib.ErrHeader}, {[2]byte{0x78, 0xbb}, zlib.ErrDictionary}} {
		if _, err := (Zlib{}).DecompressTo(nil, append(hdr.b[:], encs[0][2:]...)); !errors.Is(err, hdr.want) {
			t.Fatalf("header %x: %v, want %v", hdr.b, err, hdr.want)
		}
	}
}

// adler32sum against hash/adler32 at every length on both sides of its
// eight-byte step and its 5552-byte reduction, and on 1 MiB of 0xff, where
// sums that are reduced too late overflow.
func TestAdler32SumIsHashAdler32(t *testing.T) {
	p := make([]byte, 20000)
	rand.New(rand.NewSource(32)).Read(p)
	step := 1
	if testenv.RaceEnabled {
		step = 7
	}
	for n := 0; n <= len(p); n += step {
		if got, want := adler32sum(p[:n]), adler32.Checksum(p[:n]); got != want {
			t.Fatalf("%d bytes: %#08x, hash/adler32 %#08x", n, got, want)
		}
	}
	ff := bytes.Repeat([]byte{0xff}, 1<<20)
	for _, n := range []int{5551, 5552, 5553, 1<<20 - 1, 1 << 20} {
		if got, want := adler32sum(ff[:n]), adler32.Checksum(ff[:n]); got != want {
			t.Fatalf("%d bytes of 0xff: %#08x, hash/adler32 %#08x", n, got, want)
		}
	}
}

// FuzzInflate: for arbitrary bytes compress/flate's reader and the in-tree
// inflater both fail, or both succeed with equal output from equally many
// source bytes, whatever the destination's shape (checkSame). Framed as a zlib
// stream the same holds of compress/zlib and Zlib.DecompressTo, with the one
// deliberately stricter rejection: bytes after the checksum (errTrailing),
// which compress/zlib leaves unread.
func FuzzInflate(f *testing.F) {
	// Literal pairs of every length up to 20 bits, 11 and 12 among them, from
	// Huffman-only, level-1 and default-level blocks.
	skewed := fill(nil, rand.New(rand.NewSource(41)), kindSkewed, 3000)
	for _, level := range []int{flate.HuffmanOnly, 1} {
		f.Add(deflated(f, skewed, level))
	}
	enc, err := Zlib{}.CompressTo(nil, skewed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 4<<10 { // DEFLATE expands up to 1032:1
			return
		}
		checkSame(t, "raw", src)
		br := bytes.NewReader(src)
		var want []byte
		r, wantErr := zlib.NewReader(br)
		if wantErr == nil {
			want, wantErr = io.ReadAll(r)
		}
		got, err := Zlib{}.DecompressTo(nil, src)
		if wantErr == nil && br.Len() > 0 {
			if !errors.Is(err, errTrailing) {
				t.Fatalf("%d bytes after the checksum: %v", br.Len(), err)
			}
			return
		}
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("zlib: %d bytes, %v; compress/zlib reads %d, %v", len(got), err, len(want), wantErr)
		}
	})
}
