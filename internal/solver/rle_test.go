package solver

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// complete reports whether lens are the lengths of a complete prefix code,
// which is what every inflater accepts, and none is over limit.
func complete(lens []uint8, limit uint8) bool {
	sum := 0
	for _, l := range lens {
		if l > limit {
			return false
		}
		if l > 0 {
			sum += 1 << (15 - l)
		}
	}
	return sum == 1<<15
}

// appendChecked appends r's planned block to enc, having held it to its
// planned size and its three codes to completeness.
func appendChecked(t testing.TB, r *rleCoder, enc []byte, final bool) []byte {
	t.Helper()
	size := r.size
	if !complete(r.lens[:286], 15) || !complete(r.lens[286:], 1) || !complete(r.clLens[:], 7) {
		t.Fatalf("incomplete or overlong code: literal/length %v, distance %v, code length %v", r.lens[:286], r.lens[286:], r.clLens)
	}
	before := 8*len(enc) + int(r.nacc)
	enc = r.appendBlock(enc, final)
	if got := 8*len(enc) + int(r.nacc) - before; got != size && !final || got < size || got > size+7 {
		t.Fatalf("planned %d bits, wrote %d", size, got)
	}
	return enc
}

// rleBlocks codes segs with r, runs as matches, a block each and the last one
// final, and returns the bytes, each block checked by appendChecked.
func rleBlocks(t testing.TB, r *rleCoder, final bool, segs ...[]byte) []byte {
	t.Helper()
	var out []byte
	for i, seg := range segs {
		r.planRuns(seg)
		out = appendChecked(t, r, out, final && i == len(segs)-1)
	}
	return out
}

// inflate is the standard library's reading of a raw DEFLATE stream.
func inflate(t testing.TB, enc []byte) []byte {
	t.Helper()
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatalf("compress/flate: %v after %d bytes", err, len(got))
	}
	return got
}

// repeats' word arithmetic against the loop it stands for, at lengths on both
// sides of its eight-byte step and on content with and without runs.
func TestRepeatsCountsEqualNeighbours(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 2000; round++ {
		seg := fill(nil, rng, round%numKinds, rng.Intn(100))
		want := 0
		for i := 1; i < len(seg); i++ {
			if seg[i] == seg[i-1] {
				want++
			}
		}
		if got := repeats(seg); got != want {
			t.Fatalf("%d bytes of kind %d: %d, want %d", len(seg), round%numKinds, got, want)
		}
	}
}

// One value, at every length where the tokens change shape: up to three bytes
// are literals, a fourth makes a match, a match is at most 258 bytes and the
// last one never shorter than 3.
func TestRLECoderRunLengths(t *testing.T) {
	const v = 7
	match := func(n int) uint16 { return uint16(256 + n - 3) }
	for _, tc := range []struct {
		n    int
		want []uint16 // nil: only the invariants
	}{
		{1, []uint16{v}}, {2, []uint16{v, v}}, {3, []uint16{v, v, v}}, {4, []uint16{v, match(3)}}, {5, []uint16{v, match(4)}},
		{258, []uint16{v, match(257)}}, {259, []uint16{v, match(258)}}, {260, []uint16{v, match(256), match(3)}},
		{261, []uint16{v, match(257), match(3)}}, {262, []uint16{v, match(258), match(3)}}, {516, []uint16{v, match(258), match(257)}},
		{517, []uint16{v, match(258), match(258)}}, {518, []uint16{v, match(258), match(256), match(3)}},
		{65536, nil}, {65537, nil}, {zlibSegment + zlibSample - 1, nil},
	} {
		in := bytes.Repeat([]byte{v}, tc.n)
		var r rleCoder
		enc := rleBlocks(t, &r, true, in)
		if tc.want != nil && !slices.Equal(r.tokens, tc.want) {
			t.Errorf("%d bytes: tokens %v, want %v", tc.n, r.tokens, tc.want)
		}
		covered := 0
		for _, tok := range r.tokens {
			covered++
			if tok >= 256 {
				covered += int(tok) - 256 + 3 - 1
			}
		}
		if covered != tc.n {
			t.Errorf("%d bytes: tokens cover %d", tc.n, covered)
		}
		if got := inflate(t, enc); !bytes.Equal(got, in) {
			t.Errorf("%d bytes: compress/flate reads %d back", tc.n, len(got))
		}
		if again := rleBlocks(t, new(rleCoder), true, in); !bytes.Equal(again, enc) {
			t.Errorf("%d bytes: a second coder writes other bytes", tc.n)
		}
	}
}

// All 256 literals with Fibonacci-like counts: 245 ones, which make a subtree
// eight levels deep, and eleven that each just outweigh the subtree of all
// before the last, so that every one of them adds a level. An unlimited
// Huffman code needs 19 bits for the rarest byte, DEFLATE allows 15. The bytes
// are dealt most frequent first onto the even and then the odd places, so no
// two equal ones meet and the literal counts are the byte counts.
func TestRLECoderLengthLimit(t *testing.T) {
	var sorted []byte
	for v, n, below := 0, 245, 245; v < 256; v++ {
		if v < 245 {
			sorted = append(sorted, byte(v))
			continue
		}
		sorted = append(bytes.Repeat([]byte{byte(v)}, n), sorted...)
		n, below = below+2, below+n
	}
	in := make([]byte, len(sorted))
	for i, v := range sorted {
		if i = 2 * i; i >= len(in) {
			i -= len(in) - 1 + len(in)%2
		}
		in[i] = v
	}
	if len(in) > zlibSegment {
		t.Fatalf("input is %d bytes, over a segment", len(in))
	}
	var r rleCoder
	r.tokenise(in)
	if len(r.tokens) != len(in) {
		t.Fatalf("%d tokens for %d bytes without runs", len(r.tokens), len(in))
	}
	var unlimited [286]uint8
	r.codeLengths(unlimited[:], r.freq[:], 64)
	if longest := slices.Max(unlimited[:]); longest <= 15 {
		t.Fatalf("the unlimited code is %d bits deep: the input does not force the limit", longest)
	}
	enc := rleBlocks(t, &r, true, in) // which holds the code to 15 bits
	if got := inflate(t, enc); !bytes.Equal(got, in) {
		t.Errorf("compress/flate reads %d bytes back, want %d", len(got), len(in))
	}
}

// Blocks follow each other on any bit, and sync byte-aligns the stream from
// wherever a block left it so that another encoder can go on — here the
// standard library's level 6, then the run coder again: one stream to the inflater,
// runs crossing every seam included. All eight bit positions must come up.
func TestRLECoderBlocksAndSync(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var seen [8]bool
	for round := 0; round < 200 && slices.Contains(seen[:], false); round++ {
		var r rleCoder
		a := fill(nil, rng, kindIDPlane, 1+rng.Intn(3000))
		b := fill(bytes.Repeat(a[len(a)-1:], 300), rng, kindIDPlane, 1+rng.Intn(3000))
		c := bytes.Repeat(b[len(b)-1:], 1+rng.Intn(600))
		enc := rleBlocks(t, &r, false, a, b)
		seen[r.nacc] = true
		if enc = r.sync(enc); r.nacc != 0 || r.acc != 0 {
			t.Fatalf("sync left %d bits", r.nacc)
		}
		sink := appendWriter{enc}
		fw, _ := flate.NewWriter(&sink, zlibLevel)
		_, _ = fw.Write(c)
		_ = fw.Flush()
		enc = append(sink.b, rleBlocks(t, &r, true, c, a)...)
		want := slices.Concat(a, b, c, c, a)
		if got := inflate(t, enc); !bytes.Equal(got, want) {
			t.Fatalf("round %d: compress/flate reads %d bytes back, want %d", round, len(got), len(want))
		}
	}
	if slices.Contains(seen[:], false) {
		t.Errorf("bit positions a block ended on: %v, want all eight", seen)
	}
}

// The run class through the front door, at the sizes and seams of the table
// above: a leading run long enough for a verdict, then one value for n bytes,
// so the tail rule meets the end of a segment, the end of the input and a
// segment's edge; both readers and a second call agree.
func TestZlibRunClassStreams(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 258, 259, 260, 261, 516, zlibSegment - zlibSample, zlibSegment, zlibSegment + 1} {
		for _, lead := range []int{0, zlibSample, zlibSegment - 2, zlibSegment} {
			in := append(bytes.Repeat([]byte{1}, lead), bytes.Repeat([]byte{2}, n)...)
			enc, err := Zlib{}.CompressTo(nil, in)
			if err != nil {
				t.Fatal(err)
			}
			checkReadsBack(t, "run stream", enc, in)
			if again, _ := (Zlib{}).CompressTo(nil, in); !bytes.Equal(again, enc) {
				t.Errorf("%d + %d bytes: second call gives different bytes", lead, n)
			}
			if got := runVerdicts(in); len(in) >= zlibSample && !slices.Equal(got, []zlibVerdict{zlibRLE}) {
				t.Errorf("%d + %d bytes: runs %v, want the run class alone", lead, n, got)
			}
		}
	}
}

// The hand-overs between the classes, each with a run of one value crossing
// the seam: run to level 6 and back, run to order-0 and back.
func TestZlibRunClassHandOvers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	text := fill(nil, rng, kindText, zlibSegment)
	noise := fill(nil, rng, kindSmallAlphabet, zlibSegment)
	runs := fill(nil, rng, kindIDPlane, zlibSegment)
	checkPlanAndStream(t, "run, level 6, run", slices.Concat(runs, text, runs), []zlibVerdict{zlibRLE, zlibLZ, zlibRLE})
	checkPlanAndStream(t, "run, order-0", slices.Concat(runs, noise), []zlibVerdict{zlibRLE, zlibOrder0})
	checkPlanAndStream(t, "order-0, run, run", slices.Concat(noise, runs, runs[:zlibSample]), []zlibVerdict{zlibOrder0, zlibRLE})
}

// The order-0 block: planned to the bit and written at exactly that size, for
// alphabets of 1, 2, 16 and 256 symbols at every length a segment can have,
// from every bit a run-coded block leaves the stream on, and as the final
// block or followed by one; both readers decode the stream.
func TestRLECoderLiteralBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, symbols := range []int{1, 2, 16, 256} {
		for _, n := range []int{zlibSample, zlibSegment - 1, zlibSegment, zlibSegment + zlibSample - 1} {
			seg := make([]byte, n)
			for i := range seg {
				seg[i] = byte(200 + rng.Intn(symbols))
			}
			var seen [8]bool
			for round := 0; round < 400 && slices.Contains(seen[:], false); round++ {
				var r rleCoder
				lead := fill(nil, rng, kindIDPlane, 1+rng.Intn(3000))
				enc := rleBlocks(t, &r, false, lead)
				bit := r.nacc
				if seen[bit] {
					continue
				}
				seen[bit] = true
				for _, final := range []bool{true, false} {
					r := r
					r.planLiterals(seg)
					in := slices.Concat(lead, seg)
					stream := appendChecked(t, &r, append([]byte{0x78, 0x9c}, enc...), final)
					if !final {
						stream = appendChecked(t, &r, stream, true)
						in = append(in, seg...)
					}
					stream = binary.BigEndian.AppendUint32(stream, adler32sum(in))
					checkReadsBack(t, fmt.Sprintf("%d bytes of %d symbols from bit %d, final %v", n, symbols, bit, final), stream, in)
				}
			}
			if slices.Contains(seen[:], false) {
				t.Errorf("bit positions a block ended on: %v, want all eight", seen)
			}
		}
	}
}
