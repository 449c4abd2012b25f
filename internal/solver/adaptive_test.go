package solver

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// stockCompress is compress/zlib's own stream for src at level.
func stockCompress(t testing.TB, src []byte, level int) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := zlib.NewWriterLevel(&b, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkReadsBack fails unless enc decodes to want with both the standard
// library's zlib reader and the pooled DecompressTo.
func checkReadsBack(t testing.TB, what string, enc, want []byte) {
	t.Helper()
	r, err := zlib.NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("%s: compress/zlib rejects the header: %v", what, err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: compress/zlib reads %d bytes back, want %d: %v", what, len(got), len(want), err)
	}
	got, err = Zlib{}.DecompressTo(nil, enc)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: DecompressTo reads %d bytes back, want %d: %v", what, len(got), len(want), err)
	}
}

// The kinds of content a segment is filled with in these tests, one or two
// for each verdict of the default level.
const (
	kindRun           = iota // run: the all-zero high ID plane
	kindUniform              // level 6: nothing for Huffman coding to gain
	kindSmallAlphabet        // entropy-only: skewed bytes without matches
	kindText                 // level 6: the short matches of a 256-word vocabulary
	kindNearRepeats          // fast: long near repeats over a small alphabet, no runs
	kindIDPlane              // run: the low ID plane, short runs over a small alphabet
	numKinds
)

// vocabulary is kindText's: 256 words of two to eight letters.
var vocabulary = func() [][]byte {
	rng := rand.New(rand.NewSource(1))
	words := make([][]byte, 256)
	for i := range words {
		words[i] = make([]byte, 2+rng.Intn(7))
		for j := range words[i] {
			words[i][j] = "etaoinshrdlucmfw"[rng.Intn(16)]
		}
	}
	return words
}()

// fill appends n bytes of the given kind to dst.
func fill(dst []byte, rng *rand.Rand, kind, n int) []byte {
	end := len(dst) + n
	switch kind {
	case kindRun:
		dst = append(dst, make([]byte, n)...)
	case kindUniform, kindSmallAlphabet:
		span := 256
		if kind == kindSmallAlphabet {
			span = 16
		}
		for len(dst) < end {
			dst = append(dst, byte(rng.Intn(span)))
		}
	case kindText:
		for len(dst) < end {
			dst = append(append(dst, vocabulary[rng.Intn(len(vocabulary))]...), ' ')
		}
	case kindIDPlane:
		// What frequency ranking and column linearization make of the low ID
		// plane: runs of 1 to 16 equal bytes over 16 symbols, one in 64 of them
		// around DEFLATE's longest match instead, 256 to 263 bytes.
		for len(dst) < end {
			n := 1 + rng.Intn(16)
			if rng.Intn(64) == 0 {
				n = 256 + rng.Intn(8)
			}
			dst = append(dst, bytes.Repeat([]byte{byte(rng.Intn(16))}, n)...)
		}
	default:
		// A 500-byte row over 16 symbols, repeated with 20 of its bytes redrawn
		// each time.
		row := make([]byte, 500)
		for i := range row {
			row[i] = byte(rng.Intn(16))
		}
		for len(dst) < end {
			for i := 0; i < 20; i++ {
				row[rng.Intn(len(row))] = byte(rng.Intn(16))
			}
			dst = append(dst, row...)
		}
	}
	return dst[:end]
}

// An explicit level is that compress/flate level and nothing else: the
// stream is the one compress/zlib writes at it, byte for byte, whatever the
// content. So is the default level's wherever it keeps match search on.
func TestZlibExplicitLevelIsStock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var in []byte
	for kind := 0; kind < numKinds; kind++ {
		in = fill(in, rng, kind, zlibSegment+777)
	}
	for _, level := range []int{-2, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		got, err := Zlib{Level: level}.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stockCompress(t, in, level)) {
			t.Errorf("level %d: stream differs from compress/zlib's", level)
		}
	}
	for _, level := range []int{-3, 10} {
		if _, err := (Zlib{Level: level}).Compress(in); err == nil {
			t.Errorf("level %d accepted", level)
		}
	}
	text := fill(nil, rng, kindText, 3*zlibSegment)
	for _, level := range []int{0, zlib.DefaultCompression} {
		got, err := Zlib{Level: level}.Compress(text)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stockCompress(t, text, zlib.DefaultCompression)) {
			t.Errorf("level %d on text: stream differs from compress/zlib's default", level)
		}
	}
}

// checkPlanAndStream holds the default level to its plan for in and its
// stream to the contract: one RFC 1950 stream to both readers; one run by a
// stdlib encoder is that level's stock stream under the default level's
// header; and no larger than stock level 6's where no segment is run-coded or
// fast — with hand-overs the noise runs are where Huffman coding beats level
// 6, by far more than the sync markers cost — or, where one is, than stock
// level 1's and 64 bytes for each hand-over's marker, block header and cold
// window, level 1 being as good as the Huffman-only encoder on noise; a tail
// under the sample that joins a run-coded segment is searched by nobody and
// may cost a quarter of the sample more.
func checkPlanAndStream(t *testing.T, name string, in []byte, want []int) {
	t.Helper()
	got := runLevels(in)
	if !slices.Equal(got, want) {
		t.Errorf("%s: runs %v, want %v", name, got, want)
	}
	enc, err := Zlib{}.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	checkReadsBack(t, name, enc, in)
	if len(got) == 1 && got[0] != zlibRLE && !bytes.Equal(enc[2:], stockCompress(t, in, got[0])[2:]) {
		t.Errorf("%s: one run at level %d differs from compress/zlib's stream at it", name, got[0])
	}
	bound, slack := zlibLZ, 0
	if slices.Contains(got, zlibFast) || slices.Contains(got, zlibRLE) {
		bound, slack = zlibFast, 64*(len(got)-1)
		if got[len(got)-1] == zlibRLE {
			slack += zlibSample / 4
		}
	}
	if stock := len(stockCompress(t, in, bound)); len(enc) > stock+slack {
		t.Errorf("%s: %d bytes, stock level %d makes %d", name, len(enc), bound, stock)
	}
}

// The default level's plan and stream at the sizes where the rules change
// (nothing, one byte, around the sample, around the segment), with every
// class of content alone and with the hand-over between the two older
// verdicts in every position, the last segment included.
func TestZlibDefaultLevelPlansAndInterop(t *testing.T) {
	const lz, huff, fast, rle = zlibLZ, flate.HuffmanOnly, zlibFast, zlibRLE
	type part struct{ kind, n int }
	for _, tc := range []struct {
		name  string
		parts []part
		want  []int // level per run
	}{
		{"empty", nil, nil},
		{"one byte", []part{{kindSmallAlphabet, 1}}, []int{lz}},
		{"sample-1 of noise", []part{{kindSmallAlphabet, zlibSample - 1}}, []int{lz}},
		{"sample-1 of zeros", []part{{kindRun, zlibSample - 1}}, []int{lz}},
		{"sample of noise", []part{{kindSmallAlphabet, zlibSample}}, []int{huff}},
		{"sample of zeros", []part{{kindRun, zlibSample}}, []int{rle}},
		{"segment-1 of noise", []part{{kindSmallAlphabet, zlibSegment - 1}}, []int{huff}},
		{"segment of noise", []part{{kindSmallAlphabet, zlibSegment}}, []int{huff}},
		{"segment+1 of noise", []part{{kindSmallAlphabet, zlibSegment + 1}}, []int{huff}},
		{"segment+1 of text", []part{{kindText, zlibSegment + 1}}, []int{lz}},
		{"segment+1 of near repeats", []part{{kindNearRepeats, zlibSegment + 1}}, []int{fast}},
		{"segment+1 of short runs", []part{{kindIDPlane, zlibSegment + 1}}, []int{rle}},
		{"uniform noise gains nothing from Huffman", []part{{kindUniform, 2 * zlibSegment}}, []int{lz}},
		{"a run across a segment's edge", []part{{kindRun, 2 * zlibSegment}}, []int{rle}},
		{"text then noise", []part{{kindText, 2 * zlibSegment}, {kindSmallAlphabet, 2 * zlibSegment}}, []int{lz, huff}},
		{"noise then text", []part{{kindSmallAlphabet, 2 * zlibSegment}, {kindText, 2 * zlibSegment}}, []int{huff, lz}},
		{"hand-over into a full last segment", []part{{kindText, 3 * zlibSegment}, {kindSmallAlphabet, zlibSegment}}, []int{lz, huff}},
		{"hand-over into a short last segment", []part{{kindSmallAlphabet, 3 * zlibSegment}, {kindText, zlibSample}}, []int{huff, lz}},
		{"a tail under the sample joins the run before it", []part{{kindSmallAlphabet, 3 * zlibSegment}, {kindText, zlibSample - 1}}, []int{huff}},
		{"alternating", []part{{kindSmallAlphabet, zlibSegment}, {kindText, zlibSegment}, {kindSmallAlphabet, zlibSegment}, {kindRun, zlibSegment}, {kindNearRepeats, zlibSegment}, {kindText, zlibSegment}}, []int{huff, lz, huff, rle, fast, lz}},
		{"an ID stream and two mantissa planes", []part{{kindRun, 6 * zlibSegment}, {kindIDPlane, 6 * zlibSegment}, {kindSmallAlphabet, 6 * zlibSegment}, {kindUniform, 6 * zlibSegment}}, []int{rle, huff, lz}},
	} {
		rng := rand.New(rand.NewSource(9))
		var in []byte
		for _, p := range tc.parts {
			in = fill(in, rng, p.kind, p.n)
		}
		checkPlanAndStream(t, tc.name, in, tc.want)
	}
}

// Every hand-over the fast and the run verdict add — to level 6 and back, to
// each other and back, to entropy-only and back — into a last segment that is
// full, short, and too short for a verdict of its own. The run coder leaves
// the stream on any bit; the stdlib encoders start and end on a byte.
func TestZlibFastVerdictHandOvers(t *testing.T) {
	level := map[int]int{kindRun: zlibRLE, kindIDPlane: zlibRLE, kindNearRepeats: zlibFast, kindText: zlibLZ, kindSmallAlphabet: flate.HuffmanOnly}
	for _, pair := range [][2]int{
		{kindNearRepeats, kindText}, {kindText, kindNearRepeats}, {kindIDPlane, kindText}, {kindText, kindIDPlane}, {kindRun, kindText}, {kindText, kindRun},
		{kindIDPlane, kindNearRepeats}, {kindNearRepeats, kindIDPlane},
		{kindNearRepeats, kindSmallAlphabet}, {kindSmallAlphabet, kindNearRepeats}, {kindIDPlane, kindSmallAlphabet}, {kindSmallAlphabet, kindIDPlane},
	} {
		for _, last := range []int{zlibSegment, zlibSample, zlibSample - 1} {
			rng := rand.New(rand.NewSource(11))
			in := fill(fill(nil, rng, pair[0], 2*zlibSegment), rng, pair[1], last)
			want := []int{level[pair[0]], level[pair[1]]}
			if last < zlibSample {
				want = want[:1]
			}
			checkPlanAndStream(t, fmt.Sprintf("kind %d then %d bytes of kind %d", pair[0], last, pair[1]), in, want)
		}
	}
}

// nextRun takes the verdict that ends a run once and leaves it in the encoder
// for the call that starts the next run there. What is carried must be what a
// fresh look at that segment says, wherever the hand-over falls, and an
// encoder that last planned another input must not bring a verdict along.
func TestZlibCarriedVerdictIsTheSegments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var in []byte
	for _, kind := range []int{kindRun, kindNearRepeats, kindIDPlane, kindSmallAlphabet, kindText, kindRun} {
		in = fill(in, rng, kind, 2*zlibSegment)
	}
	var e zlibEncoder
	for _, src := range [][]byte{in, in[zlibSegment:], in[:len(in)-zlibSegment+zlibSample-1]} {
		for start := 0; start < len(src); {
			level, end := e.nextRun(src, start)
			for s := start; s < end && len(src)-s >= zlibSample; s += zlibSegment {
				if want := new(zlibEncoder).segmentLevel(src, s); level != want {
					t.Fatalf("segment at %d of %d is in a level %d run, its own verdict is %d", s, len(src), level, want)
				}
			}
			// A run-coded segment is a run of its own and carries nothing on.
			if end < len(src) && level != zlibRLE && (e.aheadAt != end || e.ahead == level) {
				t.Fatalf("run ending at %d of %d left verdict %d at %d behind", end, len(src), e.ahead, e.aheadAt)
			}
			start = end
		}
	}
}

// The stream is a function of the input: the same bytes come out of repeated
// calls, of an encoder that has never been used and of pooled ones that have
// just coded something else at every level the default uses.
func TestZlibDefaultLevelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var in []byte
	for _, kind := range []int{kindText, kindSmallAlphabet, kindRun, kindIDPlane, kindNearRepeats, kindUniform, kindSmallAlphabet} {
		in = fill(in, rng, kind, zlibSegment)
	}
	var fresh zlibEncoder
	if err := fresh.encode(&fresh.sink, in, 0); err != nil {
		t.Fatal(err)
	}
	want := fresh.sink.b
	levels := runLevels(in)
	for _, class := range []int{flate.HuffmanOnly, zlibRLE, zlibFast, zlibLZ} {
		if !slices.Contains(levels, class) {
			t.Fatalf("input codes as runs %v, want all four classes", levels)
		}
	}
	other := fill(fill(fill(fill(nil, rng, kindSmallAlphabet, 3*zlibSegment+5), rng, kindText, zlibSegment), rng, kindNearRepeats, zlibSegment), rng, kindIDPlane, zlibSegment+300)
	for i := 0; i < 4; i++ {
		got, err := Zlib{}.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d: pooled encoder's stream differs from a fresh encoder's", i)
		}
		if _, err := (Zlib{}).Compress(other); err != nil {
			t.Fatal(err)
		}
	}
}

// The allocation guard of the default level where it does everything it can
// do: trials at all three levels, all three stdlib encoders, the run coder
// with its token and block scratch, hand-overs.
func TestZlibDefaultLevelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	rng := rand.New(rand.NewSource(23))
	var in []byte
	for _, kind := range []int{kindText, kindSmallAlphabet, kindRun, kindIDPlane, kindNearRepeats, kindSmallAlphabet} {
		in = fill(in, rng, kind, zlibSegment)
	}
	dst, err := Zlib{}.CompressTo(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if dst, err = (Zlib{}).CompressTo(dst[:0], in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressTo allocates %.0f times per op, want 0", allocs)
	}
}

// piece is the recipe byte of FuzzZlibDefaultLevel for k samples of a kind.
func piece(kind, k int) byte { return byte(kind | k<<3) }

// FuzzZlibDefaultLevel builds an input piece by piece from the fuzzer's
// recipe — each recipe byte picks a content kind, among them the two an ID
// stream is made of, and a length — and holds the default level to its
// contract: one stream both readers decode, the same bytes on a second call.
func FuzzZlibDefaultLevel(f *testing.F) {
	const seg = zlibSegment / zlibSample
	f.Add([]byte{piece(kindText, seg), piece(kindSmallAlphabet, seg), piece(kindRun, seg), piece(kindIDPlane, seg), piece(kindUniform, seg)}, int64(1))
	f.Add([]byte{piece(kindRun, 2*seg-1), piece(kindIDPlane, 2*seg-1), piece(kindSmallAlphabet, seg), piece(kindText, 1)}, int64(2))
	f.Add([]byte{piece(kindIDPlane, seg), piece(kindRun, seg), piece(kindText, seg+1), piece(kindIDPlane, seg-1), piece(kindSmallAlphabet, 1), piece(kindRun, 1)}, int64(3))
	f.Add([]byte{piece(kindRun, 31)}, int64(4))
	f.Add([]byte{}, int64(5))
	f.Add([]byte{piece(kindSmallAlphabet, seg), piece(kindNearRepeats, seg+2), piece(kindUniform, 3), piece(kindRun, 0)}, int64(6))
	// Runs of a segment's length, one byte under and over it, and the low ID
	// plane's runs around 258 bytes, on and off the segments' edges.
	f.Add([]byte{piece(kindRun, seg), piece(kindIDPlane, seg), piece(kindRun, seg-1), piece(kindIDPlane, 1), piece(kindRun, seg+1)}, int64(7))
	f.Add([]byte{piece(kindIDPlane, 31), piece(kindNearRepeats, seg), piece(kindIDPlane, seg+1), piece(kindRun, seg+1), piece(kindText, 2)}, int64(8))
	f.Fuzz(func(t *testing.T, recipe []byte, seed int64) {
		if len(recipe) > 6 {
			recipe = recipe[:6]
		}
		rng := rand.New(rand.NewSource(seed))
		var in []byte
		for _, b := range recipe {
			// The kind in the low three bits; the rest is the length in
			// samples, 0 … 31 (just under two segments), one byte under, on or
			// over the multiple, so pieces end on, short of and past the
			// sample's and the segment's edges.
			k := int(b >> 3)
			in = fill(in, rng, int(b&7)%numKinds, max(0, k*zlibSample+k%3-1))
		}
		enc, err := Zlib{}.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		checkReadsBack(t, "fuzz input", enc, in)
		again, err := Zlib{}.Compress(in)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("second call gives different bytes: %v", err)
		}
	})
}
