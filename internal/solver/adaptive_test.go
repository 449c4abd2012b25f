package solver

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"primacy/internal/testenv"
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

// The kinds of content a segment is filled with in these tests, at least one
// for each verdict.
const (
	kindRun           = iota // run: the all-zero high ID plane
	kindUniform              // level 6: nothing for Huffman coding to gain
	kindSmallAlphabet        // order-0: a 16-symbol alphabet without matches
	kindText                 // level 6: the short matches of a 256-word vocabulary
	kindNearRepeats          // level 6: long near repeats over a small alphabet, no runs
	kindIDPlane              // run: the low ID plane, short runs over a small alphabet
	kindSkewed               // byte k at frequency 2^-(k+1): literal codes of 1 to 10 bits
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
	case kindSkewed:
		// What a well-predicted residual plane looks like to the solver:
		// eleven symbols, each but the last half as frequent as the one
		// before, so that Huffman codes give them 1, 2, … 10 and 10 bits, and
		// two literals take from 2 to 20 bits: 11, the most a pair may take,
		// and 12, the least it may not, among them.
		for len(dst) < end {
			dst = append(dst, "\x00\x01\x80\x7f\x02\xfe\x40\x03\xc0\x10\xff"[min(bits.TrailingZeros32(rng.Uint32()), 10)])
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

// Where every segment's verdict is level 6 the stream is compress/zlib's at
// its default level, byte for byte: text, whose matches are everywhere.
func TestZlibDefaultLevelOnTextIsStock(t *testing.T) {
	text := fill(nil, rand.New(rand.NewSource(5)), kindText, 3*zlibSegment)
	got, err := Zlib{}.CompressTo(nil, text)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stockCompress(t, text, zlib.DefaultCompression)) {
		t.Errorf("text: stream differs from compress/zlib's default")
	}
}

// checkPlanAndStream holds the encoder to its plan for in and its stream to
// the contract: one RFC 1950 stream to both readers; one level-6 run is
// compress/zlib's level-6 stream; and no larger than that stream — with
// hand-overs the order-0 runs are where a Huffman code of the bytes beats
// level 6, by far more than the sync markers cost — or, where a segment is
// run-coded, than that stream and 64 bytes for each hand-over's marker, block
// header and cold window, and a quarter of the sample more where a tail under
// the sample joins a run-coded segment, which nobody searches.
func checkPlanAndStream(t *testing.T, name string, in []byte, want []zlibVerdict) {
	t.Helper()
	got := runVerdicts(in)
	if !slices.Equal(got, want) {
		t.Errorf("%s: runs %v, want %v", name, got, want)
	}
	enc, err := Zlib{}.CompressTo(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	checkReadsBack(t, name, enc, in)
	stock := stockCompress(t, in, zlibLevel)
	if len(got) == 1 && got[0] == zlibLZ && !bytes.Equal(enc, stock) {
		t.Errorf("%s: one level-6 run differs from compress/zlib's stream", name)
	}
	slack := 0
	if slices.Contains(got, zlibRLE) {
		slack = 64 * (len(got) - 1)
		if got[len(got)-1] == zlibRLE {
			slack += zlibSample / 4
		}
	}
	if len(enc) > len(stock)+slack {
		t.Errorf("%s: %d bytes, stock level 6 makes %d", name, len(enc), len(stock))
	}
}

// The encoder's plan and stream at the sizes where the rules change (nothing,
// one byte, around the sample, around the segment), with every class of
// content alone and with hand-overs in every position, the last segment
// included.
func TestZlibDefaultLevelPlansAndInterop(t *testing.T) {
	const lz, o0, rle = zlibLZ, zlibOrder0, zlibRLE
	type part struct{ kind, n int }
	for _, tc := range []struct {
		name  string
		parts []part
		want  []zlibVerdict // per run
	}{
		{"empty", nil, nil},
		{"one byte", []part{{kindSmallAlphabet, 1}}, []zlibVerdict{lz}},
		{"sample-1 of noise", []part{{kindSmallAlphabet, zlibSample - 1}}, []zlibVerdict{lz}},
		{"sample-1 of zeros", []part{{kindRun, zlibSample - 1}}, []zlibVerdict{lz}},
		{"sample of noise", []part{{kindSmallAlphabet, zlibSample}}, []zlibVerdict{o0}},
		{"sample of zeros", []part{{kindRun, zlibSample}}, []zlibVerdict{rle}},
		{"segment-1 of noise", []part{{kindSmallAlphabet, zlibSegment - 1}}, []zlibVerdict{o0}},
		{"segment of noise", []part{{kindSmallAlphabet, zlibSegment}}, []zlibVerdict{o0}},
		{"segment+1 of noise", []part{{kindSmallAlphabet, zlibSegment + 1}}, []zlibVerdict{o0, lz}},
		{"segment+1 of text", []part{{kindText, zlibSegment + 1}}, []zlibVerdict{lz}},
		{"segment+1 of near repeats", []part{{kindNearRepeats, zlibSegment + 1}}, []zlibVerdict{lz}},
		{"segment+1 of short runs", []part{{kindIDPlane, zlibSegment + 1}}, []zlibVerdict{rle}},
		{"uniform noise gains nothing from Huffman", []part{{kindUniform, 2 * zlibSegment}}, []zlibVerdict{lz}},
		{"an order-0 sample in front of a segment that is not", []part{{kindSmallAlphabet, zlibSample}, {kindUniform, zlibSegment - zlibSample}}, []zlibVerdict{lz}},
		{"a run across a segment's edge", []part{{kindRun, 2 * zlibSegment}}, []zlibVerdict{rle}},
		{"text then noise", []part{{kindText, 2 * zlibSegment}, {kindSmallAlphabet, 2 * zlibSegment}}, []zlibVerdict{lz, o0}},
		{"noise then text", []part{{kindSmallAlphabet, 2 * zlibSegment}, {kindText, 2 * zlibSegment}}, []zlibVerdict{o0, lz}},
		{"hand-over into a full last segment", []part{{kindText, 3 * zlibSegment}, {kindSmallAlphabet, zlibSegment}}, []zlibVerdict{lz, o0}},
		{"hand-over into a short last segment", []part{{kindSmallAlphabet, 3 * zlibSegment}, {kindText, zlibSample}}, []zlibVerdict{o0, lz}},
		{"a tail under the sample joins the run before it", []part{{kindText, 3 * zlibSegment}, {kindSmallAlphabet, zlibSample - 1}}, []zlibVerdict{lz}},
		{"but not an order-0 segment", []part{{kindSmallAlphabet, 3 * zlibSegment}, {kindText, zlibSample - 1}}, []zlibVerdict{o0, lz}},
		{"alternating", []part{{kindSmallAlphabet, zlibSegment}, {kindText, zlibSegment}, {kindSmallAlphabet, zlibSegment}, {kindRun, zlibSegment}, {kindNearRepeats, zlibSegment}, {kindText, zlibSegment}}, []zlibVerdict{o0, lz, o0, rle, lz}},
		{"an ID stream and two mantissa planes", []part{{kindRun, 6 * zlibSegment}, {kindIDPlane, 6 * zlibSegment}, {kindSmallAlphabet, 6 * zlibSegment}, {kindUniform, 6 * zlibSegment}}, []zlibVerdict{rle, o0, lz}},
	} {
		rng := rand.New(rand.NewSource(9))
		var in []byte
		for _, p := range tc.parts {
			in = fill(in, rng, p.kind, p.n)
		}
		checkPlanAndStream(t, tc.name, in, tc.want)
	}
}

// Every hand-over among the three verdicts — run, order-0 and level 6, each to
// each and back — into a last segment that is full, short, and too short for a
// verdict of its own. The run coder leaves the stream on any bit; the level-6
// encoder starts and ends on a byte.
func TestZlibVerdictHandOvers(t *testing.T) {
	verdict := map[int]zlibVerdict{kindRun: zlibRLE, kindIDPlane: zlibRLE, kindSmallAlphabet: zlibOrder0, kindNearRepeats: zlibLZ, kindText: zlibLZ}
	for _, pair := range [][2]int{
		{kindIDPlane, kindText}, {kindText, kindIDPlane}, {kindRun, kindText}, {kindText, kindRun},
		{kindSmallAlphabet, kindText}, {kindText, kindSmallAlphabet}, {kindSmallAlphabet, kindNearRepeats}, {kindNearRepeats, kindSmallAlphabet},
		{kindIDPlane, kindSmallAlphabet}, {kindSmallAlphabet, kindIDPlane}, {kindRun, kindSmallAlphabet}, {kindSmallAlphabet, kindRun},
	} {
		for _, last := range []int{zlibSegment, zlibSample, zlibSample - 1} {
			rng := rand.New(rand.NewSource(11))
			in := fill(fill(nil, rng, pair[0], 2*zlibSegment), rng, pair[1], last)
			want := []zlibVerdict{verdict[pair[0]], verdict[pair[1]]}
			if last < zlibSample { // the tail joins the segment before it, or is level 6 behind order-0
				want[1] = zlibLZ
				if want[0] != zlibOrder0 {
					want = want[:1]
				}
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
	for _, kind := range []int{kindRun, kindNearRepeats, kindIDPlane, kindSmallAlphabet, kindText, kindSmallAlphabet, kindRun} {
		in = fill(in, rng, kind, 2*zlibSegment)
	}
	var e zlibEncoder
	for _, src := range [][]byte{in, in[zlibSegment:], in[:len(in)-zlibSegment+zlibSample-1]} {
		for start := 0; start < len(src); {
			v, end := e.nextRun(src, start)
			for s := start; s < end && len(src)-s >= zlibSample; s += zlibSegment {
				if want := new(zlibEncoder).segmentVerdict(src, s); v != want {
					t.Fatalf("segment at %d of %d is in a run of verdict %d, its own is %d", s, len(src), v, want)
				}
			}
			// A segment the run coder codes is a run of its own and carries
			// nothing on.
			if end < len(src) && v == zlibLZ && (e.aheadAt != end || e.ahead == v) {
				t.Fatalf("run ending at %d of %d left verdict %d at %d behind", end, len(src), e.ahead, e.aheadAt)
			}
			start = end
		}
	}
}

// allClasses is input whose plan has every verdict, with hand-overs among
// them.
func allClasses(rng *rand.Rand) []byte {
	var in []byte
	for _, kind := range []int{kindText, kindSmallAlphabet, kindRun, kindIDPlane, kindNearRepeats, kindUniform, kindSmallAlphabet} {
		in = fill(in, rng, kind, zlibSegment)
	}
	return in
}

// The stream is a function of the input: the same bytes come out of repeated
// calls, of an encoder that has never been used and of pooled ones that have
// just coded something else in every class.
func TestZlibDefaultLevelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := allClasses(rng)
	want := new(zlibEncoder).encode(nil, in)
	verdicts := runVerdicts(in)
	for _, v := range []zlibVerdict{zlibLZ, zlibRLE, zlibOrder0} {
		if !slices.Contains(verdicts, v) {
			t.Fatalf("input codes as runs %v, want all three classes", verdicts)
		}
	}
	other := fill(fill(fill(fill(nil, rng, kindSmallAlphabet, 3*zlibSegment+5), rng, kindText, zlibSegment), rng, kindNearRepeats, zlibSegment), rng, kindIDPlane, zlibSegment+300)
	for i := 0; i < 4; i++ {
		got, err := Zlib{}.CompressTo(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d: pooled encoder's stream differs from a fresh encoder's", i)
		}
		if _, err := (Zlib{}).CompressTo(nil, other); err != nil {
			t.Fatal(err)
		}
	}
}

// The allocation guard of the encoder where it does everything it can do:
// level-6 trials and runs, the run coder in both classes with its token
// scratch, hand-overs.
func TestZlibDefaultLevelZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	in := allClasses(rand.New(rand.NewSource(23)))
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

// What a pooled encoder keeps between calls once it has coded all three
// classes: one level-6 encoder and the run coder's scratch, under 1 MiB.
func TestZlibEncoderHeap(t *testing.T) {
	in := allClasses(rand.New(rand.NewSource(19)))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := new(zlibEncoder)
	e.encode(nil, in)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	runtime.KeepAlive(in)
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 1<<20 {
		t.Fatalf("a warmed encoder holds %d KiB, want at most 1024", held>>10)
	}
}

// piece is the recipe byte of FuzzZlibDefaultLevel for k samples of a kind.
func piece(kind, k int) byte { return byte(kind | k<<3) }

// FuzzZlibDefaultLevel builds an input piece by piece from the fuzzer's
// recipe — each recipe byte picks a content kind, among them the two an ID
// stream is made of, and a length — and holds the encoder to its
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
	// Order-0 hand-overs into a full, a short and a sub-sample last segment —
	// the last two bytes of text past the edge of a segment of noise.
	f.Add([]byte{piece(kindText, seg), piece(kindSmallAlphabet, seg), piece(kindIDPlane, seg), piece(kindSmallAlphabet, seg)}, int64(9))
	f.Add([]byte{piece(kindSmallAlphabet, seg), piece(kindText, seg), piece(kindSmallAlphabet, 5)}, int64(10))
	f.Add([]byte{piece(kindText, seg), piece(kindSmallAlphabet, seg-2), piece(kindText, 2)}, int64(11))
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
		enc, err := Zlib{}.CompressTo(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		checkReadsBack(t, "fuzz input", enc, in)
		again, err := Zlib{}.CompressTo(nil, in)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("second call gives different bytes: %v", err)
		}
	})
}
