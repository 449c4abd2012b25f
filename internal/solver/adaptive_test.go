package solver

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"io"
	"math/rand"
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

// The four kinds of content a segment is filled with in these tests.
const (
	kindRun = iota
	kindUniform
	kindSmallAlphabet
	kindText
	numKinds
)

// fill appends n bytes of the given kind to dst.
func fill(dst []byte, rng *rand.Rand, kind, n int) []byte {
	const text = "the zlib solver searches for matches only where a sample finds some. "
	for i := 0; i < n; i++ {
		switch kind {
		case kindRun:
			dst = append(dst, 0)
		case kindUniform:
			dst = append(dst, byte(rng.Intn(256)))
		case kindSmallAlphabet:
			dst = append(dst, byte(rng.Intn(16)))
		default:
			dst = append(dst, text[i%len(text)])
		}
	}
	return dst
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

// The default level's plan and stream at the sizes where the rules change
// (nothing, one byte, around the sample, around the segment) and with the
// hand-over in every position, the last segment included. Each stream is one
// RFC 1950 stream to both readers and no larger than stock level 6's.
func TestZlibDefaultLevelPlansAndInterop(t *testing.T) {
	const lz, huff = zlibLZ, flate.HuffmanOnly
	type part struct{ kind, n int }
	for _, tc := range []struct {
		name  string
		parts []part
		want  []int // level per run
	}{
		{"empty", nil, nil},
		{"one byte", []part{{kindSmallAlphabet, 1}}, []int{lz}},
		{"sample-1 of noise", []part{{kindSmallAlphabet, zlibSample - 1}}, []int{lz}},
		{"sample of noise", []part{{kindSmallAlphabet, zlibSample}}, []int{huff}},
		{"segment-1 of noise", []part{{kindSmallAlphabet, zlibSegment - 1}}, []int{huff}},
		{"segment of noise", []part{{kindSmallAlphabet, zlibSegment}}, []int{huff}},
		{"segment+1 of noise", []part{{kindSmallAlphabet, zlibSegment + 1}}, []int{huff}},
		{"segment+1 of text", []part{{kindText, zlibSegment + 1}}, []int{lz}},
		{"uniform noise gains nothing from Huffman", []part{{kindUniform, 2 * zlibSegment}}, []int{lz}},
		{"a run is match search's", []part{{kindRun, 2 * zlibSegment}}, []int{lz}},
		{"text then noise", []part{{kindText, 2 * zlibSegment}, {kindSmallAlphabet, 2 * zlibSegment}}, []int{lz, huff}},
		{"noise then text", []part{{kindSmallAlphabet, 2 * zlibSegment}, {kindText, 2 * zlibSegment}}, []int{huff, lz}},
		{"hand-over into a full last segment", []part{{kindText, 3 * zlibSegment}, {kindSmallAlphabet, zlibSegment}}, []int{lz, huff}},
		{"hand-over into a short last segment", []part{{kindSmallAlphabet, 3 * zlibSegment}, {kindText, zlibSample}}, []int{huff, lz}},
		{"a tail under the sample joins the run before it", []part{{kindSmallAlphabet, 3 * zlibSegment}, {kindText, zlibSample - 1}}, []int{huff}},
		{"alternating", []part{{kindSmallAlphabet, zlibSegment}, {kindText, zlibSegment}, {kindSmallAlphabet, zlibSegment}, {kindRun, zlibSegment}, {kindText, zlibSegment}}, []int{huff, lz, huff, lz}},
	} {
		rng := rand.New(rand.NewSource(9))
		var in []byte
		for _, p := range tc.parts {
			in = fill(in, rng, p.kind, p.n)
		}
		got := runLevels(in)
		if len(got) != len(tc.want) {
			t.Errorf("%s: runs %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if i < len(tc.want) && got[i] != tc.want[i] {
				t.Errorf("%s: runs %v, want %v", tc.name, got, tc.want)
				break
			}
		}
		enc, err := Zlib{}.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		checkReadsBack(t, tc.name, enc, in)
		// One run is that level's stock stream under the default level's
		// header; with hand-overs the noise runs are where Huffman coding
		// beats level 6, by far more than the sync markers cost.
		if len(got) == 1 && !bytes.Equal(enc[2:], stockCompress(t, in, got[0])[2:]) {
			t.Errorf("%s: one run at level %d differs from compress/zlib's stream at it", tc.name, got[0])
		}
		if stock := len(stockCompress(t, in, zlibLZ)); len(enc) > stock {
			t.Errorf("%s: %d bytes, stock level 6 makes %d", tc.name, len(enc), stock)
		}
	}
}

// The stream is a function of the input: the same bytes come out of repeated
// calls, of an encoder that has never been used and of pooled ones that have
// just coded something else at every level the default uses.
func TestZlibDefaultLevelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var in []byte
	for _, kind := range []int{kindText, kindSmallAlphabet, kindRun, kindSmallAlphabet, kindUniform, kindSmallAlphabet} {
		in = fill(in, rng, kind, zlibSegment)
	}
	var fresh zlibEncoder
	if err := fresh.encode(&fresh.sink, in, 0); err != nil {
		t.Fatal(err)
	}
	want := fresh.sink.b
	if levels := runLevels(in); len(levels) < 4 {
		t.Fatalf("input codes as runs %v, want at least three hand-overs", levels)
	}
	other := fill(fill(nil, rng, kindSmallAlphabet, 3*zlibSegment+5), rng, kindText, zlibSegment)
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
// do: trials at all three levels, both encoders, hand-overs.
func TestZlibDefaultLevelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	rng := rand.New(rand.NewSource(23))
	var in []byte
	for _, kind := range []int{kindText, kindSmallAlphabet, kindRun, kindSmallAlphabet} {
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

// FuzzZlibDefaultLevel builds an input segment by segment from the fuzzer's
// recipe — each recipe byte picks a content kind and how far the piece runs
// past or short of a segment — and holds the default level to its contract:
// one stream both readers decode, the same bytes on a second call.
func FuzzZlibDefaultLevel(f *testing.F) {
	// kind in the low two bits; the rest shortens or lengthens the piece.
	f.Add([]byte{kindText, kindSmallAlphabet, kindRun, kindUniform}, int64(1))
	f.Add([]byte{kindSmallAlphabet, kindSmallAlphabet | 4, kindText | 8, kindSmallAlphabet | 0xfc}, int64(2))
	f.Add([]byte{kindUniform | 0x10, kindRun | 0x20, kindSmallAlphabet | 0x40, kindText | 0x80, kindSmallAlphabet}, int64(3))
	f.Add([]byte{kindRun | 0xf0}, int64(4))
	f.Add([]byte{}, int64(5))
	f.Fuzz(func(t *testing.T, recipe []byte, seed int64) {
		if len(recipe) > 6 {
			recipe = recipe[:6]
		}
		rng := rand.New(rand.NewSource(seed))
		var in []byte
		for _, b := range recipe {
			// Piece lengths cover 0 … a little over one segment in steps that
			// land on, one under and one over the sample and the segment.
			n := int(b>>2) * (zlibSegment + 64) / 63
			in = fill(in, rng, int(b&3), n+int(b>>2)%3-1)
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
