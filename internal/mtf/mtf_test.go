package mtf

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeKnown(t *testing.T) {
	// "aaa" -> first 'a' (0x61) is at index 97, then at front: 0,0.
	got := Encode([]byte("aaa"))
	want := []byte{97, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestEncodeAlternating(t *testing.T) {
	// "abab": a->97, b->98 (a moved to front pushed b up.. b initially 98,
	// after 'a' at front b is at 98 still? list: a,0,1,...: b at index 98).
	got := Encode([]byte("abab"))
	want := []byte{97, 98, 1, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMTFRoundTrip(t *testing.T) {
	inputs := [][]byte{
		{},
		{0},
		{255},
		[]byte("banana"),
		bytes.Repeat([]byte{3}, 100),
		{0, 1, 2, 3, 255, 254, 0, 0, 7},
	}
	for _, in := range inputs {
		if got := Decode(Encode(in)); !bytes.Equal(got, in) {
			t.Fatalf("round trip failed for %v: got %v", in, got)
		}
	}
}

func TestMTFFavorsRuns(t *testing.T) {
	// A run-heavy input must produce mostly zero output bytes.
	in := bytes.Repeat([]byte{9}, 1000)
	out := Encode(in)
	zeros := 0
	for _, b := range out {
		if b == 0 {
			zeros++
		}
	}
	if zeros != 999 {
		t.Fatalf("expected 999 zeros, got %d", zeros)
	}
}

func TestRLEKnownRuns(t *testing.T) {
	// run of 1 zero -> RUNA; 2 zeros -> RUNB; 3 -> RUNA RUNA; 4 -> RUNB RUNA.
	cases := []struct {
		zeros int
		want  []uint16
	}{
		{1, []uint16{RunA, EOB}},
		{2, []uint16{RunB, EOB}},
		{3, []uint16{RunA, RunA, EOB}},
		{4, []uint16{RunB, RunA, EOB}},
		{5, []uint16{RunA, RunB, EOB}},
		{6, []uint16{RunB, RunB, EOB}},
		{7, []uint16{RunA, RunA, RunA, EOB}},
	}
	for _, c := range cases {
		got := EncodeRLE(bytes.Repeat([]byte{0}, c.zeros))
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("run of %d: got %v want %v", c.zeros, got, c.want)
		}
	}
}

func TestRLENonZeroShift(t *testing.T) {
	got := EncodeRLE([]byte{5, 0, 0, 9})
	want := []uint16{6, RunB, 10, EOB}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestRLERoundTrip(t *testing.T) {
	inputs := [][]byte{
		{},
		{0},
		{1},
		{0, 0, 0, 0, 0},
		{255, 0, 255},
		bytes.Repeat([]byte{0}, 1000),
		{1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 4},
	}
	for _, in := range inputs {
		sym := EncodeRLE(in)
		got, used, err := DecodeRLE(sym)
		if err != nil {
			t.Fatalf("DecodeRLE(%v): %v", in, err)
		}
		if used != len(sym) {
			t.Fatalf("consumed %d of %d symbols", used, len(sym))
		}
		if !bytes.Equal(got, in) {
			t.Fatalf("round trip failed for %v: got %v", in, got)
		}
	}
}

func TestRLEStopsAtEOB(t *testing.T) {
	sym := EncodeRLE([]byte{1, 2})
	sym = append(sym, 42, 42) // trailing garbage after EOB
	got, used, err := DecodeRLE(sym)
	if err != nil {
		t.Fatal(err)
	}
	if used != 3 { // 2 literals + EOB
		t.Fatalf("used = %d, want 3", used)
	}
	if !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("got %v", got)
	}
}

func TestRLECorrupt(t *testing.T) {
	if _, _, err := DecodeRLE([]uint16{300}); err == nil {
		t.Fatal("out-of-alphabet symbol accepted")
	}
	if _, _, err := DecodeRLE([]uint16{RunA, RunA}); err == nil {
		t.Fatal("missing EOB accepted")
	}
}

// Property: Decode(Encode(x)) == x.
func TestQuickMTF(t *testing.T) {
	f := func(in []byte) bool {
		return bytes.Equal(Decode(Encode(in)), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: full MTF+RLE pipeline round-trips.
func TestQuickPipeline(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, int(n)%4096)
		for i := range in {
			if rng.Intn(3) == 0 {
				in[i] = byte(rng.Intn(256))
			} // else zero: exercise runs
		}
		sym := EncodeRLE(Encode(in))
		mid, _, err := DecodeRLE(sym)
		if err != nil {
			return false
		}
		return bytes.Equal(Decode(mid), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RLE output never exceeds input length + 1 (EOB) and compresses
// zero-heavy input strictly.
func TestQuickRLEBound(t *testing.T) {
	f := func(in []byte) bool {
		sym := EncodeRLE(in)
		if len(sym) > len(in)+1 {
			return false
		}
		zeros := 0
		for _, b := range in {
			if b == 0 {
				zeros++
			}
		}
		if zeros > 16 && len(sym) >= len(in) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMTFEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := make([]byte, 1<<16)
	for i := range in {
		in[i] = byte(rng.Intn(8))
	}
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		Encode(in)
	}
}

func BenchmarkRLEEncode(b *testing.B) {
	in := make([]byte, 1<<16)
	for i := range in {
		if i%7 == 0 {
			in[i] = byte(i)
		}
	}
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		EncodeRLE(in)
	}
}
