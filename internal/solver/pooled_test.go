package solver

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// pooledTestInputs covers empty, tiny, repetitive, and random payloads.
func pooledTestInputs() [][]byte {
	rng := rand.New(rand.NewSource(41))
	noise := make([]byte, 16384)
	rng.Read(noise)
	return [][]byte{nil, []byte("y"), bytes.Repeat([]byte("primacy"), 3000), noise}
}

// CompressTo/DecompressTo must append byte-identical output to the plain
// methods — the wire format depends on the two spellings agreeing.
func TestCompressToMatchesCompress(t *testing.T) {
	for _, name := range []string{"zlib", "lzo", "bzlib", "none"} {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range pooledTestInputs() {
			want, err := c.Compress(in)
			if err != nil {
				t.Fatalf("%s input %d: Compress: %v", name, i, err)
			}
			// Appending after an existing prefix must leave the prefix alone.
			prefix := []byte("hdr")
			got, err := CompressTo(c, append([]byte(nil), prefix...), in)
			if err != nil {
				t.Fatalf("%s input %d: CompressTo: %v", name, i, err)
			}
			if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s input %d: CompressTo bytes differ from Compress", name, i)
			}
			dec, err := DecompressTo(c, append([]byte(nil), prefix...), want)
			if err != nil {
				t.Fatalf("%s input %d: DecompressTo: %v", name, i, err)
			}
			if !bytes.HasPrefix(dec, prefix) || !bytes.Equal(dec[len(prefix):], in) {
				t.Fatalf("%s input %d: DecompressTo round trip mismatch", name, i)
			}
		}
	}
}

// Reusing one dst across many CompressTo/DecompressTo calls (the codec
// steady state) must keep producing correct, independent results.
func TestPooledReuseAcrossCalls(t *testing.T) {
	for _, name := range []string{"zlib", "lzo", "none"} {
		c, _ := Get(name)
		inputs := pooledTestInputs()
		var cDst, dDst []byte
		for round := 0; round < 4; round++ {
			for i, in := range inputs {
				var err error
				cDst, err = CompressTo(c, cDst[:0], in)
				if err != nil {
					t.Fatalf("%s round %d input %d: %v", name, round, i, err)
				}
				dDst, err = DecompressTo(c, dDst[:0], cDst)
				if err != nil || !bytes.Equal(dDst, in) {
					t.Fatalf("%s round %d input %d: reuse round trip: %v", name, round, i, err)
				}
			}
		}
	}
}

// runLevels is the flate level of each run a fresh encoder cuts in into at
// the default level.
func runLevels(in []byte) []int {
	var levels []int
	for _, r := range ZlibPlan(in) {
		levels = append(levels, r.Level)
	}
	return levels
}

// faultySink errors after accepting okBytes, exercising the writer pool's
// error paths.
type faultySink struct {
	okBytes int
	n       int
}

var errSink = errors.New("sink failed")

func (s *faultySink) Write(p []byte) (int, error) {
	if s.n+len(p) > s.okBytes {
		ok := s.okBytes - s.n
		if ok < 0 {
			ok = 0
		}
		s.n += ok
		return ok, errSink
	}
	s.n += len(p)
	return len(p), nil
}

// A sink that fails mid-stream must surface the error AND leave the pooled
// encoder usable; later compressions must still produce bytes identical to a
// fresh encoder's. The faulty sink goes where CompressTo puts its own: into
// encode, on an encoder checked out of the pool CompressTo draws from. The
// payload has a text run, a run of repeats and a noise run, so a level-6, a
// fast and the Huffman-only encoder and the hand-overs between them meet the
// failing sink.
func TestZlibFaultySinkKeepsPoolHealthy(t *testing.T) {
	z := Zlib{}
	rng := rand.New(rand.NewSource(3))
	in := fill(nil, rng, kindText, zlibSegment)
	in = append(in, bytes.Repeat([]byte("fault injection payload "), 4000)...)
	in = fill(in, rng, kindSmallAlphabet, 2*zlibSegment)
	want, err := z.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := runLevels(in); len(got) != 3 {
		t.Fatalf("payload codes as runs %v, want a level-6, a fast and a Huffman-only run", got)
	}
	// Fail at several cut points: 0 and 1 (the header), points where the
	// error surfaces only at a Flush or Close (buffered data), and two inside
	// the last run.
	for _, cut := range []int{0, 1, 10, 100, len(want) / 2, len(want) - 3} {
		e := zlibEncoders.Get().(*zlibEncoder)
		err := e.encode(&faultySink{okBytes: cut}, in, z.Level)
		zlibEncoders.Put(e)
		if !errors.Is(err, errSink) {
			t.Fatalf("cut %d: error = %v, want errSink", cut, err)
		}
		// The encoder that just failed is back in the pool; the next
		// compression resets it and must be byte-identical.
		got, err := z.Compress(in)
		if err != nil {
			t.Fatalf("cut %d: compress after fault: %v", cut, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut %d: recycled encoder produced different bytes", cut)
		}
	}
}

func TestZlibDecompressToGarbage(t *testing.T) {
	z := Zlib{}
	if _, err := z.DecompressTo(nil, []byte("still not zlib data")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Pool must stay healthy after the failed Reset/read.
	enc, _ := z.Compress([]byte("ok"))
	dec, err := z.DecompressTo(nil, enc)
	if err != nil || !bytes.Equal(dec, []byte("ok")) {
		t.Fatalf("decompress after garbage: %v", err)
	}
}

// Steady-state CompressTo with a pre-sized reused dst must not allocate:
// writer state comes from the pool and output lands in caller scratch. This
// is the regression test for the per-chunk solver allocations the scratch
// refactor eliminates.
func TestZlibCompressToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	z := Zlib{}
	in := bytes.Repeat([]byte("steady state "), 2000)
	dst, err := z.CompressTo(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		out, err := z.CompressTo(dst[:0], in)
		if err != nil {
			t.Fatal(err)
		}
		dst = out
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressTo allocates %.0f times per op, want 0", allocs)
	}
}

func TestZlibDecompressToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	z := Zlib{}
	in := bytes.Repeat([]byte("steady state "), 2000)
	enc, err := z.Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(in)+64)
	allocs := testing.AllocsPerRun(20, func() {
		out, err := z.DecompressTo(dst[:0], enc)
		if err != nil || len(out) != len(in) {
			t.Fatal("bad decompress")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecompressTo allocates %.0f times per op, want 0", allocs)
	}
}

func TestLZONoneToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its items")
	}
	in := bytes.Repeat([]byte("steady state "), 2000)
	for _, name := range []string{"lzo", "none"} {
		c, _ := Get(name)
		enc, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		cDst := make([]byte, 0, len(enc)+64)
		dDst := make([]byte, 0, len(in)+64)
		ca := testing.AllocsPerRun(20, func() {
			if _, err := CompressTo(c, cDst[:0], in); err != nil {
				t.Fatal(err)
			}
		})
		da := testing.AllocsPerRun(20, func() {
			if _, err := DecompressTo(c, dDst[:0], enc); err != nil {
				t.Fatal(err)
			}
		})
		if ca != 0 || da != 0 {
			t.Fatalf("%s: steady-state allocs compress=%.0f decompress=%.0f, want 0", name, ca, da)
		}
	}
}

// The package helpers must fall back to Compress/Decompress for solvers
// without the fast-path interfaces (bzlib) and still append after dst.
func TestHelperFallbackForBZlib(t *testing.T) {
	c, _ := Get("bzlib")
	if _, ok := c.(CompressorTo); ok {
		t.Skip("bzlib grew a fast path; fallback no longer exercised here")
	}
	in := bytes.Repeat([]byte("fallback "), 1000)
	enc, err := CompressTo(c, []byte{0xEE}, in)
	if err != nil || enc[0] != 0xEE {
		t.Fatalf("fallback CompressTo: %v", err)
	}
	dec, err := DecompressTo(c, []byte{0xDD}, enc[1:])
	if err != nil || dec[0] != 0xDD || !bytes.Equal(dec[1:], in) {
		t.Fatalf("fallback DecompressTo: %v", err)
	}
}
