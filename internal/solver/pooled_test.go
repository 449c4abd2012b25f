package solver

import (
	"bytes"
	"math/rand"
	"testing"

	"primacy/internal/testenv"
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

// runVerdicts is the verdict of each run a fresh encoder cuts in into.
func runVerdicts(in []byte) []zlibVerdict {
	var vs []zlibVerdict
	for _, r := range ZlibPlan(in) {
		vs = append(vs, r.Verdict)
	}
	return vs
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
	if testenv.RaceEnabled {
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
	if testenv.RaceEnabled {
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
	if testenv.RaceEnabled {
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
