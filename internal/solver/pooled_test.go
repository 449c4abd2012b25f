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

// contractDst returns a fresh dst of one of the forms the append contract
// is checked with: nil, a prefix with no spare capacity, and a prefix whose
// spare capacity holds stale bytes a solver may overwrite but must not read.
func contractDst(form string) []byte {
	switch form {
	case "full":
		return []byte("hdr")
	case "roomy":
		roomy := bytes.Repeat([]byte{0xA5}, 1<<16)
		return append(roomy[:0], "hdr"...)
	}
	return nil
}

// TestAppendContract holds every registered solver to the Compressor
// contract: appending to a non-empty dst leaves the prefix intact and
// appends the same bytes as a nil dst, in both directions.
func TestAppendContract(t *testing.T) {
	for _, name := range Names() {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range pooledTestInputs() {
			want, err := c.CompressTo(nil, in)
			if err != nil {
				t.Fatalf("%s input %d: CompressTo(nil): %v", name, i, err)
			}
			for _, form := range []string{"nil", "full", "roomy"} {
				dst := contractDst(form)
				prefix := bytes.Clone(dst)
				got, err := c.CompressTo(dst, in)
				if err != nil || !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("%s input %d, %s dst: CompressTo appends other bytes than to nil: %v", name, i, form, err)
				}
				dec, err := c.DecompressTo(contractDst(form), want)
				if err != nil || !bytes.HasPrefix(dec, prefix) || !bytes.Equal(dec[len(prefix):], in) {
					t.Fatalf("%s input %d, %s dst: DecompressTo appends other bytes than the input: %v", name, i, form, err)
				}
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
				cDst, err = c.CompressTo(cDst[:0], in)
				if err != nil {
					t.Fatalf("%s round %d input %d: %v", name, round, i, err)
				}
				dDst, err = c.DecompressTo(dDst[:0], cDst)
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
	enc, _ := z.CompressTo(nil, []byte("ok"))
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
	enc, err := z.CompressTo(nil, in)
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
		enc, err := c.CompressTo(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		cDst := make([]byte, 0, len(enc)+64)
		dDst := make([]byte, 0, len(in)+64)
		ca := testing.AllocsPerRun(20, func() {
			if _, err := c.CompressTo(cDst[:0], in); err != nil {
				t.Fatal(err)
			}
		})
		da := testing.AllocsPerRun(20, func() {
			if _, err := c.DecompressTo(dDst[:0], enc); err != nil {
				t.Fatal(err)
			}
		})
		if ca != 0 || da != 0 {
			t.Fatalf("%s: steady-state allocs compress=%.0f decompress=%.0f, want 0", name, ca, da)
		}
	}
}
