package solver

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegistryHasStandardSolvers(t *testing.T) {
	for _, name := range []string{"zlib", "lzo", "bzlib", "none"} {
		c, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, c.Name())
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("snappy"); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestAllSolversRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inputs := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte("abc"), 5000),
		make([]byte, 20000),
	}
	rng.Read(inputs[3])
	for _, name := range []string{"zlib", "lzo", "bzlib", "none"} {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, in := range inputs {
			enc, err := c.CompressTo(nil, in)
			if err != nil {
				t.Fatalf("%s input %d: Compress: %v", name, i, err)
			}
			dec, err := c.DecompressTo(nil, enc)
			if err != nil {
				t.Fatalf("%s input %d: Decompress: %v", name, i, err)
			}
			if !bytes.Equal(dec, in) {
				t.Fatalf("%s input %d: round trip mismatch", name, i)
			}
		}
	}
}

func TestSolverRatioOrdering(t *testing.T) {
	// On repetitive text, bzlib >= zlib >= lzo in compression ratio —
	// the ordering the paper relies on.
	in := bytes.Repeat([]byte("scientific checkpoint restart data stream 0123456789 "), 2000)
	sizes := map[string]int{}
	for _, name := range []string{"zlib", "lzo", "bzlib"} {
		c, _ := Get(name)
		enc, err := c.CompressTo(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = len(enc)
	}
	if !(sizes["bzlib"] <= sizes["zlib"] && sizes["zlib"] <= sizes["lzo"]) {
		t.Fatalf("ratio ordering violated: %v", sizes)
	}
}

func TestNoneDoesNotAlias(t *testing.T) {
	in := []byte{1, 2, 3}
	c, _ := Get("none")
	enc, _ := c.CompressTo(nil, in)
	enc[0] = 99
	if in[0] == 99 {
		t.Fatal("None.Compress aliases its input")
	}
}

func TestZlibDecompressGarbage(t *testing.T) {
	z := Zlib{}
	if _, err := z.DecompressTo(nil, []byte("not zlib data")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// Property: every registered solver round-trips arbitrary data.
func TestQuickAllSolvers(t *testing.T) {
	for _, name := range []string{"zlib", "lzo", "bzlib", "none"} {
		c, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		f := func(in []byte) bool {
			enc, err := c.CompressTo(nil, in)
			if err != nil {
				return false
			}
			dec, err := c.DecompressTo(nil, enc)
			return err == nil && bytes.Equal(dec, in)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
