package precond

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func synthetic(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*8)
	v := 300.0
	for i := 0; i < n; i++ {
		v += math.Sin(float64(i)/40) + rng.NormFloat64()*1e-3
		binary.BigEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func noise(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 2 {
		t.Fatalf("want >= 2 registered transforms, got %v", ids)
	}
	if ids[0] != IDChain {
		t.Fatalf("chain must be transform 0, got %v", ids)
	}
	for _, id := range ids {
		tf, err := New(id)
		if err != nil {
			t.Fatal(err)
		}
		if tf.ID() != id {
			t.Fatalf("transform %d reports ID %d", id, tf.ID())
		}
		if Name(id) != tf.Name() {
			t.Fatalf("registry name %q != transform name %q", Name(id), tf.Name())
		}
		byName, err := ByName(tf.Name())
		if err != nil {
			t.Fatal(err)
		}
		if byName.ID() != id {
			t.Fatalf("ByName(%q) resolved to ID %d", tf.Name(), byName.ID())
		}
	}
	if _, err := New(200); err == nil {
		t.Fatal("unregistered ID accepted")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unregistered name accepted")
	}
}

// Every transform, at every element width from 2 to 16, either round-trips
// or refuses the width with an error; predictxor refuses exactly the widths
// wider than a uint64, and round-trips the rest.
func TestTransformsRoundTrip(t *testing.T) {
	inputs := map[string][]byte{
		"smooth":  synthetic(4096, 1),
		"noise":   noise(4096*8, 2),
		"empty":   {},
		"single":  synthetic(1, 3),
		"repeats": bytes.Repeat([]byte{0x40, 0x59, 0, 0, 0, 0, 0, 1}, 512),
	}
	for _, id := range IDs() {
		fwd, _ := New(id)
		inv, _ := New(id)
		for name, in := range inputs {
			for w := 2; w <= 16; w++ {
				in := in[:len(in)/w*w]
				res, err := fwd.Forward(nil, in, w)
				if refused := id == IDPredictXOR && w > predictXORMaxWidth; refused || err != nil {
					if !refused || err == nil {
						t.Fatalf("%s/%s/w%d forward: %v", fwd.Name(), name, w, err)
					}
					if _, err := inv.Inverse(nil, in, w); err == nil {
						t.Fatalf("%s/%s/w%d: inverse accepts a width forward refuses", fwd.Name(), name, w)
					}
					continue
				}
				if len(res) != len(in) {
					t.Fatalf("%s/%s/w%d: forward changed length %d -> %d", fwd.Name(), name, w, len(in), len(res))
				}
				back, err := inv.Inverse(nil, res, w)
				if err != nil {
					t.Fatalf("%s/%s/w%d inverse: %v", fwd.Name(), name, w, err)
				}
				if !bytes.Equal(back, in) {
					t.Fatalf("%s/%s/w%d: round trip mismatch", fwd.Name(), name, w)
				}
			}
		}
	}
}

// Each Forward call must be self-contained: transforming the same chunk
// twice with one instance yields identical bytes (no state bleed), which is
// what lets chunks decode out of order.
func TestForwardIsStateless(t *testing.T) {
	in := synthetic(2048, 7)
	for _, id := range IDs() {
		tf, _ := New(id)
		a, err := tf.Forward(nil, in, 8)
		if err != nil {
			t.Fatal(err)
		}
		a = append([]byte(nil), a...)
		// Interleave an unrelated transform to perturb any carried state.
		if _, err := tf.Forward(nil, noise(512*8, 9), 8); err != nil {
			t.Fatal(err)
		}
		b, err := tf.Forward(nil, in, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: Forward is stateful across chunks", tf.Name())
		}
	}
}

func TestPredictXORHelpsSmoothData(t *testing.T) {
	in := synthetic(8192, 11)
	chain, _ := New(IDChain)
	px, _ := New(IDPredictXOR)
	cChain, err := chain.CostEstimate(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	cPX, err := px.CostEstimate(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cPX >= cChain {
		t.Fatalf("predictxor estimate %.3f not below chain %.3f on smooth data", cPX, cChain)
	}
}

func TestSelectorModes(t *testing.T) {
	smooth := synthetic(8192, 21)
	rnd := noise(8192*8, 22)

	fixed, err := NewSelector(Fixed, IDPredictXOR, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := fixed.Pick(smooth, 8, nil)
	if err != nil || tf.ID() != IDPredictXOR {
		t.Fatalf("Fixed pick = %v, %v", tf, err)
	}

	apriori, err := NewSelector(APriori, IDChain, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err = apriori.Pick(smooth, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tf.ID() != IDPredictXOR {
		t.Fatalf("APriori picked %s for smooth data, want predictxor", tf.Name())
	}

	// APosteriori: the trial reports the transformed sample's "size" as its
	// nonzero byte count, so the zero-heavy residual stream wins.
	apost, err := NewSelector(APosteriori, IDChain, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	trial := func(_ Transform, res []byte) (int, error) {
		n := 0
		for _, b := range res {
			if b != 0 {
				n++
			}
		}
		return n, nil
	}
	tf, err = apost.Pick(smooth, 8, trial)
	if err != nil {
		t.Fatal(err)
	}
	if tf.ID() != IDPredictXOR {
		t.Fatalf("APosteriori picked %s for smooth data, want predictxor", tf.Name())
	}
	// Pure noise: no transform helps; the tie-break must keep the chain.
	tf, err = apost.Pick(rnd, 8, func(_ Transform, res []byte) (int, error) { return len(res), nil })
	if err != nil {
		t.Fatal(err)
	}
	if tf.ID() != IDChain {
		t.Fatalf("APosteriori tie-break picked %s, want chain", tf.Name())
	}

	if _, err := apost.Pick(smooth, 8, nil); err == nil {
		t.Fatal("APosteriori without trial function accepted")
	}
	if _, err := NewSelector(Fixed, IDChain, []TransformID{IDChain}, 0); err == nil {
		t.Fatal("Fixed mode with candidate list accepted")
	}
	if _, err := NewSelector(APriori, IDChain, []TransformID{IDChain, IDChain}, 0); err == nil {
		t.Fatal("duplicate candidates accepted")
	}
	if _, err := NewSelector(SelectionMode(9), IDChain, nil, 0); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestParseSelectionMode(t *testing.T) {
	for in, want := range map[string]SelectionMode{
		"": Fixed, "fixed": Fixed, "apriori": APriori, "aposteriori": APosteriori,
	} {
		got, err := ParseSelectionMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSelectionMode(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("String() = %q, want %q", got.String(), in)
		}
	}
	if _, err := ParseSelectionMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestShapeErrors(t *testing.T) {
	for _, id := range IDs() {
		tf, _ := New(id)
		if _, err := tf.Forward(nil, make([]byte, 7), 8); err == nil {
			t.Fatalf("%s: misaligned forward accepted", tf.Name())
		}
		if _, err := tf.Inverse(nil, make([]byte, 7), 8); err == nil {
			t.Fatalf("%s: misaligned inverse accepted", tf.Name())
		}
		if _, err := tf.Forward(nil, make([]byte, 8), 1); err == nil {
			t.Fatalf("%s: width 1 accepted", tf.Name())
		}
	}
	if _, err := EstimateFraction(make([]byte, 9), 8); err == nil {
		t.Fatal("EstimateFraction accepted misaligned sample")
	}
	f, err := EstimateFraction(nil, 8)
	if err != nil || f != 1 {
		t.Fatalf("empty sample estimate = %v, %v", f, err)
	}
}
