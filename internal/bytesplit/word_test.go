package bytesplit

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// layoutsUnderTest are the specialized layouts plus one unspecialized width
// so the scalar fallback path stays covered.
var layoutsUnderTest = []Layout{
	Float64Layout,
	Float32Layout,
	{ElemBytes: 6, HiBytes: 2}, // no word kernel: exercises scalar fallback
}

// payload builds n elements of adversarial content: random bytes laced with
// NaN/Inf/zero/subnormal patterns so every exponent shape flows through the
// kernels.
func payload(t *testing.T, lay Layout, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*lay.ElemBytes)
	rng.Read(out)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64}
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			continue
		}
		v := specials[rng.Intn(len(specials))]
		row := out[i*lay.ElemBytes:]
		switch lay.ElemBytes {
		case 8:
			b := Float64sToBytes([]float64{v})
			copy(row, b)
		case 4:
			b := Float32sToBytes([]float32{float32(v)})
			copy(row, b)
		}
	}
	return out
}

// TestSplitMergeWordMatchesScalar holds the word split/merge kernels to the
// scalar references on every residue length 0..15 (all tail shapes for the
// 4-element unroll) and on unaligned views of the input.
func TestSplitMergeWordMatchesScalar(t *testing.T) {
	for _, lay := range layoutsUnderTest {
		for n := 0; n <= 67; n++ {
			data := payload(t, lay, n, int64(n)*31+int64(lay.ElemBytes))

			hi, lo, err := lay.AppendSplit(nil, nil, data)
			if err != nil {
				t.Fatal(err)
			}
			refHi := make([]byte, n*lay.HiBytes)
			refLo := make([]byte, n*lay.LoBytes())
			splitScalar(refHi, refLo, data, lay.ElemBytes)
			if !bytes.Equal(hi, refHi) || !bytes.Equal(lo, refLo) {
				t.Fatalf("layout %+v n=%d: word split diverges from scalar", lay, n)
			}

			merged, err := lay.AppendMerge(nil, hi, lo)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, data) {
				t.Fatalf("layout %+v n=%d: merge does not invert split", lay, n)
			}
			refMerged := make([]byte, n*lay.ElemBytes)
			mergeScalar(refMerged, hi, lo, lay.ElemBytes)
			if !bytes.Equal(merged, refMerged) {
				t.Fatalf("layout %+v n=%d: word merge diverges from scalar", lay, n)
			}

			// Unaligned view: re-split a sub-slice starting one element in,
			// through a byte-odd backing offset. The word kernel loads via
			// encoding/binary so alignment must not matter.
			if n >= 2 {
				buf := make([]byte, len(data)+1)
				copy(buf[1:], data)
				uhi, ulo, err := lay.AppendSplit(nil, nil, buf[1:])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(uhi, refHi) || !bytes.Equal(ulo, refLo) {
					t.Fatalf("layout %+v n=%d: unaligned split diverges", lay, n)
				}
			}
		}
	}
}

// TestSplitCountMatchesSeparatePasses checks the fused split+histogram kernel
// against AppendSplit + a scalar count on every tail shape.
func TestSplitCountMatchesSeparatePasses(t *testing.T) {
	for _, lay := range layoutsUnderTest {
		for n := 0; n <= 67; n++ {
			data := payload(t, lay, n, int64(n)*7+int64(lay.ElemBytes))
			counts := make([]uint32, SequencePairs)
			hi, lo, err := lay.AppendSplitCount(nil, nil, data, counts)
			if err != nil {
				t.Fatal(err)
			}
			refHi, refLo, err := lay.AppendSplit(nil, nil, data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(hi, refHi) || !bytes.Equal(lo, refLo) {
				t.Fatalf("layout %+v n=%d: fused split diverges", lay, n)
			}
			refCounts := make([]uint32, SequencePairs)
			for i := 0; i < len(refHi); i += 2 {
				refCounts[uint16(refHi[i])<<8|uint16(refHi[i+1])]++
			}
			for s, c := range refCounts {
				if counts[s] != c {
					t.Fatalf("layout %+v n=%d: count[%#04x] = %d, want %d", lay, n, s, counts[s], c)
				}
			}
		}
	}
}

func TestSplitCountRejectsBadCounts(t *testing.T) {
	if _, _, err := Float64Layout.AppendSplitCount(nil, nil, make([]byte, 16), make([]uint32, 10)); err == nil {
		t.Fatal("short counts accepted")
	}
	if _, _, err := Float64Layout.AppendSplitCount(nil, nil, make([]byte, 9), make([]uint32, SequencePairs)); err == nil {
		t.Fatal("ragged input accepted")
	}
}

// TestColumnizeWordMatchesScalar holds the width-2 transpose kernel to the
// scalar reference on every row-count residue 0..40 plus larger sizes, and
// verifies the generic widths still work through the scalar path.
func TestColumnizeWordMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, width := range []int{2, 3, 6, 8} {
		for n := 0; n <= 40; n++ {
			data := make([]byte, n*width)
			rng.Read(data)
			got, err := AppendColumnize(nil, data, width)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]byte, len(data))
			columnizeScalar(ref, data, width, n)
			if !bytes.Equal(got, ref) {
				t.Fatalf("width %d n=%d: word columnize diverges", width, n)
			}
			back, err := AppendDecolumnize(nil, got, width)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("width %d n=%d: decolumnize does not invert", width, n)
			}
			refBack := make([]byte, len(data))
			decolumnizeScalar(refBack, got, width, n)
			if !bytes.Equal(back, refBack) {
				t.Fatalf("width %d n=%d: word decolumnize diverges", width, n)
			}
		}
	}
}

// TestWordKernelQuick drives the float64/float32 kernels with
// property-based random lengths and contents.
func TestWordKernelQuick(t *testing.T) {
	f := func(raw []byte, pick bool) bool {
		lay := Float64Layout
		if pick {
			lay = Float32Layout
		}
		data := raw[:len(raw)-len(raw)%lay.ElemBytes]
		hi, lo, err := lay.AppendSplit(nil, nil, data)
		if err != nil {
			return false
		}
		merged, err := lay.AppendMerge(nil, hi, lo)
		if err != nil {
			return false
		}
		if !bytes.Equal(merged, data) {
			return false
		}
		col, err := AppendColumnize(nil, hi, 2)
		if err != nil {
			return false
		}
		back, err := AppendDecolumnize(nil, col, 2)
		if err != nil {
			return false
		}
		return bytes.Equal(back, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzSplitMergeRoundTrip fuzzes the word kernels end to end: split + count,
// merge back, transpose round trip — all must reproduce the input exactly.
func FuzzSplitMergeRoundTrip(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	f.Add(Float64sToBytes([]float64{math.NaN(), math.Inf(1), 0, -1.5e-300}), true)
	f.Add(Float32sToBytes([]float32{1, float32(math.Inf(-1)), 0}), false)
	counts := make([]uint32, SequencePairs)
	f.Fuzz(func(t *testing.T, raw []byte, pick bool) {
		lay := Float64Layout
		if pick {
			lay = Float32Layout
		}
		data := raw[:len(raw)-len(raw)%lay.ElemBytes]
		clear(counts)
		hi, lo, err := lay.AppendSplitCount(nil, nil, data, counts)
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, c := range counts {
			total += uint64(c)
		}
		if total != uint64(len(data)/lay.ElemBytes) {
			t.Fatalf("histogram total %d, want %d", total, len(data)/lay.ElemBytes)
		}
		merged, err := lay.AppendMerge(nil, hi, lo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged, data) {
			t.Fatal("merge does not invert fused split")
		}
		col, err := AppendColumnize(nil, hi, 2)
		if err != nil {
			t.Fatal(err)
		}
		back, err := AppendDecolumnize(nil, col, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, hi) {
			t.Fatal("width-2 transpose round trip failed")
		}
	})
}

// TestAppendSplitCountAllocationFree guards the fused kernel's steady state:
// with pre-sized destinations and a reused counter arena it must not
// allocate.
func TestAppendSplitCountAllocationFree(t *testing.T) {
	data := payload(t, Float64Layout, 4096, 5)
	counts := make([]uint32, SequencePairs)
	hi := make([]byte, 0, 4096*2)
	lo := make([]byte, 0, 4096*6)
	allocs := testing.AllocsPerRun(10, func() {
		clear(counts)
		var err error
		hi, lo, err = Float64Layout.AppendSplitCount(hi[:0], lo[:0], data, counts)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused split+count allocates %v times per run", allocs)
	}
}

func BenchmarkSplitWord(b *testing.B) {
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(data)
	hi := make([]byte, 0, len(data)/4)
	lo := make([]byte, 0, len(data)*3/4)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hi, lo, _ = Float64Layout.AppendSplit(hi[:0], lo[:0], data)
	}
}

func BenchmarkSplitScalarRef(b *testing.B) {
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(data)
	hi := make([]byte, len(data)/4)
	lo := make([]byte, len(data)*3/4)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		splitScalar(hi, lo, data, 8)
	}
}

func BenchmarkSplitCountFused(b *testing.B) {
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(data)
	hi := make([]byte, 0, len(data)/4)
	lo := make([]byte, 0, len(data)*3/4)
	counts := make([]uint32, SequencePairs)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(counts)
		hi, lo, _ = Float64Layout.AppendSplitCount(hi[:0], lo[:0], data, counts)
	}
}

func BenchmarkColumnize2Word(b *testing.B) {
	data := make([]byte, 768<<10)
	rand.New(rand.NewSource(1)).Read(data)
	dst := make([]byte, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = AppendColumnize(dst[:0], data, 2)
	}
}

func BenchmarkMergeWord(b *testing.B) {
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(data)
	hi, lo, _ := Float64Layout.AppendSplit(nil, nil, data)
	dst := make([]byte, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = Float64Layout.AppendMerge(dst[:0], hi, lo)
	}
}
