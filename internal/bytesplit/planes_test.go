package bytesplit

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// planeViews cuts a contiguous plane buffer into its w planes.
func planeViews(buf []byte, w int) [][]byte {
	n := len(buf) / w
	out := make([][]byte, w)
	for c := range out {
		out[c] = buf[c*n : (c+1)*n]
	}
	return out
}

// referencePlanes builds the plane form through the reference functions the
// chunk path used to chain: split, then column-linearize each part.
func referencePlanes(t *testing.T, lay Layout, data []byte) []byte {
	t.Helper()
	hi, lo, err := lay.AppendSplit(nil, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := AppendColumnize(nil, hi, lay.HiBytes)
	if err != nil {
		t.Fatal(err)
	}
	out, err = AppendColumnize(out, lo, lay.LoBytes())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPlanesMatchScalarAndReference holds the transposing kernels to the
// scalar loops and to split + columnize on every element count 0…67 (all
// tail shapes of the 8-element unroll), with and without the fused
// histogram, behind a non-empty dst prefix.
func TestPlanesMatchScalarAndReference(t *testing.T) {
	for _, lay := range layoutsUnderTest {
		for n := 0; n <= 67; n++ {
			data := payload(t, lay, n, int64(n)*13+int64(lay.ElemBytes))
			w := lay.ElemBytes

			scalar := make([]byte, len(data))
			scalarCounts := new([SequencePairs]uint32)
			planesScalar(scalar, data, w, n, 0, scalarCounts)
			if ref := referencePlanes(t, lay, data); !bytes.Equal(scalar, ref) {
				t.Fatalf("layout %+v n=%d: scalar planes diverge from split+columnize", lay, n)
			}

			prefix := []byte{0xAA, 0xBB, 0xCC}
			counts := make([]uint32, SequencePairs)
			got, err := lay.AppendPlanes(append([]byte(nil), prefix...), data, counts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], scalar) {
				t.Fatalf("layout %+v n=%d: AppendPlanes diverges from scalar", lay, n)
			}
			if !bytes.Equal(uint32Bytes(counts), uint32Bytes(scalarCounts[:])) {
				t.Fatalf("layout %+v n=%d: fused histogram diverges from scalar", lay, n)
			}
			plain, err := lay.AppendPlanes(nil, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain, scalar) {
				t.Fatalf("layout %+v n=%d: AppendPlanes without counts diverges", lay, n)
			}

			views := planeViews(scalar, w)
			back, err := lay.AppendMergePlanes(append([]byte(nil), prefix...), views)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back[:3], prefix) || !bytes.Equal(back[3:], data) {
				t.Fatalf("layout %+v n=%d: AppendMergePlanes does not invert AppendPlanes", lay, n)
			}
			scalarBack := make([]byte, len(data))
			mergePlanesScalar(scalarBack, views, w, n, 0)
			if !bytes.Equal(scalarBack, data) {
				t.Fatalf("layout %+v n=%d: scalar merge does not invert scalar planes", lay, n)
			}
		}
	}
}

func uint32Bytes(v []uint32) []byte {
	out := make([]byte, 0, len(v)*4)
	for _, x := range v {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

// TestMergePlanesFromScatteredSlices feeds planes that live in unrelated
// buffers — the decoder's case, where planes point into solver output and
// the record — and checks the old merge of the old layout agrees.
func TestMergePlanesFromScatteredSlices(t *testing.T) {
	for _, lay := range []Layout{Float64Layout, Float32Layout} {
		data := payload(t, lay, 1031, 77)
		flat, err := lay.AppendPlanes(nil, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		planes := planeViews(flat, lay.ElemBytes)
		for c := range planes {
			// Odd leading pad: every plane at its own, unaligned address.
			buf := make([]byte, c+1+len(planes[c]))
			copy(buf[c+1:], planes[c])
			planes[c] = buf[c+1:]
		}
		got, err := lay.AppendMergePlanes(nil, planes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("layout %+v: merge from scattered planes diverges", lay)
		}
	}
}

func TestPlanesRejectBadInput(t *testing.T) {
	if _, err := Float64Layout.AppendPlanes(nil, make([]byte, 9), nil); err == nil {
		t.Fatal("ragged input accepted")
	}
	if _, err := Float64Layout.AppendPlanes(nil, make([]byte, 16), make([]uint32, 10)); err == nil {
		t.Fatal("short counts accepted")
	}
	if _, err := (Layout{ElemBytes: 2, HiBytes: 2}).AppendPlanes(nil, nil, nil); err == nil {
		t.Fatal("invalid layout accepted")
	}
	if _, err := Float64Layout.AppendMergePlanes(nil, make([][]byte, 7)); err == nil {
		t.Fatal("seven planes accepted for float64")
	}
	ragged := planeViews(make([]byte, 64), 8)
	ragged[5] = ragged[5][:7]
	if _, err := Float64Layout.AppendMergePlanes(nil, ragged); err == nil {
		t.Fatal("ragged planes accepted")
	}
}

// TestQuickPlanesRoundTrip is the split∘merge = id property on random
// lengths and contents for both kernel layouts.
func TestQuickPlanesRoundTrip(t *testing.T) {
	f := func(raw []byte, pick bool) bool {
		lay := Float64Layout
		if pick {
			lay = Float32Layout
		}
		data := raw[:len(raw)-len(raw)%lay.ElemBytes]
		flat, err := lay.AppendPlanes(nil, data, nil)
		if err != nil {
			return false
		}
		back, err := lay.AppendMergePlanes(nil, planeViews(flat, lay.ElemBytes))
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPlanesRoundTrip fuzzes planes∘merge = id, the histogram total, and
// agreement with the split + columnize reference.
func FuzzPlanesRoundTrip(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 9), true)
	f.Add(Float64sToBytes([]float64{math.NaN(), math.Inf(1), 0, -1.5e-300, 5e-324, 1, 2, 3, 4}), true)
	f.Add(Float32sToBytes([]float32{1, float32(math.Inf(-1)), 0, 2, 3, 4, 5, 6, 7}), false)
	counts := make([]uint32, SequencePairs)
	f.Fuzz(func(t *testing.T, raw []byte, pick bool) {
		lay := Float64Layout
		if !pick {
			lay = Float32Layout
		}
		data := raw[:len(raw)-len(raw)%lay.ElemBytes]
		clear(counts)
		flat, err := lay.AppendPlanes(nil, data, counts)
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
		if !bytes.Equal(flat, referencePlanes(t, lay, data)) {
			t.Fatal("planes diverge from split+columnize")
		}
		back, err := lay.AppendMergePlanes(nil, planeViews(flat, lay.ElemBytes))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("merge does not invert planes")
		}
	})
}

// TestPlanesAllocationFree guards the steady state of both directions.
func TestPlanesAllocationFree(t *testing.T) {
	data := payload(t, Float64Layout, 4096, 5)
	counts := make([]uint32, SequencePairs)
	flat := make([]byte, 0, len(data))
	back := make([]byte, 0, len(data))
	views := planeViews(flat[:len(data)], 8)
	allocs := testing.AllocsPerRun(10, func() {
		clear(counts)
		var err error
		if flat, err = Float64Layout.AppendPlanes(flat[:0], data, counts); err != nil {
			t.Fatal(err)
		}
		if back, err = Float64Layout.AppendMergePlanes(back[:0], views); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("planes round trip allocates %v times per run", allocs)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("round trip diverges")
	}
}

func benchChunk() []byte {
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(data)
	return data
}

func BenchmarkPlanes(b *testing.B) {
	data := benchChunk()
	dst := make([]byte, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = Float64Layout.AppendPlanes(dst[:0], data, nil)
	}
}

func BenchmarkPlanesCount(b *testing.B) {
	data := benchChunk()
	dst := make([]byte, 0, len(data))
	counts := make([]uint32, SequencePairs)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(counts)
		dst, _ = Float64Layout.AppendPlanes(dst[:0], data, counts)
	}
}

func BenchmarkMergePlanes(b *testing.B) {
	data := benchChunk()
	flat, _ := Float64Layout.AppendPlanes(nil, data, nil)
	views := planeViews(flat, 8)
	dst := make([]byte, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = Float64Layout.AppendMergePlanes(dst[:0], views)
	}
}

func BenchmarkPlanesFloat32(b *testing.B) {
	data := benchChunk()
	dst := make([]byte, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = Float32Layout.AppendPlanes(dst[:0], data, nil)
	}
}
