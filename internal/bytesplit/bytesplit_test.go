package bytesplit

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFloatBytesRoundTrip(t *testing.T) {
	values := []float64{0, 1, -1, math.Pi, 1e-300, 1e300, math.Inf(1),
		math.Inf(-1), math.SmallestNonzeroFloat64, -0.0}
	data := Float64sToBytes(values)
	if len(data) != len(values)*8 {
		t.Fatalf("length %d", len(data))
	}
	got, err := BytesToFloat64s(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Fatalf("value %d: got %v want %v", i, got[i], v)
		}
	}
}

func TestNaNPreservedBitExact(t *testing.T) {
	nan := math.Float64frombits(0x7FF8DEADBEEF0001)
	data := Float64sToBytes([]float64{nan})
	got, err := BytesToFloat64s(data)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got[0]) != 0x7FF8DEADBEEF0001 {
		t.Fatalf("NaN payload lost: %x", math.Float64bits(got[0]))
	}
}

func TestBigEndianLayout(t *testing.T) {
	// 1.0 = 0x3FF0000000000000; byte 0 must be 0x3F (exponent high byte).
	data := Float64sToBytes([]float64{1.0})
	if data[0] != 0x3F || data[1] != 0xF0 {
		t.Fatalf("unexpected layout: % x", data)
	}
}

func TestSplitMerge(t *testing.T) {
	data := Float64sToBytes([]float64{1.5, -2.25, 1e10})
	hi, lo, err := Float64Layout.AppendSplit(nil, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hi) != 6 || len(lo) != 18 {
		t.Fatalf("split sizes: hi=%d lo=%d", len(hi), len(lo))
	}
	// First element 1.5 = 0x3FF8...: hi bytes 0x3F 0xF8.
	if hi[0] != 0x3F || hi[1] != 0xF8 {
		t.Fatalf("hi bytes: % x", hi[:2])
	}
	merged, err := Float64Layout.AppendMerge(nil, hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, data) {
		t.Fatal("merge mismatch")
	}
}

func TestSplitBadLength(t *testing.T) {
	if _, _, err := Float64Layout.AppendSplit(nil, nil, make([]byte, 7)); err == nil {
		t.Fatal("non-multiple length accepted")
	}
	if _, err := BytesToFloat64s(make([]byte, 9)); err == nil {
		t.Fatal("non-multiple length accepted")
	}
}

func TestMergeMismatchedCounts(t *testing.T) {
	if _, err := Float64Layout.AppendMerge(nil, make([]byte, 4), make([]byte, 6)); err == nil {
		t.Fatal("mismatched element counts accepted")
	}
	if _, err := Float64Layout.AppendMerge(nil, make([]byte, 3), make([]byte, 6)); err == nil {
		t.Fatal("bad hi length accepted")
	}
	if _, err := Float64Layout.AppendMerge(nil, make([]byte, 4), make([]byte, 7)); err == nil {
		t.Fatal("bad lo length accepted")
	}
}

func TestColumnizeKnown(t *testing.T) {
	// 3x2 matrix rows (1,2),(3,4),(5,6) -> columns 1,3,5,2,4,6.
	in := []byte{1, 2, 3, 4, 5, 6}
	out, err := AppendColumnize(nil, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 3, 5, 2, 4, 6}
	if !bytes.Equal(out, want) {
		t.Fatalf("got %v want %v", out, want)
	}
	back, err := AppendDecolumnize(nil, out, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, in) {
		t.Fatalf("decolumnize mismatch: %v", back)
	}
}

func TestColumnizeWidthOne(t *testing.T) {
	in := []byte{9, 8, 7}
	out, err := AppendColumnize(nil, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("width-1 columnize should be identity")
	}
}

func TestColumnizeErrors(t *testing.T) {
	if _, err := AppendColumnize(nil, []byte{1, 2, 3}, 2); err == nil {
		t.Fatal("indivisible length accepted")
	}
	if _, err := AppendColumnize(nil, []byte{1}, 0); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := AppendDecolumnize(nil, []byte{1, 2, 3}, 2); err == nil {
		t.Fatal("indivisible length accepted")
	}
	if _, err := AppendDecolumnize(nil, []byte{1}, -2); err == nil {
		t.Fatal("negative width accepted")
	}
}

// TestColumn: column c of a row-major matrix is the c-th plane of its
// column-major form.
func TestColumn(t *testing.T) {
	in := []byte{1, 2, 3, 4, 5, 6} // rows (1,2),(3,4),(5,6)
	cols, err := AppendColumnize(nil, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if col := cols[3:]; !bytes.Equal(col, []byte{2, 4, 6}) {
		t.Fatalf("column 1 = %v", col)
	}
}

func TestColumnizeGroupsExponentBytes(t *testing.T) {
	// Doubles in a narrow range share exponent bytes; after columnize the
	// first column should be constant.
	values := make([]float64, 100)
	rng := rand.New(rand.NewSource(5))
	for i := range values {
		values[i] = 1.0 + rng.Float64() // all in [1,2): exponent 0x3FF
	}
	hi, _, err := Float64Layout.AppendSplit(nil, nil, Float64sToBytes(values))
	if err != nil {
		t.Fatal(err)
	}
	colMajor, err := AppendColumnize(nil, hi, Float64Layout.HiBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(values); i++ {
		if colMajor[i] != 0x3F {
			t.Fatalf("first column not constant at %d: %x", i, colMajor[i])
		}
	}
}

// Property: AppendSplit/AppendMerge is the identity on multiples of 8 bytes.
func TestQuickSplitMerge(t *testing.T) {
	f := func(values []float64) bool {
		data := Float64sToBytes(values)
		hi, lo, err := Float64Layout.AppendSplit(nil, nil, data)
		if err != nil {
			return false
		}
		merged, err := Float64Layout.AppendMerge(nil, hi, lo)
		return err == nil && bytes.Equal(merged, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendDecolumnize(AppendColumnize(x)) is the identity for any width
// that divides the length.
func TestQuickColumnize(t *testing.T) {
	f := func(raw []byte, w uint8) bool {
		width := int(w)%8 + 1
		n := len(raw) / width * width
		in := raw[:n]
		out, err := AppendColumnize(nil, in, width)
		if err != nil {
			return false
		}
		back, err := AppendDecolumnize(nil, out, width)
		return err == nil && bytes.Equal(back, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplit(b *testing.B) {
	data := make([]byte, 3<<20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, _, err := Float64Layout.AppendSplit(nil, nil, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnize(b *testing.B) {
	data := make([]byte, 3<<20)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := AppendColumnize(nil, data, 2); err != nil {
			b.Fatal(err)
		}
	}
}
