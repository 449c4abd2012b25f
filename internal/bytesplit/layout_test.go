package bytesplit

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestFloat32BytesRoundTrip(t *testing.T) {
	values := []float32{0, 1, -1, float32(math.Inf(1)), float32(math.NaN()),
		math.MaxFloat32, math.SmallestNonzeroFloat32}
	data := Float32sToBytes(values)
	got, err := BytesToFloat32s(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float32bits(got[i]) != math.Float32bits(values[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
	if _, err := BytesToFloat32s(make([]byte, 5)); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestFloat32BigEndianLayout(t *testing.T) {
	// 1.0f = 0x3F800000; byte 0 must be 0x3F.
	data := Float32sToBytes([]float32{1.0})
	if data[0] != 0x3F || data[1] != 0x80 {
		t.Fatalf("layout: % x", data)
	}
}

func TestLayoutValidity(t *testing.T) {
	if !Float64Layout.Valid() || !Float32Layout.Valid() {
		t.Fatal("standard layouts invalid")
	}
	bad := []Layout{
		{ElemBytes: 8, HiBytes: 3},
		{ElemBytes: 2, HiBytes: 2},
		{ElemBytes: 32, HiBytes: 2},
	}
	for _, l := range bad {
		if l.Valid() {
			t.Fatalf("layout %+v should be invalid", l)
		}
		if _, _, err := l.AppendSplit(nil, nil, make([]byte, 8)); err == nil {
			t.Fatalf("AppendSplit accepted invalid layout %+v", l)
		}
		if _, err := l.AppendMerge(nil, nil, nil); err == nil {
			t.Fatalf("AppendMerge accepted invalid layout %+v", l)
		}
	}
}

func TestLayoutSplitMergeFloat32(t *testing.T) {
	data := Float32sToBytes([]float32{1.5, -2.25, 1e10})
	hi, lo, err := Float32Layout.AppendSplit(nil, nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(hi) != 6 || len(lo) != 6 {
		t.Fatalf("sizes: hi=%d lo=%d", len(hi), len(lo))
	}
	merged, err := Float32Layout.AppendMerge(nil, hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, data) {
		t.Fatal("merge mismatch")
	}
}

func TestLayoutMergeValidation(t *testing.T) {
	if _, err := Float32Layout.AppendMerge(nil, make([]byte, 3), make([]byte, 2)); err == nil {
		t.Fatal("ragged hi accepted")
	}
	if _, err := Float32Layout.AppendMerge(nil, make([]byte, 4), make([]byte, 3)); err == nil {
		t.Fatal("ragged lo accepted")
	}
	if _, err := Float32Layout.AppendMerge(nil, make([]byte, 4), make([]byte, 6)); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

// Property: Layout split/merge is identity for both precisions.
func TestQuickLayoutRoundTrip(t *testing.T) {
	for _, lay := range []Layout{Float64Layout, Float32Layout} {
		lay := lay
		f := func(raw []byte) bool {
			data := raw[:len(raw)/lay.ElemBytes*lay.ElemBytes]
			hi, lo, err := lay.AppendSplit(nil, nil, data)
			if err != nil {
				return false
			}
			merged, err := lay.AppendMerge(nil, hi, lo)
			return err == nil && bytes.Equal(merged, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%+v: %v", lay, err)
		}
	}
}
