package freq

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// planesOf splits a row-major N×2 matrix into its two columns.
func planesOf(hi []byte) (p0, p1 []byte) {
	for i := 0; i < len(hi); i += 2 {
		p0 = append(p0, hi[i])
		p1 = append(p1, hi[i+1])
	}
	return p0, p1
}

// TestPlaneFormsMatchRowForms holds every plane-form function to its
// row-major original on element counts 0…67: the plane encoder's output is
// AppendEncode's, column-linearized; the plane decoder inverts it; the plane
// histogram and coverage check agree with theirs.
func TestPlaneFormsMatchRowForms(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 0; n <= 67; n++ {
		hi := make([]byte, 2*n)
		for i := range hi {
			hi[i] = byte(rng.Intn(7)) // few distinct pairs, many repeats
		}
		p0, p1 := planesOf(hi)

		counts := make([]uint32, SequenceSpace)
		if err := HistogramPlanes(counts, p0, p1); err != nil {
			t.Fatal(err)
		}
		ref, err := Histogram(hi)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ref {
			if counts[s] != ref[s] {
				t.Fatalf("n=%d: plane histogram[%#04x] = %d, want %d", n, s, counts[s], ref[s])
			}
		}

		idx, err := BuildIndex(ref)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := idx.Encode(hi)
		if err != nil {
			t.Fatal(err)
		}
		wantHi, wantLo := planesOf(rows)
		prefix := []byte{9, 9}
		got, err := idx.AppendEncodePlanes(append([]byte(nil), prefix...), p0, p1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:2+n], wantHi) || !bytes.Equal(got[2+n:], wantLo) {
			t.Fatalf("n=%d: plane encode is not encode + columnize", n)
		}
		back, err := idx.AppendDecodePlanes(append([]byte(nil), prefix...), got[2:2+n], got[2+n:])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back[:2], prefix) || !bytes.Equal(back[2:2+n], p0) || !bytes.Equal(back[2+n:], p1) {
			t.Fatalf("n=%d: plane decode does not invert plane encode", n)
		}

		covered, err := idx.CoversPlanes(p0, p1)
		if err != nil || !covered {
			t.Fatalf("n=%d: index does not cover the planes it was built from: %v", n, err)
		}
	}
}

func TestPlaneFormsReject(t *testing.T) {
	counts := make([]uint32, SequenceSpace)
	counts[0x0102] = 3
	counts[0x0304] = 1
	idx, err := BuildIndex(counts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.AppendEncodePlanes(nil, []byte{1, 9}, []byte{2, 9}); !errors.Is(err, ErrUnmappedSequence) {
		t.Fatalf("unmapped pair: %v", err)
	}
	if _, err := idx.AppendDecodePlanes(nil, []byte{0, 0}, []byte{1, 2}); !errors.Is(err, ErrBadID) {
		t.Fatalf("ID 2 of 2: %v", err)
	}
	if _, err := idx.AppendDecodePlanes(nil, []byte{1}, []byte{0}); !errors.Is(err, ErrBadID) {
		t.Fatalf("ID 256 of 2: %v", err)
	}
	if ok, err := idx.CoversPlanes([]byte{1, 3, 5}, []byte{2, 4, 6}); err != nil || ok {
		t.Fatalf("uncovered pair reported covered: %v, %v", ok, err)
	}
	for name, err := range map[string]error{
		"encode":    second(idx.AppendEncodePlanes(nil, []byte{1}, nil)),
		"decode":    second(idx.AppendDecodePlanes(nil, []byte{0}, nil)),
		"covers":    second(idx.CoversPlanes([]byte{1}, nil)),
		"histogram": HistogramPlanes(counts, []byte{1}, nil),
		"arena":     HistogramPlanes(counts[:10], nil, nil),
	} {
		if err == nil {
			t.Errorf("%s: mismatched planes accepted", name)
		}
	}
}

func second[T any](_ T, err error) error { return err }

func BenchmarkEncodePlanes(b *testing.B) {
	n := 384 << 10
	rng := rand.New(rand.NewSource(1))
	p0, p1 := make([]byte, n), make([]byte, n)
	counts := make([]uint32, SequenceSpace)
	for i := range p0 {
		p0[i], p1[i] = 0x40, byte(rng.Intn(64))
		counts[uint16(p0[i])<<8|uint16(p1[i])]++
	}
	idx, _ := BuildIndex(counts)
	dst := make([]byte, 0, 2*n)
	b.SetBytes(int64(2 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = idx.AppendEncodePlanes(dst[:0], p0, p1)
	}
}
