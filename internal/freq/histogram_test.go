package freq

import (
	"math/rand"
	"testing"
)

// HistogramPlanes is the histogram into a caller-owned counter arena. These
// tests hold it to the scalar Histogram and to the arena contract.

// TestHistogramIntoMatchesScalar holds HistogramPlanes to the scalar
// Histogram on every element count 0…37 and on planes at unaligned backing
// offsets.
func TestHistogramIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 37; n++ {
		hi := make([]byte, n*2)
		rng.Read(hi)
		ref, err := Histogram(hi)
		if err != nil {
			t.Fatal(err)
		}
		p0, p1 := planesOf(hi)
		// The same planes behind an odd backing offset.
		buf := make([]byte, 2*n+1)
		copy(buf[1:], p0)
		copy(buf[1+n:], p1)
		for name, planes := range map[string][2][]byte{
			"aligned":   {p0, p1},
			"unaligned": {buf[1 : 1+n], buf[1+n:]},
		} {
			counts := make([]uint32, SequenceSpace)
			if err := HistogramPlanes(counts, planes[0], planes[1]); err != nil {
				t.Fatal(err)
			}
			for s := range ref {
				if counts[s] != ref[s] {
					t.Fatalf("n=%d %s: count[%#04x] = %d, want %d", n, name, s, counts[s], ref[s])
				}
			}
		}
	}
}

// TestHistogramIntoAccumulates verifies counts are accumulated, not reset —
// the contract callers rely on when zeroing the arena themselves.
func TestHistogramIntoAccumulates(t *testing.T) {
	counts := make([]uint32, SequenceSpace)
	p0, p1 := []byte{0x01, 0x01}, []byte{0x02, 0x02}
	for pass := 0; pass < 2; pass++ {
		if err := HistogramPlanes(counts, p0, p1); err != nil {
			t.Fatal(err)
		}
	}
	if counts[0x0102] != 4 {
		t.Fatalf("count = %d, want 4 after two passes", counts[0x0102])
	}
}

func TestHistogramIntoErrors(t *testing.T) {
	if err := HistogramPlanes(make([]uint32, 10), make([]byte, 2), make([]byte, 2)); err == nil {
		t.Fatal("short counts accepted")
	}
	if err := HistogramPlanes(make([]uint32, SequenceSpace), make([]byte, 2), make([]byte, 1)); err == nil {
		t.Fatal("planes of different lengths accepted")
	}
	if _, err := Histogram(make([]byte, 3)); err == nil {
		t.Fatal("odd input accepted")
	}
}

func TestHistogramIntoAllocationFree(t *testing.T) {
	planes := make([]byte, 8192)
	rand.New(rand.NewSource(7)).Read(planes)
	p0, p1 := planes[:4096], planes[4096:]
	counts := make([]uint32, SequenceSpace)
	allocs := testing.AllocsPerRun(10, func() {
		clear(counts)
		if err := HistogramPlanes(counts, p0, p1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("HistogramPlanes allocates %v times per run", allocs)
	}
}
