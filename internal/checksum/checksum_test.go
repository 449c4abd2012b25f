package checksum

import (
	"math/rand"
	"testing"
)

// TestCombineMatchesSum holds Combine to Sum of the concatenation, over
// every split of lengths around the word and page sizes, past a MiB, and at
// random.
func TestCombineMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lens := []int{0, 1, 7, 8, 4095, 1<<20 + 3}
	for i := 0; i < 8; i++ {
		lens = append(lens, rng.Intn(1<<16))
	}
	for _, la := range lens {
		for _, lb := range lens {
			buf := make([]byte, la+lb)
			rng.Read(buf)
			a, b := buf[:la], buf[la:]
			if got, want := Combine(Sum(a), Sum(b), lb), Sum(buf); got != want {
				t.Errorf("Combine over %d+%d bytes = %#08x, Sum = %#08x", la, lb, got, want)
			}
		}
	}
}

// TestUpdateMatchesSum: Update continues a CRC32C over the bytes that
// follow.
func TestUpdateMatchesSum(t *testing.T) {
	buf := []byte("header|frame|payload")
	for i := range buf {
		if got, want := Update(Sum(buf[:i]), buf[i:]), Sum(buf); got != want {
			t.Errorf("Update at %d = %#08x, Sum = %#08x", i, got, want)
		}
	}
}

// FuzzCombine: for any bytes and any split, Combine of the parts' sums is
// the sum of the whole, and so is a chain of Combines over three parts.
func FuzzCombine(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte("123456789"), uint16(4), uint16(2))
	f.Add(make([]byte, 4096), uint16(4095), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, i, j uint16) {
		cut1 := int(i) % (len(data) + 1)
		cut2 := cut1 + int(j)%(len(data)-cut1+1)
		a, b, c := data[:cut1], data[cut1:cut2], data[cut2:]
		whole := Sum(data)
		if got := Combine(Sum(data[:cut2]), Sum(c), len(c)); got != whole {
			t.Fatalf("Combine at %d = %#08x, Sum = %#08x", cut2, got, whole)
		}
		if got := Combine(Combine(Sum(a), Sum(b), len(b)), Sum(c), len(c)); got != whole {
			t.Fatalf("Combine at %d, %d = %#08x, Sum = %#08x", cut1, cut2, got, whole)
		}
	})
}
