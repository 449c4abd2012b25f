package bitio

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(0)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		if err := w.WriteBits(uint64(b), 1); err != nil {
			t.Fatalf("WriteBits: %v", err)
		}
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestMSBFirstLayout(t *testing.T) {
	w := NewWriter(0)
	// 0b101 then 0b00001 -> byte 0b10100001 = 0xA1
	if err := w.WriteBits(0b101, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0b00001, 5); err != nil {
		t.Fatal(err)
	}
	got := w.Bytes()
	if !bytes.Equal(got, []byte{0xA1}) {
		t.Fatalf("layout: got %x want a1", got)
	}
}

func TestWidthZero(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteBits(0, 0); err != nil {
		t.Fatal(err)
	}
	if w.BitsWritten() != 0 {
		t.Fatalf("width-0 write counted bits: %d", w.BitsWritten())
	}
	r := NewReader(nil)
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d, %v", v, err)
	}
}

func TestOverflowRejected(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteBits(4, 2); err != ErrOverflow {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	if err := w.WriteBits(0, 65); err != ErrOverflow {
		t.Fatalf("width 65: want ErrOverflow, got %v", err)
	}
}

func TestFullWidth64(t *testing.T) {
	const v = uint64(0xDEADBEEFCAFEF00D)
	w := NewWriter(0)
	if err := w.WriteBits(v, 64); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("got %x want %x", got, v)
	}
}

func TestUnalignedWidth64(t *testing.T) {
	const v = uint64(0xFFFFFFFFFFFFFFFF)
	w := NewWriter(0)
	if err := w.WriteBits(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(v, 64); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes())
	if _, err := r.ReadBit(); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("got %x want %x", got, v)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != io.ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestGammaRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 127, 128, 1 << 20, 1<<62 - 1}
	w := NewWriter(0)
	for _, v := range values {
		if err := w.WriteGamma(v); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(w.Bytes())
	for _, want := range values {
		got, err := r.ReadGamma()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("gamma: got %d want %d", got, want)
		}
	}
}

// Property: any sequence of (value,width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%64) + 1
		widths := make([]uint, n)
		values := make([]uint64, n)
		w := NewWriter(0)
		for i := 0; i < n; i++ {
			widths[i] = uint(rng.Intn(64)) + 1
			values[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			if widths[i] == 64 {
				values[i] = rng.Uint64()
			}
			if err := w.WriteBits(values[i], widths[i]); err != nil {
				return false
			}
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed gamma/raw streams round-trip.
func TestQuickMixedCodes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter(0)
		type op struct {
			v  uint64
			wd uint // 0 for a gamma code
		}
		var ops []op
		for i := 0; i < 50; i++ {
			var o op
			if rng.Intn(2) == 0 {
				o.v = uint64(rng.Intn(1 << 30))
				if err := w.WriteGamma(o.v); err != nil {
					return false
				}
			} else {
				o.wd = uint(rng.Intn(33)) + 1
				o.v = rng.Uint64() & ((1 << o.wd) - 1)
				if err := w.WriteBits(o.v, o.wd); err != nil {
					return false
				}
			}
			ops = append(ops, o)
		}
		r := NewReader(w.Bytes())
		for _, o := range ops {
			var got uint64
			var err error
			if o.wd == 0 {
				got, err = r.ReadGamma()
			} else {
				got, err = r.ReadBits(o.wd)
			}
			if err != nil || got != o.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 20)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		if i%(1<<17) == 0 { // a fresh Writer for every MiB written
			w = NewWriter(1 << 20)
		}
		_ = w.WriteBits(uint64(i), 13)
		_ = w.WriteBits(uint64(i), 51)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 20)
	for i := 0; i < 100000; i++ {
		_ = w.WriteBits(uint64(i)&0x1FFF, 13)
	}
	data := w.Bytes()
	b.SetBytes(2)
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadBits(13); err != nil {
			r = NewReader(data)
		}
	}
}

func TestPeekAndSkip(t *testing.T) {
	w := NewWriter(0)
	if err := w.WriteBits(0b1011001110001111, 16); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes())
	v, avail := r.PeekBits(10)
	if avail != 10 || v != 0b1011001110 {
		t.Fatalf("peek = %b avail %d", v, avail)
	}
	// Peek must not consume.
	v2, _ := r.PeekBits(10)
	if v2 != v {
		t.Fatal("peek consumed bits")
	}
	if err := r.SkipBits(4); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0b001110001111 {
		t.Fatalf("after skip: %b", got)
	}
}

func TestPeekNearEOF(t *testing.T) {
	r := NewReader([]byte{0xF0})
	v, avail := r.PeekBits(12)
	if avail != 8 {
		t.Fatalf("avail = %d", avail)
	}
	// High 8 bits real, low 4 zero-filled.
	if v != 0xF00 {
		t.Fatalf("peek = %x", v)
	}
	if err := r.SkipBits(8); err != nil {
		t.Fatal(err)
	}
	if err := r.SkipBits(1); err == nil {
		t.Fatal("skip past EOF accepted")
	}
}

// Property: Peek+Skip is equivalent to ReadBits.
func TestQuickPeekSkipEquivalence(t *testing.T) {
	f := func(data []byte, widths []uint8) bool {
		ra := NewReader(data)
		rb := NewReader(data)
		remaining := uint(len(data)) * 8
		for _, w8 := range widths {
			w := uint(w8)%24 + 1
			if remaining < w {
				return true
			}
			remaining -= w
			want, err := ra.ReadBits(w)
			if err != nil {
				return false
			}
			got, avail := rb.PeekBits(w)
			if avail != w || got != want {
				return false
			}
			if err := rb.SkipBits(w); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
