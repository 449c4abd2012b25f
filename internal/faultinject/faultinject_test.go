package faultinject

import (
	"bytes"
	"testing"
)

func TestMutatorsCopyInput(t *testing.T) {
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ref := append([]byte(nil), orig...)
	_ = FlipBit(orig, 5)
	_ = Truncate(orig, 3)
	_ = ZeroRegion(orig, 2, 4)
	_ = Grow(orig, 4, []byte{9, 9})
	_ = Shrink(orig, 1, 3)
	if !bytes.Equal(orig, ref) {
		t.Fatal("a mutator modified its input in place")
	}
}

func TestFlipBit(t *testing.T) {
	got := FlipBit([]byte{0x00, 0x00}, 9)
	if got[1] != 0x02 || got[0] != 0 {
		t.Fatalf("FlipBit(9) = %v", got)
	}
}

func TestTruncateClips(t *testing.T) {
	if got := Truncate([]byte{1, 2}, 10); len(got) != 2 {
		t.Fatalf("Truncate past end = %v", got)
	}
	if got := Truncate([]byte{1, 2}, 0); len(got) != 0 {
		t.Fatalf("Truncate(0) = %v", got)
	}
}

func TestZeroRegionClips(t *testing.T) {
	got := ZeroRegion([]byte{1, 2, 3}, 1, 100)
	if !bytes.Equal(got, []byte{1, 0, 0}) {
		t.Fatalf("ZeroRegion = %v", got)
	}
}

func TestGrowShrink(t *testing.T) {
	got := Grow([]byte{1, 2, 3}, 1, []byte{9})
	if !bytes.Equal(got, []byte{1, 9, 2, 3}) {
		t.Fatalf("Grow = %v", got)
	}
	got = Shrink([]byte{1, 2, 3, 4}, 1, 2)
	if !bytes.Equal(got, []byte{1, 4}) {
		t.Fatalf("Shrink = %v", got)
	}
}

func TestBatteryDeterministicAndCovering(t *testing.T) {
	data := bytes.Repeat([]byte{0xAA}, 64)
	a := Battery(data, 8, 16)
	b := Battery(data, 8, 16)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("battery not deterministic: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("battery entry %d differs between runs", i)
		}
	}
	kinds := map[byte]bool{}
	for _, m := range a {
		kinds[m.Name[0]] = true // f(lip), t(runc), z(ero), g(row), s(hrink)
	}
	for _, k := range []byte{'f', 't', 'z', 'g', 's'} {
		if !kinds[k] {
			t.Fatalf("battery missing mutation family %q", k)
		}
	}
}

func TestSolverInjection(t *testing.T) {
	f, err := New("fi-test", "zlib")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 256)
	enc, err := f.CompressTo(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.DecompressTo(nil, enc)
	if err != nil || !bytes.Equal(dec, payload) {
		t.Fatalf("clean round trip failed: %v", err)
	}
	f.FailCompress = true
	if _, err := f.CompressTo(nil, payload); err != ErrInjected {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	f.FailCompress = false
	f.FailDecompress = true
	if _, err := f.DecompressTo(nil, enc); err != ErrInjected {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	f.FailDecompress = false
	f.Mangle = true
	enc2, err := f.CompressTo(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, enc2) {
		t.Fatal("mangle did not alter output")
	}
	// The flipped byte lies in what CompressTo appended, not in dst.
	enc3, err := f.CompressTo([]byte("hdr"), payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc3[:3]) != "hdr" || !bytes.Equal(enc3[3:], enc2) {
		t.Fatal("mangle touched the dst prefix or appended other bytes than to nil")
	}
}
