package lzo

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecompress: the token decoder must never panic or read out of bounds
// on adversarial input, and must agree with the reference decoder: both fail,
// or both return the same bytes, whether the output grows from nothing or is
// written in place behind a prefix.
func FuzzDecompress(f *testing.F) {
	f.Add(AppendCompress(nil, []byte("seed data seed data seed data")))
	f.Add([]byte{})
	f.Add([]byte("LZG1"))
	mut := AppendCompress(nil, bytes.Repeat([]byte{7}, 500))
	mut[len(mut)-1] ^= 0xFF
	f.Add(mut)
	f.Add(AppendCompress(nil, bytes.Repeat([]byte("abcabcabx"), 40)))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := refAppendDecompress(nil, data)
		dec, err := AppendDecompress(nil, data)
		if (err == nil) != (werr == nil) || !bytes.Equal(dec, want) {
			t.Fatalf("AppendDecompress = %d bytes, %v; reference %d bytes, %v", len(dec), err, len(want), werr)
		}
		room := 0
		if len(data) >= headerLen {
			room = int(min(binary.LittleEndian.Uint64(data[len(magic):]), 64<<10))
		}
		in, ierr := AppendDecompress(append(make([]byte, 0, 3+room), "pre"...), data)
		if (ierr == nil) != (werr == nil) || werr == nil && (string(in[:3]) != "pre" || !bytes.Equal(in[3:], want)) {
			t.Fatalf("in place: %v; reference %v", ierr, werr)
		}
		if err != nil {
			return
		}
		// Accepted: must re-round-trip.
		if back, err := AppendDecompress(nil, AppendCompress(nil, dec)); err != nil || !bytes.Equal(back, dec) {
			t.Fatalf("re-round-trip failed: %v", err)
		}
	})
}

// FuzzRoundTrip: every input must survive compress+decompress bit-exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte("abc"), 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := AppendDecompress(nil, AppendCompress(nil, data))
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
